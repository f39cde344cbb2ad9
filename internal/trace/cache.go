package trace

import (
	"slices"

	"tracep/internal/cache"
)

// CacheConfig sizes the trace cache. Table 1: 128 kB, 4-way, LRU, 32-inst
// lines. 128 kB / (32 insts x 4 B) = 1024 lines; 4-way gives 256 sets.
type CacheConfig struct {
	Sets  int
	Assoc int
}

// DefaultCacheConfig matches Table 1.
func DefaultCacheConfig() CacheConfig { return CacheConfig{Sets: 256, Assoc: 4} }

// Cache is the trace cache: low-latency, high-bandwidth storage for
// pre-renamed traces, indexed by trace descriptor. Timing (sets/ways/LRU)
// is modelled by a SetAssoc; contents live in lines, one trace per timing
// line (the SetAssoc's set*assoc+way index), so the line a lookup or fill
// lands on also holds its trace.
type Cache struct {
	timing cache.SetAssoc
	lines  []*Trace // resident traces by timing line; nil for an empty line
}

// Reset empties the trace cache and sizes it by cfg, reusing its storage.
// When pool is non-nil, every resident trace is recycled into it in line
// order, so the next run's builds reuse the residents' storage; a resident
// that other holders share is pooled once (see Constructor.Recycle).
func (c *Cache) Reset(cfg CacheConfig, pool *Constructor) {
	if cfg.Sets == 0 {
		cfg = DefaultCacheConfig()
	}
	if pool != nil {
		for _, tr := range c.lines {
			if tr != nil {
				pool.Recycle(tr)
			}
		}
	}
	c.timing.Reset(cfg.Sets, cfg.Assoc)
	n := c.Lines()
	c.lines = slices.Grow(c.lines[:0], n)[:n]
	clear(c.lines)
}

// Lines returns the cache's capacity in traces.
func (c *Cache) Lines() int { return c.timing.Sets() * c.timing.Assoc() }

// Lookup searches for the trace identified by d. A miss does not allocate;
// the line is filled when the constructed trace is Inserted.
//
//tracep:noalloc
func (c *Cache) Lookup(d Descriptor) (*Trace, bool) {
	if l := c.timing.Touch(d.ID()); l >= 0 {
		return c.lines[l], true
	}
	return nil, false
}

// Resident returns the trace stored under d without touching the timing
// array: no access is counted and no LRU state moves. A recovery asks it
// whether the trace it rebuilt is already resident, pre-renamed.
//
//tracep:noalloc
func (c *Cache) Resident(d Descriptor) (*Trace, bool) {
	l := c.timing.Probe(d.ID())
	if l < 0 {
		return nil, false
	}
	tr := c.lines[l]
	return tr, tr.Desc == d
}

// Insert fills the cache with tr, evicting an LRU victim if needed. It
// returns the trace the cache stopped holding — the line's previous
// occupant: the LRU victim, or a different trace previously stored under
// the same key — so the caller can drop the cache's reference to it (nil
// when nothing was displaced). fresh is false when tr itself was already
// resident under its key, in which case the cache's reference count for tr
// is unchanged.
//
//tracep:noalloc
func (c *Cache) Insert(tr *Trace) (evicted *Trace, fresh bool) {
	l := c.timing.Fill(tr.Desc.ID())
	if evicted = c.lines[l]; evicted == tr {
		return nil, false
	}
	c.lines[l] = tr
	return evicted, true
}

// Stats returns lookup and miss counts.
func (c *Cache) Stats() (lookups, misses uint64) {
	return c.timing.Accesses, c.timing.Misses
}
