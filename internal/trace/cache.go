package trace

import "tracep/internal/cache"

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
// is modelled by a SetAssoc; contents live in a map kept in sync with the
// timing array.
type Cache struct {
	timing cache.SetAssoc
	store  map[uint64]*Trace // resident traces by descriptor ID
}

// Reset empties the trace cache and sizes it by cfg, reusing its storage.
// When pool is non-nil, every resident trace is recycled into it, so the
// next run's builds reuse the residents' storage; a resident that other
// holders share is pooled once (see Constructor.Recycle).
func (c *Cache) Reset(cfg CacheConfig, pool *Constructor) {
	if cfg.Sets == 0 {
		cfg = DefaultCacheConfig()
	}
	c.timing.Reset(cfg.Sets, cfg.Assoc)
	if c.store == nil {
		c.store = make(map[uint64]*Trace)
	}
	if pool != nil {
		//tracep:orderinvariant pool order only decides which recycled storage a later build reuses; every build overwrites it
		for _, tr := range c.store {
			pool.Recycle(tr)
		}
	}
	clear(c.store)
}

// Lines returns the cache's capacity in traces.
func (c *Cache) Lines() int { return c.timing.Sets() * c.timing.Assoc() }

// Lookup searches for the trace identified by d. A miss does not allocate;
// the line is filled when the constructed trace is Inserted.
//
//tracep:noalloc
func (c *Cache) Lookup(d Descriptor) (*Trace, bool) {
	key := d.ID()
	if c.timing.Touch(key) {
		//tracep:allow map access: the trace cache content index is cold (one probe per fetch, gated by the timing hit)
		if tr, ok := c.store[key]; ok {
			return tr, true
		}
		// Timing hit with missing content can only follow an external
		// inconsistency; treat as miss. Touch has already counted the
		// access.
		c.timing.Misses++
		return nil, false
	}
	return nil, false
}

// Resident returns the trace stored under d without touching the timing
// array: no access is counted and no LRU state moves. A recovery asks it
// whether the trace it rebuilt is already resident, pre-renamed.
//
//tracep:noalloc
func (c *Cache) Resident(d Descriptor) (*Trace, bool) {
	//tracep:allow map access: the trace cache content index is cold (one probe per repair)
	tr, ok := c.store[d.ID()]
	return tr, ok && tr.Desc == d
}

// Insert fills the cache with tr, evicting an LRU victim if needed. It
// returns the trace the cache stopped holding — the LRU victim, or a
// different trace previously stored under the same key — so the caller can
// drop the cache's reference to it (nil when nothing was displaced). fresh
// is false when tr itself was already resident under its key, in which case
// the cache's reference count for tr is unchanged.
//
//tracep:noalloc
func (c *Cache) Insert(tr *Trace) (evicted *Trace, fresh bool) {
	key := tr.Desc.ID()
	//tracep:allow map access: the trace cache content index is cold (one probe per construction, not per cycle)
	if old, ok := c.store[key]; ok {
		if old == tr {
			c.timing.Fill(key)
			return nil, false
		}
		evicted = old
	}
	if victim, evict := c.timing.Fill(key); evict {
		//tracep:allow map access: the trace cache content index is cold (one probe per construction, not per cycle)
		if vtr, ok := c.store[victim]; ok {
			evicted = vtr
		}
		//tracep:allow map access: the trace cache content index is cold (one probe per construction, not per cycle)
		delete(c.store, victim)
	}
	//tracep:allow map access: the trace cache content index is cold (one probe per construction, not per cycle)
	c.store[key] = tr
	return evicted, true
}

// Stats returns lookup and miss counts.
func (c *Cache) Stats() (lookups, misses uint64) {
	return c.timing.Accesses, c.timing.Misses
}
