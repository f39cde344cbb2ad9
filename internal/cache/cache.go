// Package cache provides a generic set-associative LRU cache model plus the
// concrete instruction-cache, data-cache and trace-cache timing models sized
// per Table 1 of the paper. Caches here model hit/miss behaviour and latency
// only; data contents live elsewhere (memory, ARB, trace store).
package cache

import "slices"

// SetAssoc is a set-associative cache with true-LRU replacement, keyed by an
// opaque uint64 line key (callers shift addresses to line granularity or hash
// trace descriptors).
type SetAssoc struct {
	sets  int //tracep:nostats configuration
	assoc int //tracep:nostats configuration
	// tags/valid/lru are flat sets*assoc arrays indexed by set*assoc+way —
	// three allocations per cache instead of three per set, which makes
	// construction and snapshot cloning cheap and keeps each set's ways on
	// one cache line.
	tags  []uint64 //tracep:nostats model state
	valid []bool   //tracep:nostats model state
	// lru[set*assoc+w] is the recency rank of way w in the set; 0 = MRU.
	lru []uint8 //tracep:nostats model state

	Accesses uint64
	Misses   uint64
}

// Reset empties the cache and gives it the given geometry, reusing its
// arrays where they are large enough.
func (c *SetAssoc) Reset(sets, assoc int) {
	if sets <= 0 || sets&(sets-1) != 0 {
		panic("cache: sets must be a positive power of two")
	}
	if assoc <= 0 {
		panic("cache: assoc must be positive")
	}
	n := sets * assoc
	c.sets, c.assoc = sets, assoc
	c.tags = slices.Grow(c.tags[:0], n)[:n]
	c.valid = slices.Grow(c.valid[:0], n)[:n]
	c.lru = slices.Grow(c.lru[:0], n)[:n]
	clear(c.tags)
	clear(c.valid)
	for i := 0; i < sets; i++ {
		for w := 0; w < assoc; w++ {
			c.lru[i*assoc+w] = uint8(w)
		}
	}
	c.Accesses, c.Misses = 0, 0
}

// Clone copies the cache — tag, valid and LRU arrays plus the access
// counters — into dst, reusing dst's arrays, and returns dst; a nil dst gets
// fresh ones. The copy shares nothing mutable with the receiver. It is the
// building block for warm-up snapshots: a captured cache is cloned on every
// restore so concurrent simulations forked from one snapshot cannot perturb
// each other.
func (c *SetAssoc) Clone(dst *SetAssoc) *SetAssoc {
	if dst == nil {
		dst = &SetAssoc{}
	}
	tags := append(dst.tags[:0], c.tags...)
	valid := append(dst.valid[:0], c.valid...)
	lru := append(dst.lru[:0], c.lru...)
	*dst = *c
	dst.tags, dst.valid, dst.lru = tags, valid, lru
	return dst
}

// ResetStats zeroes the access counters, keeping the array contents. Used
// when a snapshot is frozen: the warmed lines stay, but the measured region
// starts counting from zero.
func (c *SetAssoc) ResetStats() { c.Accesses, c.Misses = 0, 0 }

// Sets returns the number of sets.
func (c *SetAssoc) Sets() int { return c.sets }

// Assoc returns the associativity.
func (c *SetAssoc) Assoc() int { return c.assoc }

//tracep:noalloc
func (c *SetAssoc) set(key uint64) int { return int(key) & (c.sets - 1) }

// touch makes way the MRU of set si. A hit on the way that is already MRU
// (rank 0) changes no rank, so it returns at once: no rank is below 0.
//
//tracep:noalloc
func (c *SetAssoc) touch(si, way int) {
	base := si * c.assoc
	old := c.lru[base+way]
	if old == 0 {
		return
	}
	for w := 0; w < c.assoc; w++ {
		if c.lru[base+w] < old {
			c.lru[base+w]++
		}
	}
	c.lru[base+way] = 0
}

// Access looks key up, fills on miss (evicting the LRU way) and returns
// whether it hit. The returned evicted key is meaningful only when evict is
// true.
//
//tracep:noalloc
func (c *SetAssoc) Access(key uint64) (hit bool) {
	hit, _, _ = c.AccessEvict(key)
	return hit
}

// AccessEvict is Access, also reporting any evicted valid line's key.
//
//tracep:noalloc
func (c *SetAssoc) AccessEvict(key uint64) (hit bool, evicted uint64, evict bool) {
	c.Accesses++
	si := c.set(key)
	base := si * c.assoc
	for w := 0; w < c.assoc; w++ {
		if c.valid[base+w] && c.tags[base+w] == key {
			c.touch(si, w)
			return true, 0, false
		}
	}
	c.Misses++
	// Fill: pick LRU way.
	victim := 0
	for w := 0; w < c.assoc; w++ {
		if !c.valid[base+w] {
			victim = w
			evict = false
			goto fill
		}
		if c.lru[base+w] == uint8(c.assoc-1) {
			victim = w
		}
	}
	if c.valid[base+victim] {
		evicted, evict = c.tags[base+victim], true
	}
fill:
	c.tags[base+victim] = key
	c.valid[base+victim] = true
	c.touch(si, victim)
	return false, evicted, evict
}

// Touch looks key up without filling on a miss: it updates LRU and counts
// the access. It is the lookup primitive for caches whose contents arrive
// later (the trace cache fills at construction completion, not at lookup).
//
//tracep:noalloc
func (c *SetAssoc) Touch(key uint64) bool {
	c.Accesses++
	si := c.set(key)
	base := si * c.assoc
	for w := 0; w < c.assoc; w++ {
		if c.valid[base+w] && c.tags[base+w] == key {
			c.touch(si, w)
			return true
		}
	}
	c.Misses++
	return false
}

// Fill installs key (if absent), evicting the LRU way when the set is full.
// It does not count as an access.
//
//tracep:noalloc
func (c *SetAssoc) Fill(key uint64) (evicted uint64, evict bool) {
	si := c.set(key)
	base := si * c.assoc
	for w := 0; w < c.assoc; w++ {
		if c.valid[base+w] && c.tags[base+w] == key {
			c.touch(si, w)
			return 0, false
		}
	}
	victim := 0
	for w := 0; w < c.assoc; w++ {
		if !c.valid[base+w] {
			victim = w
			goto fill
		}
		if c.lru[base+w] == uint8(c.assoc-1) {
			victim = w
		}
	}
	evicted, evict = c.tags[base+victim], true
fill:
	c.tags[base+victim] = key
	c.valid[base+victim] = true
	c.touch(si, victim)
	return evicted, evict
}

// Probe reports whether key is resident without updating LRU or filling.
func (c *SetAssoc) Probe(key uint64) bool {
	si := c.set(key)
	base := si * c.assoc
	for w := 0; w < c.assoc; w++ {
		if c.valid[base+w] && c.tags[base+w] == key {
			return true
		}
	}
	return false
}

// ICache models the instruction cache: 64 kB, 4-way, 16-instruction lines,
// 12-cycle miss penalty (Table 1). Addresses are instruction indices.
type ICache struct {
	c           SetAssoc
	lineShift   uint //tracep:nostats configuration
	MissPenalty int  //tracep:nostats configuration
}

// ICacheConfig sizes an ICache.
type ICacheConfig struct {
	SizeInsts   int // total capacity in instructions
	Assoc       int
	LineInsts   int // instructions per line (power of two)
	MissPenalty int
}

// DefaultICacheConfig matches Table 1 (64kB at 4 bytes/inst = 16K insts).
func DefaultICacheConfig() ICacheConfig {
	return ICacheConfig{SizeInsts: 16384, Assoc: 4, LineInsts: 16, MissPenalty: 12}
}

// NewICache builds the instruction cache.
func NewICache(cfg ICacheConfig) *ICache {
	ic := &ICache{}
	ic.Reset(cfg)
	return ic
}

// Reset empties the instruction cache and sizes it by cfg, reusing its
// arrays where they are large enough.
func (ic *ICache) Reset(cfg ICacheConfig) {
	if cfg.SizeInsts == 0 {
		cfg = DefaultICacheConfig()
	}
	lines := cfg.SizeInsts / cfg.LineInsts
	ic.c.Reset(lines/cfg.Assoc, cfg.Assoc)
	ic.lineShift = lineShift(cfg.LineInsts)
	ic.MissPenalty = cfg.MissPenalty
}

// lineShift is log2 of a power-of-two line size.
func lineShift(line int) uint {
	shift := uint(0)
	for 1<<shift < line {
		shift++
	}
	return shift
}

// Fetch accesses the line containing pc and returns the access latency in
// cycles beyond the base 1-cycle fetch (0 on hit, MissPenalty on miss).
//
//tracep:noalloc
func (ic *ICache) Fetch(pc uint32) int {
	if ic.c.Access(uint64(pc) >> ic.lineShift) {
		return 0
	}
	return ic.MissPenalty
}

// SameLine reports whether two PCs fall in the same cache line (a basic-block
// fetch spanning a line boundary costs an extra access).
//
//tracep:noalloc
func (ic *ICache) SameLine(a, b uint32) bool {
	return a>>ic.lineShift == b>>ic.lineShift
}

// Stats returns accesses and misses.
func (ic *ICache) Stats() (accesses, misses uint64) { return ic.c.Accesses, ic.c.Misses }

// Clone copies the instruction cache into dst, reusing dst's arrays, and
// returns dst; a nil dst gets fresh ones.
func (ic *ICache) Clone(dst *ICache) *ICache {
	if dst == nil {
		dst = &ICache{}
	}
	ic.c.Clone(&dst.c)
	dst.lineShift, dst.MissPenalty = ic.lineShift, ic.MissPenalty
	return dst
}

// ResetStats zeroes the access counters, keeping the warmed lines.
func (ic *ICache) ResetStats() { ic.c.ResetStats() }

// DCache models the data cache: 64 kB, 4-way, 64-byte (8-word) lines,
// 14-cycle miss penalty (Table 1). Addresses are data-word addresses.
type DCache struct {
	c           SetAssoc
	lineShift   uint //tracep:nostats configuration
	MissPenalty int  //tracep:nostats configuration
	HitLatency  int  //tracep:nostats configuration
}

// DCacheConfig sizes a DCache.
type DCacheConfig struct {
	SizeWords   int
	Assoc       int
	LineWords   int
	MissPenalty int
	HitLatency  int
}

// DefaultDCacheConfig matches Table 1 (64kB at 8 bytes/word = 8K words,
// 64-byte lines = 8 words, 2-cycle hit, 14-cycle miss penalty).
func DefaultDCacheConfig() DCacheConfig {
	return DCacheConfig{SizeWords: 8192, Assoc: 4, LineWords: 8, MissPenalty: 14, HitLatency: 2}
}

// NewDCache builds the data cache.
func NewDCache(cfg DCacheConfig) *DCache {
	dc := &DCache{}
	dc.Reset(cfg)
	return dc
}

// Reset empties the data cache and sizes it by cfg, reusing its arrays where
// they are large enough.
func (dc *DCache) Reset(cfg DCacheConfig) {
	if cfg.SizeWords == 0 {
		cfg = DefaultDCacheConfig()
	}
	lines := cfg.SizeWords / cfg.LineWords
	dc.c.Reset(lines/cfg.Assoc, cfg.Assoc)
	dc.lineShift = lineShift(cfg.LineWords)
	dc.MissPenalty, dc.HitLatency = cfg.MissPenalty, cfg.HitLatency
}

// Access touches the line containing addr and returns total access latency
// (hit latency, plus miss penalty on a miss).
//
//tracep:noalloc
func (dc *DCache) Access(addr uint32) int {
	if dc.c.Access(uint64(addr) >> dc.lineShift) {
		return dc.HitLatency
	}
	return dc.HitLatency + dc.MissPenalty
}

// Stats returns accesses and misses.
func (dc *DCache) Stats() (accesses, misses uint64) { return dc.c.Accesses, dc.c.Misses }

// Clone copies the data cache into dst, reusing dst's arrays, and returns
// dst; a nil dst gets fresh ones.
func (dc *DCache) Clone(dst *DCache) *DCache {
	if dst == nil {
		dst = &DCache{}
	}
	dc.c.Clone(&dst.c)
	dst.lineShift, dst.MissPenalty, dst.HitLatency = dc.lineShift, dc.MissPenalty, dc.HitLatency
	return dst
}

// ResetStats zeroes the access counters, keeping the warmed lines.
func (dc *DCache) ResetStats() { dc.c.ResetStats() }
