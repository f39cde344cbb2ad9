package cache

import (
	"testing"
	"testing/quick"
)

func TestDirectMapped(t *testing.T) {
	c := newSetAssoc(4, 1)
	if c.Access(0) {
		t.Error("cold access must miss")
	}
	if !c.Access(0) {
		t.Error("second access must hit")
	}
	// Key 4 maps to set 0 and evicts key 0.
	if c.Access(4) {
		t.Error("conflicting key must miss")
	}
	if c.Access(0) {
		t.Error("evicted key must miss again")
	}
}

func TestLRUOrder(t *testing.T) {
	c := newSetAssoc(1, 2)
	c.Access(0)
	c.Access(1)
	c.Access(0) // 0 is MRU, 1 is LRU
	c.Access(2) // evicts 1
	if !c.Probe(0) {
		t.Error("key 0 (MRU) must survive")
	}
	if c.Probe(1) {
		t.Error("key 1 (LRU) must be evicted")
	}
	if !c.Probe(2) {
		t.Error("key 2 must be resident")
	}
}

func TestAccessEvict(t *testing.T) {
	c := newSetAssoc(1, 2)
	c.Access(10)
	c.Access(20)
	hit, evicted, evict := c.AccessEvict(30)
	if hit {
		t.Error("must miss")
	}
	if !evict || evicted != 10 {
		t.Errorf("evicted = (%d,%v), want (10,true)", evicted, evict)
	}
}

// newSetAssoc builds a cache with the given number of sets (power of two)
// and associativity.
func newSetAssoc(sets, assoc int) *SetAssoc {
	c := &SetAssoc{}
	c.Reset(sets, assoc)
	return c
}

// invalidate removes key if resident; it reports whether it was present.
func invalidate(c *SetAssoc, key uint64) bool {
	base := c.set(key) * c.assoc
	for w := 0; w < c.assoc; w++ {
		if c.valid[base+w] && c.tags[base+w] == key {
			c.valid[base+w] = false
			return true
		}
	}
	return false
}

func TestInvalidate(t *testing.T) {
	c := newSetAssoc(2, 2)
	c.Access(5)
	if !invalidate(c, 5) {
		t.Error("invalidate of resident key must report true")
	}
	if c.Probe(5) {
		t.Error("invalidated key must be gone")
	}
	if invalidate(c, 5) {
		t.Error("invalidate of absent key must report false")
	}
}

func TestProbeDoesNotDisturb(t *testing.T) {
	c := newSetAssoc(1, 2)
	c.Access(0)
	c.Access(1) // LRU order: 1 (MRU), 0
	c.Probe(0)  // must NOT touch LRU
	c.Access(2) // should evict 0 (still LRU)
	if c.Probe(0) {
		t.Error("probe must not update recency")
	}
	misses := c.Misses
	c.Probe(99)
	if c.Misses != misses {
		t.Error("probe must not count as access/miss")
	}
}

// TestLRUMatchesReference checks the cache against a reference model (a
// per-set recency list) on random access streams.
func TestLRUMatchesReference(t *testing.T) {
	const sets, assoc = 4, 4
	f := func(keys []uint16) bool {
		c := newSetAssoc(sets, assoc)
		ref := make([][]uint64, sets)
		for _, k16 := range keys {
			k := uint64(k16 % 64)
			si := int(k) % sets
			// Reference lookup.
			refHit := false
			for i, v := range ref[si] {
				if v == k {
					refHit = true
					ref[si] = append(ref[si][:i], ref[si][i+1:]...)
					break
				}
			}
			ref[si] = append([]uint64{k}, ref[si]...)
			if len(ref[si]) > assoc {
				ref[si] = ref[si][:assoc]
			}
			if got := c.Access(k); got != refHit {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestICacheLatency(t *testing.T) {
	ic := NewICache(ICacheConfig{SizeInsts: 256, Assoc: 2, LineInsts: 16, MissPenalty: 12})
	if lat := ic.Fetch(0); lat != 12 {
		t.Errorf("cold fetch latency = %d, want 12", lat)
	}
	if lat := ic.Fetch(5); lat != 0 {
		t.Errorf("same-line fetch latency = %d, want 0", lat)
	}
	if lat := ic.Fetch(16); lat != 12 {
		t.Errorf("next-line fetch latency = %d, want 12", lat)
	}
	if !ic.SameLine(0, 15) || ic.SameLine(15, 16) {
		t.Error("SameLine boundary wrong")
	}
	acc, miss := ic.Stats()
	if acc != 3 || miss != 2 {
		t.Errorf("stats = (%d,%d), want (3,2)", acc, miss)
	}
}

func TestDCacheLatency(t *testing.T) {
	dc := NewDCache(DCacheConfig{SizeWords: 64, Assoc: 2, LineWords: 8, MissPenalty: 14, HitLatency: 2})
	if lat := dc.Access(0); lat != 16 {
		t.Errorf("cold access = %d, want 16 (2 hit + 14 miss)", lat)
	}
	if lat := dc.Access(7); lat != 2 {
		t.Errorf("same-line access = %d, want 2", lat)
	}
}

func TestDefaultConfigsMatchTable1(t *testing.T) {
	ic := NewICache(DefaultICacheConfig())
	// 64kB / 4B per inst = 16K insts; 16-inst lines -> 1024 lines; 4-way ->
	// 256 sets.
	if ic.c.Sets() != 256 || ic.c.Assoc() != 4 {
		t.Errorf("icache geometry = %dx%d, want 256x4", ic.c.Sets(), ic.c.Assoc())
	}
	dc := NewDCache(DefaultDCacheConfig())
	// 64kB / 8B per word = 8K words; 8-word lines -> 1024 lines; 4-way ->
	// 256 sets.
	if dc.c.Sets() != 256 || dc.c.Assoc() != 4 {
		t.Errorf("dcache geometry = %dx%d, want 256x4", dc.c.Sets(), dc.c.Assoc())
	}
}

func TestMissRate(t *testing.T) {
	c := newSetAssoc(2, 1)
	if c.Accesses != 0 || c.Misses != 0 {
		t.Error("a new cache must count no accesses or misses")
	}
	c.Access(0)
	c.Access(0)
	if c.Accesses != 2 || c.Misses != 1 {
		t.Errorf("accesses/misses = %d/%d, want 2/1", c.Accesses, c.Misses)
	}
}

func TestBadGeometryPanics(t *testing.T) {
	for _, f := range []func(){
		func() { newSetAssoc(3, 2) },
		func() { newSetAssoc(0, 2) },
		func() { newSetAssoc(4, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("bad geometry must panic")
				}
			}()
			f()
		}()
	}
}
