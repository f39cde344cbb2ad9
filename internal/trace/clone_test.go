package trace

import "testing"

// TestCacheCloneIndependence: the clone sees the same resident traces and
// counters, then the two caches evolve independently (shared *Trace values
// are fine — traces are immutable once inserted).
func TestCacheCloneIndependence(t *testing.T) {
	c := NewCache(CacheConfig{Sets: 4, Assoc: 2})
	d1 := Descriptor{StartPC: 10, NumBr: 1, Outcomes: 1}
	d2 := Descriptor{StartPC: 20, NumBr: 0}
	c.Insert(&Trace{Desc: d1})
	c.Insert(&Trace{Desc: d2})
	c.Lookup(d1)

	n := c.Clone(nil)
	if !n.Resident(d1) || !n.Resident(d2) {
		t.Fatal("clone lost resident traces")
	}
	la, ma := c.Stats()
	lb, mb := n.Stats()
	if la != lb || ma != mb {
		t.Fatalf("clone counters: %d/%d, want %d/%d", lb, mb, la, ma)
	}
	if tr, hit := n.Lookup(d1); !hit || tr.Desc != d1 {
		t.Fatal("clone lookup failed for resident trace")
	}

	// Fill the original's sets with new traces; the clone keeps its view.
	for pc := uint32(100); pc < 140; pc++ {
		c.Insert(&Trace{Desc: Descriptor{StartPC: pc}})
	}
	if !n.Resident(d1) {
		t.Error("original's evictions reached the clone")
	}
	// Counters diverge independently.
	n.Lookup(d2)
	la2, _ := c.Stats()
	lb2, _ := n.Stats()
	if la2 == lb2 {
		t.Error("clone lookup counted on the original")
	}
}
