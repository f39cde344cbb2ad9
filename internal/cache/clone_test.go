package cache

import "testing"

// TestSetAssocCloneIndependence: a clone carries the exact array and counter
// state, and mutating either side never reaches the other.
func TestSetAssocCloneIndependence(t *testing.T) {
	c := NewSetAssoc(4, 2)
	for k := uint64(0); k < 16; k++ {
		c.Access(k)
	}
	n := c.Clone(nil)
	if n.Accesses != c.Accesses || n.Misses != c.Misses {
		t.Fatalf("clone counters: got %d/%d, want %d/%d", n.Accesses, n.Misses, c.Accesses, c.Misses)
	}
	for k := uint64(0); k < 16; k++ {
		if c.Probe(k) != n.Probe(k) {
			t.Fatalf("clone content diverges at key %d", k)
		}
	}

	// Drive the original far away; the clone must not move.
	for k := uint64(100); k < 140; k++ {
		c.Access(k)
	}
	if n.Probe(100) {
		t.Error("original's fills leaked into the clone")
	}
	// And the other direction.
	before := c.Probe(100)
	for k := uint64(200); k < 240; k++ {
		n.Access(k)
	}
	if c.Probe(100) != before {
		t.Error("clone's fills leaked into the original")
	}
}

func TestSetAssocResetStats(t *testing.T) {
	c := NewSetAssoc(4, 2)
	c.Access(1)
	c.Access(1)
	c.ResetStats()
	if c.Accesses != 0 || c.Misses != 0 {
		t.Fatalf("counters not reset: %d/%d", c.Accesses, c.Misses)
	}
	if !c.Probe(1) {
		t.Error("ResetStats dropped cache contents")
	}
}

// TestICacheDCacheClone: the wrappers clone their timing arrays and keep
// geometry/latency parameters.
func TestICacheDCacheClone(t *testing.T) {
	ic := NewICache(DefaultICacheConfig())
	ic.Fetch(0)
	ic.Fetch(4096)
	icc := ic.Clone(nil)
	if lat := icc.Fetch(0); lat != 0 {
		t.Errorf("cloned I-cache lost the warmed line: latency %d", lat)
	}
	ic.ResetStats()
	if a, _ := icc.Stats(); a == 0 {
		t.Error("original's ResetStats reached the clone")
	}

	dc := NewDCache(DefaultDCacheConfig())
	dc.Access(100)
	dcc := dc.Clone(nil)
	if lat := dcc.Access(100); lat != dc.HitLatency {
		t.Errorf("cloned D-cache lost the warmed line: latency %d, want hit %d", lat, dc.HitLatency)
	}
	dcc.Access(70000) // far line: fills only the clone
	if lat := dc.Access(70000); lat == dc.HitLatency {
		t.Error("clone's fill leaked into the original D-cache")
	}
}
