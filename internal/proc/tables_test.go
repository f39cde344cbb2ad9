package proc

import (
	"fmt"
	"testing"
)

// TestLoadTableGrowth drives the load-record index through two growths with
// backward-shift deletions interleaved. The addresses are multiples of 64,
// so they share a handful of home slots and every probe chain is long and
// wraps. After each growth, and every few operations, each live address
// must find its own bucket and each deleted one none. After reset the slot
// arrays are reused and every bucket is pooled for the next run.
func TestLoadTableGrowth(t *testing.T) {
	var tab loadTable
	var live []uint32
	var dead []uint32
	check := func(when string) {
		t.Helper()
		if tab.n != len(live) {
			t.Fatalf("%s: table counts %d addresses, %d are live", when, tab.n, len(live))
		}
		for _, a := range live {
			i := tab.find(a)
			if i < 0 || tab.keys[i] != a {
				t.Fatalf("%s: live address %d not found", when, a)
			}
			if b := tab.recs[i]; len(b) != 1 || b[0].gen != uint64(a) {
				t.Fatalf("%s: address %d holds bucket %v, want its own", when, a, b)
			}
		}
		for _, a := range dead {
			if i := tab.find(a); i >= 0 {
				t.Fatalf("%s: deleted address %d found at slot %d", when, a, i)
			}
		}
	}

	growths := 0
	for i := 0; i < 800; i++ {
		size := len(tab.keys)
		a := uint32(i) * 64
		s := tab.slotFor(a)
		tab.recs[s] = append(tab.recs[s], instRef{gen: uint64(a)})
		live = append(live, a)
		if i%3 == 2 {
			// Delete from the middle of the live set, so holes open inside
			// chains that later inserts and growths must see past.
			k := len(live) / 2
			victim := live[k]
			tab.del(tab.find(victim))
			live = append(live[:k], live[k+1:]...)
			dead = append(dead, victim)
		}
		if len(tab.keys) != size && size > 0 {
			growths++
			check(fmt.Sprintf("after growth to %d slots", len(tab.keys)))
		} else if i%25 == 0 {
			check(fmt.Sprintf("after insert %d", i))
		}
	}
	if growths < 2 {
		t.Fatalf("table grew %d times past its first size, want at least 2", growths)
	}
	check("at the end")

	keys, used, recs := &tab.keys[0], &tab.used[0], &tab.recs[0]
	size, buckets := len(tab.keys), len(live)+len(tab.pool)
	tab.reset()
	if &tab.keys[0] != keys || &tab.used[0] != used || &tab.recs[0] != recs || len(tab.keys) != size {
		t.Fatal("reset replaced the slot arrays")
	}
	if len(tab.pool) != buckets {
		t.Fatalf("reset pooled %d buckets, want %d", len(tab.pool), buckets)
	}
	live, dead = nil, append(dead, live...)
	check("after reset")
	s := tab.slotFor(1) // an address the table has not held
	if cap(tab.recs[s]) == 0 || len(tab.pool) != buckets-1 {
		t.Errorf("first insert after reset did not take a pooled bucket (cap %d, pool %d)", cap(tab.recs[s]), len(tab.pool))
	}
}
