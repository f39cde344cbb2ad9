package proc

import (
	"fmt"
	"testing"

	"tracep/internal/arb"
)

// TestARBTableGrowth drives the ARB table through two growths with
// backward-shift deletions interleaved. The addresses are multiples of 64,
// so they share a handful of home slots and every probe chain is long and
// wraps. After each growth, and every few operations, each live address
// must find its own entry and each deleted one none. After reset the slot
// array is reused and every entry's lists are pooled for the next run.
func TestARBTableGrowth(t *testing.T) {
	var tab arbTable
	var live []uint32
	var dead []uint32
	check := func(when string) {
		t.Helper()
		if tab.n != len(live) {
			t.Fatalf("%s: table counts %d addresses, %d are live", when, tab.n, len(live))
		}
		for _, a := range live {
			i := tab.find(a)
			if i < 0 || tab.slots[i].addr != a {
				t.Fatalf("%s: live address %d not found", when, a)
			}
			e := tab.slots[i]
			if len(e.loads) != 1 || e.loads[0].gen != uint64(a) || len(e.versions) != 1 || e.versions[0].Val != int64(a) {
				t.Fatalf("%s: address %d holds entry %+v, want its own", when, a, e)
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
		size := len(tab.slots)
		a := uint32(i) * 64
		e := &tab.slots[tab.slotFor(a)]
		e.loads = append(e.loads, instRef{gen: uint64(a)})
		e.versions = append(e.versions, arb.Version{Val: int64(a)})
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
		if len(tab.slots) != size && size > 0 {
			growths++
			check(fmt.Sprintf("after growth to %d slots", len(tab.slots)))
		} else if i%25 == 0 {
			check(fmt.Sprintf("after insert %d", i))
		}
	}
	if growths < 2 {
		t.Fatalf("table grew %d times past its first size, want at least 2", growths)
	}
	check("at the end")

	slots, size, entries := &tab.slots[0], len(tab.slots), len(live)+len(tab.pool)
	tab.reset()
	if &tab.slots[0] != slots || len(tab.slots) != size {
		t.Fatal("reset replaced the slot array")
	}
	if len(tab.pool) != entries {
		t.Fatalf("reset pooled %d entries, want %d", len(tab.pool), entries)
	}
	live, dead = nil, append(dead, live...)
	check("after reset")
	e := tab.slots[tab.slotFor(1)] // an address the table has not held
	if cap(e.loads) == 0 || cap(e.versions) == 0 || len(tab.pool) != entries-1 {
		t.Errorf("first insert after reset did not take pooled lists (caps %d/%d, pool %d)", cap(e.versions), cap(e.loads), len(tab.pool))
	}
}

// TestARBEntryLifetime: an address holding both store versions and load
// records keeps its entry while either list is non-empty, and loses it when
// both empty, whichever empties last. The store is younger than the load,
// so no snoop reissues it.
func TestARBEntryLifetime(t *testing.T) {
	const addr = 40
	p := &Processor{}
	p.less = p.seqLess
	p.mem.Reset(nil)
	pe := &peState{active: true}
	p.pes = []*peState{pe}
	ld := &instState{pe: pe}
	st := &instState{pe: pe}
	st.slot, st.lastAddr = 1, addr

	entry := func(when string, versions, loads int) {
		t.Helper()
		i := p.arbTab.find(addr)
		if versions+loads == 0 {
			if i >= 0 || p.arbTab.n != 0 {
				t.Fatalf("%s: entry kept with both lists empty (slot %d, %d entries)", when, i, p.arbTab.n)
			}
			return
		}
		if i < 0 {
			t.Fatalf("%s: entry gone, want %d versions and %d loads", when, versions, loads)
		}
		if e := p.arbTab.slots[i]; len(e.versions) != versions || len(e.loads) != loads {
			t.Fatalf("%s: %d versions and %d loads, want %d and %d", when, len(e.versions), len(e.loads), versions, loads)
		}
	}

	// The versions empty first, then the loads.
	p.recordLoad(ld, addr)
	p.performStore(st, addr, 7)
	entry("load and store", 1, 1)
	p.undoStore(st)
	entry("store undone", 0, 1)
	p.removeLoadRec(ld)
	entry("load removed", 0, 0)

	// The loads empty first, then the versions.
	p.recordLoad(ld, addr)
	p.performStore(st, addr, 9)
	p.removeLoadRec(ld)
	entry("load removed", 1, 0)
	if !p.commitStore(st) {
		t.Fatal("commit found no version")
	}
	entry("store committed", 0, 0)
	if got := p.mem.Read(addr); got != 9 {
		t.Errorf("memory = %d after commit, want 9", got)
	}
}
