package arb

import (
	"testing"
	"testing/quick"

	"tracep/internal/isa"
)

// simpleLess orders sequence numbers by (PE, Slot) with MemSeq first —
// sufficient for tests where logical PE order equals PE number.
func simpleLess(a, b Seq) bool {
	if a.PE != b.PE {
		return a.PE < b.PE
	}
	return a.Slot < b.Slot
}

func seq(pe, slot int) Seq { return Seq{PE: int16(pe), Slot: int16(slot)} }

func TestLoadFromMemoryWhenEmpty(t *testing.T) {
	a := New()
	mem := isa.NewMemory(nil)
	mem.Write(100, 55)
	val, src := a.Load(100, seq(2, 0), simpleLess, mem)
	if val != 55 || src != MemSeq {
		t.Errorf("load = (%d,%v), want (55, MemSeq)", val, src)
	}
}

func TestLoadPicksNearestOlderStore(t *testing.T) {
	a := New()
	mem := isa.NewMemory(nil)
	a.Store(100, 1, seq(0, 0))
	a.Store(100, 2, seq(1, 3))
	a.Store(100, 3, seq(3, 0)) // younger than the load below
	val, src := a.Load(100, seq(2, 0), simpleLess, mem)
	if val != 2 || src != seq(1, 3) {
		t.Errorf("load = (%d,%v), want (2, {1 3})", val, src)
	}
	// A load older than every store reads memory.
	val, src = a.Load(100, seq(0, 0), simpleLess, mem)
	if val != 0 || src != MemSeq {
		t.Errorf("oldest load = (%d,%v), want (0, MemSeq)", val, src)
	}
}

func TestStoreReplaceSameSeq(t *testing.T) {
	a := New()
	mem := isa.NewMemory(nil)
	a.Store(100, 1, seq(0, 0))
	a.Store(100, 9, seq(0, 0)) // same store re-performs with a new value
	if len(a.byAddr[100]) != 1 {
		t.Errorf("versions = %d, want 1 (replaced)", len(a.byAddr[100]))
	}
	val, _ := a.Load(100, seq(1, 0), simpleLess, mem)
	if val != 9 {
		t.Errorf("load = %d, want 9", val)
	}
}

func TestUndo(t *testing.T) {
	a := New()
	mem := isa.NewMemory(nil)
	mem.Write(100, 7)
	a.Store(100, 1, seq(0, 0))
	if !a.Undo(100, seq(0, 0)) {
		t.Error("undo of present version must report true")
	}
	if a.Undo(100, seq(0, 0)) {
		t.Error("undo of absent version must report false")
	}
	val, src := a.Load(100, seq(1, 0), simpleLess, mem)
	if val != 7 || src != MemSeq {
		t.Errorf("after undo load = (%d,%v), want (7, MemSeq)", val, src)
	}
}

func TestCommit(t *testing.T) {
	a := New()
	mem := isa.NewMemory(nil)
	a.Store(100, 42, seq(0, 0))
	if !a.Commit(100, seq(0, 0), mem) {
		t.Error("commit must succeed")
	}
	if mem.Read(100) != 42 {
		t.Errorf("memory = %d, want 42", mem.Read(100))
	}
	if len(a.byAddr[100]) != 0 {
		t.Error("committed version must leave the buffer")
	}
	if a.Commit(100, seq(0, 0), mem) {
		t.Error("double commit must fail")
	}
}

func TestCommitInProgramOrderOverwrites(t *testing.T) {
	a := New()
	mem := isa.NewMemory(nil)
	a.Store(100, 1, seq(0, 0))
	a.Store(100, 2, seq(0, 5))
	a.Commit(100, seq(0, 0), mem)
	a.Commit(100, seq(0, 5), mem)
	if mem.Read(100) != 2 {
		t.Errorf("memory = %d, want 2 (last store wins)", mem.Read(100))
	}
}

func TestNeedsReissue(t *testing.T) {
	load := seq(5, 0)
	cases := []struct {
		name     string
		dataSeq  Seq
		storeSeq Seq
		want     bool
	}{
		{"younger store ignored", MemSeq, seq(6, 0), false},
		{"older store vs memory data", MemSeq, seq(2, 0), true},
		{"store between data and load", seq(1, 0), seq(3, 0), true},
		{"store older than data", seq(3, 0), seq(1, 0), false},
		{"same store re-performs", seq(3, 0), seq(3, 0), true},
		{"store equals load seq", seq(1, 0), seq(5, 0), false},
	}
	for _, c := range cases {
		if got := NeedsReissue(load, c.dataSeq, c.storeSeq, simpleLess); got != c.want {
			t.Errorf("%s: NeedsReissue = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestUndoHitsLoad(t *testing.T) {
	if !UndoHitsLoad(seq(1, 2), seq(1, 2)) {
		t.Error("matching undo must hit")
	}
	if UndoHitsLoad(seq(1, 2), seq(1, 3)) {
		t.Error("non-matching undo must not hit")
	}
	if UndoHitsLoad(MemSeq, seq(1, 3)) {
		t.Error("memory-sourced load is not hit by undo")
	}
}

// TestARBMatchesReference checks the ARB against a reference model: after
// any interleaving of stores/undos, a load sees exactly the youngest older
// surviving store, else memory.
func TestARBMatchesReference(t *testing.T) {
	type op struct {
		Kind byte // 0 = store, 1 = undo
		PE   uint8
		Slot uint8
		Addr uint8
		Val  int64
	}
	f := func(ops []op, loadPE, loadSlot, loadAddr uint8) bool {
		a := New()
		mem := isa.NewMemory(nil)
		mem.Write(uint32(loadAddr%4), -999)
		live := make(map[Seq]struct {
			addr uint32
			val  int64
		})
		for _, o := range ops {
			s := seq(int(o.PE%8), int(o.Slot%8))
			addr := uint32(o.Addr % 4)
			switch o.Kind % 2 {
			case 0:
				if prev, ok := live[s]; ok && prev.addr != addr {
					// A store that re-performs to a new address must undo
					// first, as the processor does.
					a.Undo(prev.addr, s)
				}
				a.Store(addr, o.Val, s)
				live[s] = struct {
					addr uint32
					val  int64
				}{addr, o.Val}
			case 1:
				if prev, ok := live[s]; ok {
					a.Undo(prev.addr, s)
					delete(live, s)
				}
			}
		}
		loadSeq := seq(int(loadPE%8), int(loadSlot%8))
		la := uint32(loadAddr % 4)
		got, gotSrc := a.Load(la, loadSeq, simpleLess, mem)

		// Reference: youngest older surviving store at la.
		want, wantSrc, found := int64(-999), MemSeq, false
		for s, v := range live {
			if v.addr != la || !simpleLess(s, loadSeq) {
				continue
			}
			if !found || simpleLess(wantSrc, s) {
				want, wantSrc, found = v.val, s, true
			}
		}
		return got == want && gotSrc == wantSrc
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// totalVersions counts the buffered versions across all addresses.
func totalVersions(a *ARB) int {
	n := 0
	for _, vs := range a.byAddr {
		n += len(vs)
	}
	return n
}

func TestTotalVersions(t *testing.T) {
	a := New()
	a.Store(1, 1, seq(0, 0))
	a.Store(1, 2, seq(0, 1))
	a.Store(2, 3, seq(0, 2))
	if totalVersions(a) != 3 {
		t.Errorf("total = %d, want 3", totalVersions(a))
	}
	if len(a.byAddr[1]) != 2 {
		t.Errorf("versions(1) = %d, want 2", len(a.byAddr[1]))
	}
}
