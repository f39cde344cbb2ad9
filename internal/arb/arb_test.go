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
	mem := isa.NewMemory(nil)
	mem.Write(100, 55)
	val, src := Load(nil, 100, seq(2, 0), simpleLess, mem)
	if val != 55 || src != MemSeq {
		t.Errorf("load = (%d,%v), want (55, MemSeq)", val, src)
	}
}

func TestLoadPicksNearestOlderStore(t *testing.T) {
	mem := isa.NewMemory(nil)
	var vs []Version
	vs = Store(vs, 1, seq(0, 0))
	vs = Store(vs, 2, seq(1, 3))
	vs = Store(vs, 3, seq(3, 0)) // younger than the load below
	val, src := Load(vs, 100, seq(2, 0), simpleLess, mem)
	if val != 2 || src != seq(1, 3) {
		t.Errorf("load = (%d,%v), want (2, {1 3})", val, src)
	}
	// A load older than every store reads memory.
	val, src = Load(vs, 100, seq(0, 0), simpleLess, mem)
	if val != 0 || src != MemSeq {
		t.Errorf("oldest load = (%d,%v), want (0, MemSeq)", val, src)
	}
}

func TestStoreReplaceSameSeq(t *testing.T) {
	mem := isa.NewMemory(nil)
	vs := Store(nil, 1, seq(0, 0))
	vs = Store(vs, 9, seq(0, 0)) // same store re-performs with a new value
	if len(vs) != 1 {
		t.Errorf("versions = %d, want 1 (replaced)", len(vs))
	}
	val, _ := Load(vs, 100, seq(1, 0), simpleLess, mem)
	if val != 9 {
		t.Errorf("load = %d, want 9", val)
	}
}

func TestUndo(t *testing.T) {
	mem := isa.NewMemory(nil)
	mem.Write(100, 7)
	vs := Store(nil, 1, seq(0, 0))
	vs, ok := Undo(vs, seq(0, 0))
	if !ok {
		t.Error("undo of present version must report true")
	}
	if vs, ok = Undo(vs, seq(0, 0)); ok {
		t.Error("undo of absent version must report false")
	}
	val, src := Load(vs, 100, seq(1, 0), simpleLess, mem)
	if val != 7 || src != MemSeq {
		t.Errorf("after undo load = (%d,%v), want (7, MemSeq)", val, src)
	}
}

func TestCommit(t *testing.T) {
	mem := isa.NewMemory(nil)
	vs := Store(nil, 42, seq(0, 0))
	vs, ok := Commit(vs, 100, seq(0, 0), mem)
	if !ok {
		t.Error("commit must succeed")
	}
	if mem.Read(100) != 42 {
		t.Errorf("memory = %d, want 42", mem.Read(100))
	}
	if len(vs) != 0 {
		t.Error("committed version must leave the list")
	}
	if _, ok := Commit(vs, 100, seq(0, 0), mem); ok {
		t.Error("double commit must fail")
	}
}

func TestCommitInProgramOrderOverwrites(t *testing.T) {
	mem := isa.NewMemory(nil)
	vs := Store(nil, 1, seq(0, 0))
	vs = Store(vs, 2, seq(0, 5))
	vs, _ = Commit(vs, 100, seq(0, 0), mem)
	Commit(vs, 100, seq(0, 5), mem)
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

// TestARBMatchesReference checks the version-list operations against a
// reference model: after any interleaving of stores and undos over four
// addresses' lists, a load sees exactly the youngest older surviving store,
// else memory.
func TestARBMatchesReference(t *testing.T) {
	type op struct {
		Kind byte // 0 = store, 1 = undo
		PE   uint8
		Slot uint8
		Addr uint8
		Val  int64
	}
	f := func(ops []op, loadPE, loadSlot, loadAddr uint8) bool {
		var buf [4][]Version // one version list per address
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
					buf[prev.addr], _ = Undo(buf[prev.addr], s)
				}
				buf[addr] = Store(buf[addr], o.Val, s)
				live[s] = struct {
					addr uint32
					val  int64
				}{addr, o.Val}
			case 1:
				if prev, ok := live[s]; ok {
					buf[prev.addr], _ = Undo(buf[prev.addr], s)
					delete(live, s)
				}
			}
		}
		loadSeq := seq(int(loadPE%8), int(loadSlot%8))
		la := uint32(loadAddr % 4)
		got, gotSrc := Load(buf[la], la, loadSeq, simpleLess, mem)

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

// TestTotalVersions: each address's list holds one version per live store
// sequence number. A new sequence number adds a version, a re-perform by the
// same one replaces it, and an undo or a commit takes one away, leaving the
// other addresses' lists alone.
func TestTotalVersions(t *testing.T) {
	mem := isa.NewMemory(nil)
	var buf [3][]Version
	total := func() int { return len(buf[0]) + len(buf[1]) + len(buf[2]) }
	buf[1] = Store(buf[1], 1, seq(0, 0))
	buf[1] = Store(buf[1], 2, seq(0, 1))
	buf[2] = Store(buf[2], 3, seq(0, 2))
	buf[2] = Store(buf[2], 4, seq(0, 2))
	if total() != 3 || len(buf[1]) != 2 {
		t.Fatalf("total = %d, versions(1) = %d; want 3, 2", total(), len(buf[1]))
	}
	buf[1], _ = Undo(buf[1], seq(0, 0))
	buf[2], _ = Commit(buf[2], 2, seq(0, 2), mem)
	if total() != 1 || len(buf[1]) != 1 || buf[1][0].Seq != seq(0, 1) {
		t.Errorf("after undo and commit: total = %d, versions(1) = %v; want 1, [{0 1}]", total(), buf[1])
	}
}
