package rename

import (
	"testing"
	"testing/quick"
)

func TestAllocAndWrite(t *testing.T) {
	f := NewFile(1024)
	a := f.Alloc()
	if a == 0 {
		t.Fatal("tags must be nonzero")
	}
	e := f.Get(a)
	if e == nil || e.Ready {
		t.Fatal("fresh tag must exist and be not-ready")
	}
	if changed := f.Write(a, 42); !changed {
		t.Error("first write must report a change")
	}
	if e.Val != 42 || !e.Ready {
		t.Error("write did not take effect")
	}
	if changed := f.Write(a, 42); changed {
		t.Error("idempotent write must not report a change")
	}
	if changed := f.Write(a, 43); !changed {
		t.Error("value change must be reported")
	}
}

func TestWriteInvalidTag(t *testing.T) {
	f := NewFile(1024)
	if f.Write(999, 1) {
		t.Error("write to unknown tag must be a no-op")
	}
	if f.Get(0) != nil {
		t.Error("tag 0 must be invalid")
	}
}

func TestUnready(t *testing.T) {
	f := NewFile(1024)
	a := f.AllocReady(7)
	f.Unready(a)
	if f.Get(a).Ready {
		t.Error("Unready must clear readiness")
	}
	if changed := f.Write(a, 7); !changed {
		t.Error("write after Unready must report a change (consumers must re-read)")
	}
	f.Unready(999) // no-op on unknown tags
}

func TestAllocReady(t *testing.T) {
	f := NewFile(1024)
	a := f.AllocReady(-5)
	e := f.Get(a)
	if !e.Ready || e.Val != -5 {
		t.Error("AllocReady must produce a ready entry")
	}
}

func TestTagsAreUnique(t *testing.T) {
	f := NewFile(1024)
	seen := make(map[Tag]bool)
	for i := 0; i < 1000; i++ {
		tag := f.Alloc()
		if seen[tag] {
			t.Fatalf("duplicate tag %d", tag)
		}
		seen[tag] = true
	}
	if f.Allocated != 1000 {
		t.Errorf("Allocated = %d, want 1000", f.Allocated)
	}
}

func TestSweep(t *testing.T) {
	f := NewFile(1024)
	keep := f.AllocReady(1)
	drop := f.AllocReady(2)
	f.Mark(keep)
	f.SweepUnmarked()
	if f.Get(keep) == nil {
		t.Error("live tag swept")
	}
	if f.Get(drop) != nil {
		t.Error("dead tag survived sweep")
	}
	if f.Swept != 1 || f.Size() != 1 {
		t.Errorf("swept=%d size=%d, want 1, 1", f.Swept, f.Size())
	}
}

// TestFixedCapacity: the file never grows. A full file hands out the
// invalid tag and counts the miss; a sweep makes room again, reusing the
// swept slot under a new generation; Reset restores a fresh file's tags.
func TestFixedCapacity(t *testing.T) {
	f := NewFile(1)
	if f.Cap() != pageSize {
		t.Fatalf("Cap = %d, want one page (%d)", f.Cap(), pageSize)
	}
	first := f.Alloc()
	for i := 1; i < pageSize; i++ {
		f.Alloc()
	}
	if f.Free() != 0 {
		t.Fatalf("Free = %d after filling the file", f.Free())
	}
	if tag := f.Alloc(); tag != 0 || f.Exhausted != 1 {
		t.Fatalf("full file: Alloc = %d, Exhausted = %d; want 0, 1", tag, f.Exhausted)
	}
	f.SweepUnmarked()
	if f.Free() != pageSize || f.Slots() != pageSize {
		t.Fatalf("after sweep: Free = %d, Slots = %d", f.Free(), f.Slots())
	}
	if f.Get(first) != nil {
		t.Fatal("swept tag still resolves")
	}
	if reused := f.Alloc(); reused == 0 || SlotIndex(reused) >= f.Cap() {
		t.Fatalf("Alloc after sweep = %d, want a tag below Cap", reused)
	}
	f.Reset(1)
	if got := f.Alloc(); got != first || f.Allocated != 1 || f.Exhausted != 0 {
		t.Errorf("after Reset: Alloc = %d (want %d), Allocated = %d, Exhausted = %d", got, first, f.Allocated, f.Exhausted)
	}
}

func TestInitialMap(t *testing.T) {
	f := NewFile(1024)
	m := InitialMap(f)
	if m[0] != 0 {
		t.Error("R0 must not be mapped")
	}
	for r := 1; r < len(m); r++ {
		e := f.Get(m[r])
		if e == nil || !e.Ready || e.Val != 0 {
			t.Errorf("r%d initial tag must be ready zero", r)
		}
	}
}

func TestMapIsValueType(t *testing.T) {
	f := NewFile(1024)
	m := InitialMap(f)
	snapshot := m // plain assignment must checkpoint
	m[5] = f.Alloc()
	if snapshot[5] == m[5] {
		t.Error("map checkpoints must be independent copies")
	}
}

func TestWriteChangeSemantics(t *testing.T) {
	// Property: Write reports a change iff the entry was not ready or held a
	// different value.
	f := NewFile(1024)
	tag := f.Alloc()
	prevReady := false
	var prevVal int64
	check := func(v int64) bool {
		want := !prevReady || prevVal != v
		got := f.Write(tag, v)
		prevReady, prevVal = true, v
		return got == want
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
