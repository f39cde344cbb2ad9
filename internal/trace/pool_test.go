package trace

import (
	"testing"

	"tracep/internal/asm"
	"tracep/internal/isa"
)

// poolProgram is a short straight-line program for constructor pool tests.
func poolProgram() *isa.Program {
	b := asm.New("pool")
	b.Addi(1, 0, 1).Addi(2, 1, 2).Addi(3, 2, 3)
	b.Halt()
	return b.MustBuild()
}

// TestTraceRefcountLifecycle pins the reference-count protocol shared by the
// trace cache and the processor's fetch/dispatch path: an untracked trace
// (count zero) never reports a last-reference drop, Release reports true
// exactly on the transition to zero, and further releases are no-ops — so a
// bare &Trace{} in a test can never be recycled out from under anyone.
func TestTraceRefcountLifecycle(t *testing.T) {
	tr := &Trace{}
	if tr.Release() {
		t.Error("Release on an untracked trace reported a last-reference drop")
	}
	tr.Retain()
	tr.Retain()
	if tr.Release() {
		t.Error("first of two Releases reported the last reference")
	}
	if !tr.Release() {
		t.Error("final Release did not report the last reference")
	}
	if tr.Release() {
		t.Error("Release past zero reported a drop")
	}
	// The count is reusable: a recycled trace re-enters circulation with
	// whatever references its next holders establish.
	tr.Retain()
	if !tr.Release() {
		t.Error("re-retained trace did not report its last reference")
	}
}

// TestCacheCloneImmortalisesTraces: Clone pins every stored trace's count to
// the immortal sentinel (snapshots outlive any one engine's refcounting), so
// Retain/Release on a snapshot-held trace become no-ops and it can never be
// recycled.
func TestCacheCloneImmortalisesTraces(t *testing.T) {
	c := NewCache(CacheConfig{Sets: 4, Assoc: 2})
	tr := &Trace{Desc: Descriptor{StartPC: 10}}
	c.Insert(tr)
	tr.Retain() // the cache's reference, as the processor would track it
	_ = c.Clone(nil)
	tr.Retain()
	if tr.Release() || tr.Release() {
		t.Error("a snapshot-pinned trace reported a last-reference drop")
	}
}

// TestCacheInsertDisplacement pins Insert's (evicted, fresh) contract, which
// the processor's refcounting is built on: a first insert is fresh, a
// re-insert of the resident trace is not (no double count), a same-key
// replacement hands back the displaced trace, and a capacity eviction hands
// back the victim.
func TestCacheInsertDisplacement(t *testing.T) {
	c := NewCache(CacheConfig{Sets: 1, Assoc: 2})
	a := &Trace{Desc: Descriptor{StartPC: 10}}
	if ev, fresh := c.Insert(a); ev != nil || !fresh {
		t.Fatalf("first insert: evicted=%v fresh=%v, want nil/true", ev, fresh)
	}
	if ev, fresh := c.Insert(a); ev != nil || fresh {
		t.Fatalf("re-insert of the resident trace: evicted=%v fresh=%v, want nil/false", ev, fresh)
	}
	a2 := &Trace{Desc: Descriptor{StartPC: 10}}
	if ev, fresh := c.Insert(a2); ev != a || !fresh {
		t.Fatalf("same-key replacement: evicted=%v fresh=%v, want the old resident/true", ev, fresh)
	}
	b := &Trace{Desc: Descriptor{StartPC: 20}}
	if ev, fresh := c.Insert(b); ev != nil || !fresh {
		t.Fatalf("second way fill: evicted=%v fresh=%v, want nil/true", ev, fresh)
	}
	d := &Trace{Desc: Descriptor{StartPC: 30}}
	ev, fresh := c.Insert(d)
	if !fresh || ev == nil || (ev != a2 && ev != b) {
		t.Fatalf("capacity eviction: evicted=%v fresh=%v, want a displaced resident/true", ev, fresh)
	}
	if !c.Resident(d.Desc) {
		t.Error("inserted trace not resident after eviction")
	}
}

// TestConstructorRecycleReuse: a Recycled trace's storage backs a later
// build — the steady-state construct/dispatch/evict churn cycles a bounded
// set of Trace structures instead of allocating per kept build — while nil
// and the live scratch are rejected.
func TestConstructorRecycleReuse(t *testing.T) {
	c := &Constructor{Prog: poolProgram(), Sel: DefaultSelConfig()}

	tr, _ := c.Build(0, nil)
	if tr == nil || len(tr.Insts) == 0 {
		t.Fatal("build returned an empty trace")
	}
	c.Recycle(nil) // must not panic or pollute the pool

	c.Recycle(tr)
	tr2, _ := c.Build(0, nil)
	if tr2 != tr {
		t.Error("build after Recycle did not reuse the recycled trace's storage")
	}
	if int(tr2.Desc.Len) != len(tr2.Insts) || tr2.Desc.StartPC != 0 {
		t.Errorf("reused trace carries stale state: %+v", tr2.Desc)
	}

	// The live scratch must never enter the pool: BuildTransient's result is
	// still in use as scratch, and recycling it would alias the next build.
	scratch, _ := c.BuildTransient(0, nil)
	c.Recycle(scratch)
	next, _ := c.BuildTransient(0, nil)
	if next != scratch {
		// BuildTransient reuses scratch directly; if Recycle had accepted it,
		// the pool would now hold an alias of the live scratch.
		t.Error("BuildTransient abandoned its scratch")
	}
	tr3, _ := c.Build(0, nil)
	tr4, _ := c.Build(0, nil)
	if tr3 == tr4 {
		t.Error("two kept builds share storage: scratch leaked into the pool")
	}
}
