package trace

import (
	"slices"
	"testing"

	"tracep/internal/asm"
	"tracep/internal/bench"
	"tracep/internal/core"
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

// diffTrace names the first field in which a and b differ, or returns "".
func diffTrace(a, b *Trace) string {
	switch {
	case a.Desc != b.Desc:
		return "Desc"
	case !slices.Equal(a.PCs, b.PCs):
		return "PCs"
	case !slices.Equal(a.Insts, b.Insts):
		return "Insts"
	case !slices.Equal(a.Branches, b.Branches):
		return "Branches"
	case a.NextPC != b.NextPC || a.EndsIndirect != b.EndsIndirect || a.EndsInRet != b.EndsInRet ||
		a.EndsHalt != b.EndsHalt || a.EndsNTB != b.EndsNTB:
		return "successor"
	case !slices.Equal(a.Srcs, b.Srcs):
		return "Srcs"
	case !slices.Equal(a.DestArch, b.DestArch):
		return "DestArch"
	case !slices.EqualFunc(a.LocalConsumers, b.LocalConsumers, slices.Equal[[]int16]):
		return "LocalConsumers"
	case a.LastWriter != b.LastWriter:
		return "LastWriter"
	case !slices.Equal(a.LiveIns, b.LiveIns):
		return "LiveIns"
	case !slices.Equal(a.LiveOuts, b.LiveOuts):
		return "LiveOuts"
	}
	return ""
}

// TestDeferredPrerename: BuildTransient leaves the pre-renamed dataflow to
// Keep, so a transient build discarded on a trace-cache hit skips it. Over
// every start PC of a generated program, on one long-lived constructor whose
// scratch and pooled storage carry stale state from earlier builds, a kept
// transient build must equal an eager build (pre-renamed on fresh storage the
// moment it is constructed), and a discarded transient build must leave no
// trace in the kept build that follows it.
func TestDeferredPrerename(t *testing.T) {
	prog := bench.Generate(bench.DefaultGenConfig(7))
	sel := SelConfig{MaxLen: 32, NTB: true, FG: true}
	bit := core.NewBIT(prog, core.BITConfig{
		Entries: 8192, Assoc: 4,
		Analyze: core.AnalyzeConfig{MaxSize: sel.MaxLen, MaxEdges: 8, MaxScan: 512},
	})
	c := &Constructor{Prog: prog, Sel: sel, BIT: bit}
	eager := func(pc uint32, forced []bool) *Trace {
		fresh := &Constructor{Prog: prog, Sel: sel, BIT: bit}
		tr, _ := fresh.BuildTransient(pc, forced)
		tr.prerename()
		return tr
	}
	var forced, other []bool
	for pc := uint32(0); int(pc) < prog.Len(); pc++ {
		// Vary the forced outcomes with the start PC so builds differ in
		// shape from one PC to the next.
		forced, other = forced[:0], other[:0]
		for i := uint32(0); i < 4; i++ {
			forced = append(forced, (pc>>i)&1 == 1)
			other = append(other, (pc>>i)&1 == 0)
		}

		tr, _ := c.BuildTransient(pc, forced)
		kept := c.Keep(tr)
		if f := diffTrace(kept, eager(pc, forced)); f != "" {
			t.Fatalf("pc %d: kept transient build differs from an eager build in %s", pc, f)
		}
		c.Recycle(kept)

		c.BuildTransient((pc+1)%uint32(prog.Len()), other) // discarded, as on a trace-cache hit
		after, _ := c.Build(pc, forced)
		alone, _ := (&Constructor{Prog: prog, Sel: sel, BIT: bit}).Build(pc, forced)
		if f := diffTrace(after, alone); f != "" {
			t.Fatalf("pc %d: kept build after a discarded one differs from a kept build alone in %s", pc, f)
		}
		c.Recycle(after)
	}
}
