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
// newCache builds a trace cache sized by cfg.
func newCache(cfg CacheConfig) *Cache {
	c := &Cache{}
	c.Reset(cfg, nil)
	return c
}

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

// TestCacheContentMissCountsOnce: a lookup whose tag hits in the timing
// array but finds no stored trace is one access and one miss.
func TestCacheContentMissCountsOnce(t *testing.T) {
	c := newCache(CacheConfig{Sets: 4, Assoc: 2})
	d := Descriptor{StartPC: 10, Len: 1}
	c.timing.Fill(d.ID())
	if tr, hit := c.Lookup(d); hit || tr != nil {
		t.Fatalf("lookup with no stored trace = %v/%v, want a miss", tr, hit)
	}
	if lookups, misses := c.Stats(); lookups != 1 || misses != 1 {
		t.Errorf("Stats = %d lookups, %d misses; want 1, 1", lookups, misses)
	}
}

// TestCacheInsertDisplacement pins Insert's (evicted, fresh) contract, which
// the processor's refcounting is built on: a first insert is fresh, a
// re-insert of the resident trace is not (no double count), a same-key
// replacement hands back the displaced trace, and a capacity eviction hands
// back the victim.
func TestCacheInsertDisplacement(t *testing.T) {
	c := newCache(CacheConfig{Sets: 1, Assoc: 2})
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
	if !c.timing.Probe(d.Desc.ID()) {
		t.Error("inserted trace not resident after eviction")
	}
}

// TestConstructorRecycleReuse: a Recycled trace's storage backs a later
// build — the steady-state construct/dispatch/evict churn cycles a bounded
// set of Trace structures instead of allocating per kept build — while nil
// and the live scratch are rejected.
func TestConstructorRecycleReuse(t *testing.T) {
	c := &Constructor{Prog: poolProgram(), Sel: SelConfig{MaxLen: 32}}

	tr, _ := c.Build(0, nil)
	if tr == nil || tr.Len() == 0 {
		t.Fatal("build returned an empty trace")
	}
	c.Recycle(nil) // must not panic or pollute the pool

	c.Recycle(tr)
	tr2, _ := c.Build(0, nil)
	if tr2 != tr {
		t.Error("build after Recycle did not reuse the recycled trace's storage")
	}
	if int(tr2.Desc.Len) != tr2.Len() || tr2.Desc.StartPC != 0 {
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

// TestConstructorRecycleOnce: a trace can have several holders (the trace
// cache and a PE), and a reset hands every holder's trace to Recycle. A
// second Recycle of a pooled trace must be a no-op, or the pool would hold
// it twice and two later builds would share one Trace's storage.
func TestConstructorRecycleOnce(t *testing.T) {
	c := &Constructor{Prog: poolProgram(), Sel: SelConfig{MaxLen: 32}}
	tr, _ := c.Build(0, nil)
	tr.Retain()
	tr.Retain()
	c.Recycle(tr)
	c.Recycle(tr)
	if tr.refs != 0 {
		t.Errorf("recycled trace keeps %d references, want them cleared", tr.refs)
	}
	a, _ := c.Build(0, nil)
	b, _ := c.Build(0, nil)
	if a == b {
		t.Fatal("two builds share one trace: a double Recycle pooled it twice")
	}
	if a != tr {
		t.Error("first build after Recycle did not reuse the pooled trace")
	}
	// Leaving the pool ends the membership: the reused trace recycles again.
	c.Recycle(a)
	if d, _ := c.Build(0, nil); d != a {
		t.Error("a trace that left the pool could not be recycled again")
	}
}

// TestConstructorResetBoundsPool: Reset moves the scratch into the pool and
// keeps at most limit pooled traces, so a run on a smaller configuration
// does not pin a larger run's storage.
func TestConstructorResetBoundsPool(t *testing.T) {
	c := &Constructor{Prog: poolProgram(), Sel: SelConfig{MaxLen: 32}}
	var kept []*Trace
	for i := 0; i < 5; i++ {
		tr, _ := c.Build(0, nil)
		kept = append(kept, tr)
	}
	scratch, _ := c.BuildTransient(0, nil)
	for _, tr := range kept {
		c.Recycle(tr)
	}
	c.Reset(10)
	if len(c.pool) != 6 || c.scratch != nil || !scratch.pooled {
		t.Fatalf("after Reset(10): %d pooled, scratch %p (pooled %v); want 6 pooled including the scratch",
			len(c.pool), c.scratch, scratch.pooled)
	}
	c.Reset(2)
	if len(c.pool) != 2 {
		t.Fatalf("after Reset(2): %d pooled, want 2", len(c.pool))
	}
	if got := c.pool[:cap(c.pool)][2]; got != nil {
		t.Error("a trimmed pool slot still points at its trace")
	}
}

// diffTrace names the first field in which a and b differ, or returns "".
func diffTrace(a, b *Trace) string {
	switch {
	case a.Desc != b.Desc:
		return "Desc"
	case !slices.Equal(a.PCs, b.PCs):
		return "PCs"
	case !slices.Equal(a.Branches, b.Branches):
		return "Branches"
	case a.NextPC != b.NextPC || a.EndsIndirect != b.EndsIndirect || a.EndsInRet != b.EndsInRet ||
		a.EndsHalt != b.EndsHalt || a.EndsNTB != b.EndsNTB:
		return "successor"
	case !slices.Equal(a.Srcs, b.Srcs):
		return "Srcs"
	case !equalConsumers(a, b):
		return "Consumers"
	case a.LastWriter != b.LastWriter:
		return "LastWriter"
	case !slices.Equal(a.LiveIns, b.LiveIns):
		return "LiveIns"
	case !slices.Equal(a.LiveOuts, b.LiveOuts):
		return "LiveOuts"
	}
	return ""
}

// equalConsumers reports whether a and b list the same consumers for every
// instruction.
func equalConsumers(a, b *Trace) bool {
	if a.Len() != b.Len() {
		return false
	}
	for i := 0; i < a.Len(); i++ {
		if !slices.Equal(a.Consumers(i), b.Consumers(i)) {
			return false
		}
	}
	return true
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
		tr.prerename(prog)
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
