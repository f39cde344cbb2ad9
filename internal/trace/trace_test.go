package trace

import (
	"slices"
	"testing"
	"testing/quick"

	"tracep/internal/asm"
	"tracep/internal/bpred"
	"tracep/internal/core"
	"tracep/internal/isa"
)

// figure7 replicates the paper's Figure 7 CFG (see internal/core tests for
// the block layout). Block sizes: A=1, B=5, C=3, D=2, E=3, F=1, G=5, H=6;
// dynamic region size 10; maximum trace length 16.
func figure7() *isa.Program {
	b := asm.New("figure7")
	b.Label("A").Bne(1, 0, "E")
	b.Addi(2, 2, 1).Addi(2, 2, 1).Addi(2, 2, 1).Addi(2, 2, 1)
	b.Bne(3, 0, "D")
	b.Addi(4, 4, 1).Addi(4, 4, 1)
	b.Jump("F")
	b.Label("D").Addi(5, 5, 1)
	b.Jump("F")
	b.Label("E").Addi(6, 6, 1).Addi(6, 6, 1)
	b.Bne(7, 0, "G")
	b.Label("F").Jump("H")
	b.Label("G").Addi(8, 8, 1).Addi(8, 8, 1).Addi(8, 8, 1).Addi(8, 8, 1).Addi(8, 8, 1)
	b.Label("H").Addi(9, 9, 1).Addi(9, 9, 1).Addi(9, 9, 1).Addi(9, 9, 1).Addi(9, 9, 1).Addi(9, 9, 1)
	b.Halt()
	return b.MustBuild()
}

func fgConstructor(prog *isa.Program, maxLen int) *Constructor {
	return &Constructor{
		Prog: prog,
		Sel:  SelConfig{MaxLen: maxLen, FG: true},
		BIT: core.NewBIT(prog, core.BITConfig{
			Entries: 8192, Assoc: 4,
			Analyze: core.AnalyzeConfig{MaxSize: maxLen, MaxEdges: 8, MaxScan: 512},
		}),
	}
}

// TestFigure7TraceSelection reproduces the trace table of Figure 7: the four
// alternate traces through the embeddable region have physical lengths 16,
// 11, 15, 15 and all end at the same instruction (the last instruction of
// block H), so they share the same NextPC.
func TestFigure7TraceSelection(t *testing.T) {
	prog := figure7()
	c := fgConstructor(prog, 16)

	cases := []struct {
		forced  []bool
		wantLen int
		name    string
	}{
		{[]bool{false, false}, 16, "{A,B,C,F,H}"},
		{[]bool{false, true}, 15, "{A,B,D,F,H}"},
		{[]bool{true, false}, 11, "{A,E,F,H}"},
		{[]bool{true, true}, 15, "{A,E,G,H}"},
	}
	var nextPC uint32
	for i, cse := range cases {
		tr, _ := c.Build(0, cse.forced)
		if tr.Len() != cse.wantLen {
			t.Errorf("%s: length = %d, want %d", cse.name, tr.Len(), cse.wantLen)
		}
		if tr.PCs[tr.Len()-1] != 25 {
			t.Errorf("%s: last PC = %d, want 25 (end of H)", cse.name, tr.PCs[tr.Len()-1])
		}
		if i == 0 {
			nextPC = tr.NextPC
		} else if tr.NextPC != nextPC {
			t.Errorf("%s: NextPC = %d, want %d (trace-level re-convergence)", cse.name, tr.NextPC, nextPC)
		}
		// Every conditional branch in these traces lies inside the region
		// and must be FGCI-covered with the re-convergent index at block H.
		for _, bi := range tr.Branches {
			if !bi.FGCICovered {
				t.Errorf("%s: branch at pc %d not FGCI-covered", cse.name, bi.PC)
			}
			if bi.ReconvIdx < 0 || tr.PCs[bi.ReconvIdx] != 20 {
				t.Errorf("%s: branch at pc %d reconv idx wrong", cse.name, bi.PC)
			}
		}
	}
	if nextPC != 26 {
		t.Errorf("NextPC = %d, want 26 (the halt after H)", nextPC)
	}
}

// TestFigure7WithoutFG shows the trace-level re-convergence problem of
// Figure 5: without FGCI padding, alternate paths produce traces with
// different end points.
func TestFigure7WithoutFG(t *testing.T) {
	prog := figure7()
	c := &Constructor{Prog: prog, Sel: SelConfig{MaxLen: 16}}
	t1, _ := c.Build(0, []bool{false, false}) // A,B,C,F,H... fills to 16
	t2, _ := c.Build(0, []bool{true, false})  // A,E,F,H + beyond
	if t1.NextPC == t2.NextPC {
		t.Error("without fg selection the alternate traces should NOT re-converge at the trace level")
	}
}

func TestDeferBranchWhenRegionDoesNotFit(t *testing.T) {
	// 12 straight instructions, then a hammock of dynamic size 8: with
	// MaxLen 16, 12+8 > 16, so the trace must terminate before the branch.
	b := asm.New("t")
	for i := 0; i < 12; i++ {
		b.Addi(1, 1, 1)
	}
	b.Label("br").Beq(2, 0, "skip")
	for i := 0; i < 7; i++ {
		b.Addi(3, 3, 1)
	}
	b.Label("skip").Addi(4, 4, 1)
	b.Halt()
	prog := b.MustBuild()
	c := fgConstructor(prog, 16)
	tr, _ := c.Build(0, nil)
	if tr.Len() != 12 {
		t.Errorf("trace length = %d, want 12 (terminated before the branch)", tr.Len())
	}
	if tr.NextPC != 12 {
		t.Errorf("NextPC = %d, want 12 (the deferred branch)", tr.NextPC)
	}
	// The next trace embeds the whole region.
	tr2, _ := c.Build(tr.NextPC, nil)
	if len(tr2.Branches) == 0 || !tr2.Branches[0].FGCICovered {
		t.Error("deferred branch must be FGCI-covered in its own trace")
	}
}

func TestNTBTermination(t *testing.T) {
	b := asm.New("t")
	b.Label("loop").Addi(1, 1, 1)
	b.Bne(1, 2, "loop")
	b.Addi(3, 3, 1)
	b.Halt()
	prog := b.MustBuild()
	c := &Constructor{Prog: prog, Sel: SelConfig{MaxLen: 32, NTB: true}}
	// Forced not-taken backward branch must terminate the trace.
	tr, _ := c.Build(0, []bool{false})
	if !tr.EndsNTB {
		t.Error("trace must end at the predicted not-taken backward branch")
	}
	if tr.Len() != 2 || tr.NextPC != 2 {
		t.Errorf("trace len=%d next=%d, want 2, 2", tr.Len(), tr.NextPC)
	}
	// A taken backward branch does not terminate; the trace loops to MaxLen.
	allTaken := make([]bool, 16)
	for i := range allTaken {
		allTaken[i] = true
	}
	tr, _ = c.Build(0, allTaken)
	if tr.EndsNTB {
		t.Error("taken backward branches must not terminate under ntb")
	}
	if tr.Len() != 32 {
		t.Errorf("looping trace should fill to MaxLen, got %d", tr.Len())
	}
	// Without ntb, a not-taken backward branch does not terminate.
	c2 := &Constructor{Prog: prog, Sel: SelConfig{MaxLen: 32}}
	tr, _ = c2.Build(0, []bool{false})
	if tr.EndsNTB || tr.Len() == 2 {
		t.Error("default selection must not terminate at not-taken backward branches")
	}
}

func TestIndirectTermination(t *testing.T) {
	b := asm.New("t")
	b.Addi(1, 0, 5)
	b.Call("fn") // direct call: does NOT terminate
	b.Halt()
	b.Label("fn").Addi(2, 2, 1)
	b.Ret() // return: terminates
	prog := b.MustBuild()
	c := &Constructor{Prog: prog, Sel: SelConfig{MaxLen: 32}}
	tr, _ := c.Build(0, nil)
	if !tr.EndsIndirect || !tr.EndsInRet {
		t.Error("trace must terminate at the return")
	}
	// addi, call, addi(fn), ret = 4 instructions: the call is followed
	// through.
	if tr.Len() != 4 {
		t.Errorf("trace length = %d, want 4 (call followed into callee)", tr.Len())
	}
}

func TestMaxLenTermination(t *testing.T) {
	b := asm.New("t")
	for i := 0; i < 100; i++ {
		b.Addi(1, 1, 1)
	}
	b.Halt()
	prog := b.MustBuild()
	c := &Constructor{Prog: prog, Sel: SelConfig{MaxLen: 32}}
	tr, _ := c.Build(0, nil)
	if tr.Len() != 32 || tr.NextPC != 32 {
		t.Errorf("len=%d next=%d, want 32, 32", tr.Len(), tr.NextPC)
	}
	if tr.EndsIndirect || tr.EndsHalt {
		t.Error("max-length termination flags wrong")
	}
}

func TestHaltTermination(t *testing.T) {
	b := asm.New("t")
	b.Addi(1, 0, 1).Halt()
	prog := b.MustBuild()
	c := &Constructor{Prog: prog, Sel: SelConfig{MaxLen: 32}}
	tr, _ := c.Build(0, nil)
	if !tr.EndsHalt || tr.Len() != 2 {
		t.Errorf("halt trace wrong: len=%d halt=%v", tr.Len(), tr.EndsHalt)
	}
}

func TestBranchPredictorDrivesConstruction(t *testing.T) {
	b := asm.New("t")
	b.Beq(1, 0, "skip")
	b.Addi(2, 2, 1)
	b.Label("skip").Addi(3, 3, 1)
	b.Halt()
	prog := b.MustBuild()
	bp := bpred.New(bpred.Config{Entries: 64, RASDepth: 4}, 0)
	bp.UpdateDirection(0, true)
	bp.UpdateDirection(0, true)
	c := &Constructor{Prog: prog, Sel: SelConfig{MaxLen: 32}, BP: bp}
	tr, _ := c.Build(0, nil)
	if len(tr.Branches) == 0 || !tr.Branches[0].Taken {
		t.Error("construction must follow the trained branch predictor")
	}
	if tr.PCs[1] != 2 {
		t.Errorf("taken path should skip to pc 2, got %d", tr.PCs[1])
	}
}

func TestPrerename(t *testing.T) {
	b := asm.New("t")
	b.Addi(1, 5, 1). // 0: r1 = r5+1   (r5 live-in)
				Add(2, 1, 6).  // 1: r2 = r1+r6 (r1 local from 0, r6 live-in)
				Add(1, 2, 2).  // 2: r1 = r2+r2 (both local from 1)
				Store(1, 7, 0) // 3: mem[r7] = r1 (r7 live-in, r1 local from 2)
	b.Halt()
	prog := b.MustBuild()
	c := &Constructor{Prog: prog, Sel: SelConfig{MaxLen: 4}}
	tr, _ := c.Build(0, nil)

	if tr.Srcs[0][0].Kind != SrcLiveIn || tr.Srcs[0][0].Arch != 5 {
		t.Errorf("inst0 src0 = %+v, want live-in r5", tr.Srcs[0][0])
	}
	if tr.Srcs[1][0].Kind != SrcLocal || tr.Srcs[1][0].Local != 0 {
		t.Errorf("inst1 src0 = %+v, want local from 0", tr.Srcs[1][0])
	}
	if tr.Srcs[1][1].Kind != SrcLiveIn || tr.Srcs[1][1].Arch != 6 {
		t.Errorf("inst1 src1 = %+v, want live-in r6", tr.Srcs[1][1])
	}
	if tr.Srcs[2][0].Kind != SrcLocal || tr.Srcs[2][0].Local != 1 ||
		tr.Srcs[2][1].Kind != SrcLocal || tr.Srcs[2][1].Local != 1 {
		t.Errorf("inst2 srcs = %+v, want both local from 1", tr.Srcs[2])
	}
	// Store: src0 = base r7 (live-in), src1 = data r1 (local from 2).
	if tr.Srcs[3][0].Kind != SrcLiveIn || tr.Srcs[3][0].Arch != 7 {
		t.Errorf("store base = %+v, want live-in r7", tr.Srcs[3][0])
	}
	if tr.Srcs[3][1].Kind != SrcLocal || tr.Srcs[3][1].Local != 2 {
		t.Errorf("store data = %+v, want local from 2", tr.Srcs[3][1])
	}

	// Last writers: r1 -> inst 2, r2 -> inst 1.
	if tr.LastWriter[1] != 2 || tr.LastWriter[2] != 1 {
		t.Errorf("last writers: r1=%d r2=%d, want 2, 1", tr.LastWriter[1], tr.LastWriter[2])
	}
	// Live-ins in first-use order: r5, r6, r7.
	want := []isa.Reg{5, 6, 7}
	if len(tr.LiveIns) != 3 {
		t.Fatalf("live-ins = %v, want %v", tr.LiveIns, want)
	}
	for i, r := range want {
		if tr.LiveIns[i] != r {
			t.Errorf("live-in[%d] = %d, want %d", i, tr.LiveIns[i], r)
		}
	}
	// Live-outs: r1, r2.
	if len(tr.LiveOuts) != 2 || tr.LiveOuts[0] != 1 || tr.LiveOuts[1] != 2 {
		t.Errorf("live-outs = %v, want [1 2]", tr.LiveOuts)
	}
	// Local consumer lists: inst0 feeds inst1; inst1 feeds inst2 (twice);
	// inst2 feeds inst3; the store feeds nothing.
	for i, want := range [][]int16{{1}, {2, 2}, {3}, nil} {
		if c := tr.Consumers(i); !slices.Equal(c, want) {
			t.Errorf("consumers of inst%d = %v, want %v", i, c, want)
		}
	}
}

func TestDescriptorRoundTrip(t *testing.T) {
	d := Descriptor{StartPC: 100, Len: 32, NumBr: 3, Outcomes: 0b101}
	if d.ID() == (Descriptor{StartPC: 100, Len: 32, NumBr: 3, Outcomes: 0b100}).ID() {
		t.Error("different outcomes must hash differently")
	}
	if s := d.String(); s != "T[pc=100 len=32 br=101]" {
		t.Errorf("String = %q", s)
	}
}

// TestReconvergenceProperty: for random programs with a leading embeddable
// region, fg-selected traces built with every outcome combination end at the
// same NextPC — the trace-level re-convergence guarantee of §3.
func TestReconvergenceProperty(t *testing.T) {
	f := func(seed int64, o1, o2, o3 bool) bool {
		prog := randomHammockProgram(seed)
		c := fgConstructor(prog, 32)
		base, _ := c.Build(0, []bool{false, false, false})
		alt, _ := c.Build(0, []bool{o1, o2, o3})
		// Both must re-converge: same next PC.
		return base.NextPC == alt.NextPC
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// randomHammockProgram generates a nested hammock followed by straight-line
// code, always re-converging well before 32 instructions.
func randomHammockProgram(seed int64) *isa.Program {
	rng := uint64(seed)
	next := func(n int) int {
		rng = rng*6364136223846793005 + 1442695040888963407
		return int((rng >> 33) % uint64(n))
	}
	b := asm.New("rand")
	b.Beq(1, 0, "else")
	// then-arm: possibly with a nested hammock.
	for i := 0; i < 1+next(3); i++ {
		b.Addi(2, 2, 1)
	}
	if next(2) == 0 {
		b.Beq(2, 0, "ithen")
		b.Addi(3, 3, 1)
		b.Label("ithen")
	}
	b.Jump("join")
	b.Label("else")
	for i := 0; i < 1+next(4); i++ {
		b.Addi(4, 4, 1)
	}
	b.Label("join")
	for i := 0; i < 8; i++ {
		b.Addi(5, 5, 1)
	}
	b.Halt()
	return b.MustBuild()
}

func TestTraceCacheInsertLookup(t *testing.T) {
	prog := figure7()
	c := fgConstructor(prog, 16)
	tr, _ := c.Build(0, []bool{false, false})

	tc := newCache(CacheConfig{Sets: 4, Assoc: 2})
	if _, hit := tc.Lookup(tr.Desc); hit {
		t.Error("empty cache must miss")
	}
	tc.Insert(tr)
	got, hit := tc.Lookup(tr.Desc)
	if !hit || got != tr {
		t.Error("inserted trace must hit and return the same object")
	}
	lookups, misses := tc.Stats()
	if lookups != 2 || misses != 1 {
		t.Errorf("stats = (%d,%d), want (2,1)", lookups, misses)
	}
}

func TestTraceCacheEvictionSyncsStore(t *testing.T) {
	tc := newCache(CacheConfig{Sets: 1, Assoc: 1})
	prog := figure7()
	c := fgConstructor(prog, 16)
	t1, _ := c.Build(0, []bool{false, false})
	t2, _ := c.Build(0, []bool{true, true})
	tc.Insert(t1)
	tc.Insert(t2) // evicts t1 in a 1-entry cache
	if _, hit := tc.Lookup(t1.Desc); hit {
		t.Error("evicted trace must miss")
	}
	if _, hit := tc.Lookup(t2.Desc); !hit {
		t.Error("resident trace must hit")
	}
}

func TestBranchAt(t *testing.T) {
	prog := figure7()
	c := fgConstructor(prog, 16)
	tr, _ := c.Build(0, []bool{false, false})
	if bi, ok := tr.BranchAt(0); !ok || bi.PC != 0 {
		t.Error("BranchAt(0) should find the A branch")
	}
	if _, ok := tr.BranchAt(1); ok {
		t.Error("BranchAt(1) is not a branch")
	}
}

func TestConstructionCycles(t *testing.T) {
	// Without an icache, cycles = number of basic blocks.
	b := asm.New("t")
	b.Addi(1, 1, 1).Addi(1, 1, 1) // bb 1
	b.Jump("next")                // ends bb 1
	b.Label("next").Addi(2, 2, 1) // bb 2
	b.Halt()
	prog := b.MustBuild()
	c := &Constructor{Prog: prog, Sel: SelConfig{MaxLen: 32}}
	_, cycles := c.Build(0, nil)
	if cycles != 2 {
		t.Errorf("construction cycles = %d, want 2 basic blocks", cycles)
	}
}
