package core

import (
	"testing"
	"testing/quick"

	"tracep/internal/asm"
	"tracep/internal/isa"
)

// figure7 builds the exact CFG of the paper's Figure 7:
//
//	A(1): branch   -> taken E, fall B
//	B(5): 4 ALU + branch -> taken D, fall C
//	C(3): 2 ALU + jump F
//	D(2): 1 ALU + jump F
//	E(3): 2 ALU + branch -> taken G, fall F
//	F(1): jump H
//	G(5): 5 ALU, falls into H
//	H(6): 6 ALU (the re-convergent block)
//
// Block sizes match the figure; the longest control-dependent path is
// A+B+C+F = 1+5+3+1 = 10 = the paper's dynamic region size.
func figure7(t *testing.T) (*isa.Program, uint32) {
	t.Helper()
	b := asm.New("figure7")
	b.Label("A").Bne(1, 0, "E") // pc 0
	// B: pcs 1-5
	b.Addi(2, 2, 1).Addi(2, 2, 1).Addi(2, 2, 1).Addi(2, 2, 1)
	b.Bne(3, 0, "D")
	// C: pcs 6-8
	b.Addi(4, 4, 1).Addi(4, 4, 1)
	b.Jump("F")
	// D: pcs 9-10
	b.Label("D").Addi(5, 5, 1)
	b.Jump("F")
	// E: pcs 11-13
	b.Label("E").Addi(6, 6, 1).Addi(6, 6, 1)
	b.Bne(7, 0, "G")
	// F: pc 14
	b.Label("F").Jump("H")
	// G: pcs 15-19
	b.Label("G").Addi(8, 8, 1).Addi(8, 8, 1).Addi(8, 8, 1).Addi(8, 8, 1).Addi(8, 8, 1)
	// H: pcs 20-25
	b.Label("H").Addi(9, 9, 1).Addi(9, 9, 1).Addi(9, 9, 1).Addi(9, 9, 1).Addi(9, 9, 1).Addi(9, 9, 1)
	b.Halt()
	return b.MustBuild(), 0
}

func TestFigure7Region(t *testing.T) {
	prog, brPC := figure7(t)
	reg := AnalyzeRegion(prog, brPC, DefaultAnalyzeConfig())
	if !reg.Found {
		t.Fatal("Figure 7 region must be found")
	}
	if reg.Size != 10 {
		t.Errorf("dynamic region size = %d, want 10 (paper Figure 7)", reg.Size)
	}
	if reg.ReconvPC != 20 {
		t.Errorf("re-convergent PC = %d, want 20 (start of block H)", reg.ReconvPC)
	}
	if reg.StaticSize != 20 {
		t.Errorf("static region size = %d, want 20", reg.StaticSize)
	}
	if reg.NumCondBr != 3 {
		t.Errorf("conditional branches in region = %d, want 3 (A, B, E)", reg.NumCondBr)
	}
	if !reg.Embeddable(16) {
		t.Error("region of size 10 must be embeddable in a 16-instruction trace")
	}
	if reg.Embeddable(9) {
		t.Error("region of size 10 must not be embeddable in a 9-instruction trace")
	}
}

// TestClassifyBranch: Table 5's four classes. Figure 7's size-10 region is
// FGCI<=len for a 16-instruction trace, FGCI>len for a 9-instruction one
// (the 4×len bound still finds it), and other forward once even 4×len is
// below its size; a loop's closing branch is backward.
func TestClassifyBranch(t *testing.T) {
	prog, brPC := figure7(t)
	for _, tc := range []struct {
		maxLen int
		want   BranchClass
		found  bool
	}{
		{16, ClassFGCISmall, true},
		{9, ClassFGCIBig, true},
		{2, ClassOtherForward, false},
	} {
		got, reg := ClassifyBranch(prog, brPC, tc.maxLen)
		if got != tc.want || reg.Found != tc.found {
			t.Errorf("maxLen %d: class %d (found %v), want %d (found %v)", tc.maxLen, got, reg.Found, tc.want, tc.found)
		}
	}

	b := asm.New("loop")
	b.Label("L").Addi(1, 1, -1)
	b.Bne(1, 0, "L") // pc 1
	b.Halt()
	if got, reg := ClassifyBranch(b.MustBuild(), 1, 32); got != ClassBackward || reg.Found {
		t.Errorf("loop branch: class %d (found %v), want backward", got, reg.Found)
	}
}

func TestFigure7InnerBranches(t *testing.T) {
	prog, _ := figure7(t)
	// Branch in B (pc 5): region is {branch, C, D} re-converging at F (14).
	// Longest path: branch(1) + C(3) = 4.
	reg := AnalyzeRegion(prog, 5, DefaultAnalyzeConfig())
	if !reg.Found || reg.ReconvPC != 14 || reg.Size != 4 {
		t.Errorf("B-branch region = %+v, want reconv 14 size 4", reg)
	}
	// Branch in E (pc 13): taken G(15), fall F(14). F jumps to H(20); G falls
	// into H. Longest: branch(1)+G(5) = 6, re-converging at H (20).
	reg = AnalyzeRegion(prog, 13, DefaultAnalyzeConfig())
	if !reg.Found || reg.ReconvPC != 20 || reg.Size != 6 {
		t.Errorf("E-branch region = %+v, want reconv 20 size 6", reg)
	}
}

func TestSimpleHammock(t *testing.T) {
	// if-then: branch over 3 instructions.
	b := asm.New("t")
	b.Beq(1, 0, "skip")
	b.Addi(2, 2, 1).Addi(2, 2, 1).Addi(2, 2, 1)
	b.Label("skip").Addi(3, 3, 1)
	b.Halt()
	prog := b.MustBuild()
	reg := AnalyzeRegion(prog, 0, DefaultAnalyzeConfig())
	if !reg.Found {
		t.Fatal("simple hammock not found")
	}
	// Longest path = branch + 3 then-instructions = 4.
	if reg.Size != 4 || reg.ReconvPC != 4 {
		t.Errorf("region = %+v, want size 4 reconv 4", reg)
	}
	if reg.NumCondBr != 1 {
		t.Errorf("NumCondBr = %d, want 1", reg.NumCondBr)
	}
}

func TestIfThenElse(t *testing.T) {
	// if-then-else: then = 2 insts + jump, else = 4 insts.
	b := asm.New("t")
	b.Beq(1, 0, "else")
	b.Addi(2, 2, 1).Addi(2, 2, 1)
	b.Jump("join")
	b.Label("else").Addi(3, 3, 1).Addi(3, 3, 1).Addi(3, 3, 1).Addi(3, 3, 1)
	b.Label("join").Addi(4, 4, 1)
	b.Halt()
	prog := b.MustBuild()
	reg := AnalyzeRegion(prog, 0, DefaultAnalyzeConfig())
	if !reg.Found {
		t.Fatal("if-then-else not found")
	}
	// Paths: branch+then(3 incl jump) = 4; branch+else(4) = 5.
	if reg.Size != 5 {
		t.Errorf("size = %d, want 5", reg.Size)
	}
	if reg.ReconvPC != 8 {
		t.Errorf("reconv = %d, want 8 (join)", reg.ReconvPC)
	}
}

func TestRegionRejectsCall(t *testing.T) {
	b := asm.New("t")
	b.Beq(1, 0, "skip")
	b.Call("fn")
	b.Label("skip").Halt()
	b.Label("fn").Ret()
	prog := b.MustBuild()
	reg := AnalyzeRegion(prog, 0, DefaultAnalyzeConfig())
	if reg.Found {
		t.Error("region containing a call must be rejected")
	}
}

func TestRegionRejectsBackwardBranch(t *testing.T) {
	b := asm.New("t")
	b.Label("loop")
	b.Beq(1, 0, "skip")
	b.Addi(2, 2, 1)
	b.Bne(2, 3, "loop") // backward branch inside would-be region
	b.Label("skip").Halt()
	prog := b.MustBuild()
	reg := AnalyzeRegion(prog, 0, DefaultAnalyzeConfig())
	if reg.Found {
		t.Error("region containing a backward branch must be rejected")
	}
}

func TestRegionRejectsIndirect(t *testing.T) {
	b := asm.New("t")
	b.Beq(1, 0, "skip")
	b.Jr(2)
	b.Label("skip").Halt()
	prog := b.MustBuild()
	if reg := AnalyzeRegion(prog, 0, DefaultAnalyzeConfig()); reg.Found {
		t.Error("region containing an indirect jump must be rejected")
	}
}

func TestRegionRejectsTooLong(t *testing.T) {
	// Then-path of 40 instructions exceeds MaxSize 32.
	b := asm.New("t")
	b.Beq(1, 0, "skip")
	for i := 0; i < 40; i++ {
		b.Addi(2, 2, 1)
	}
	b.Label("skip").Halt()
	prog := b.MustBuild()
	cfg := DefaultAnalyzeConfig()
	if reg := AnalyzeRegion(prog, 0, cfg); reg.Found {
		t.Error("region longer than MaxSize must be rejected")
	}
	// With a larger analysis bound (the Table 5 static classifier), the
	// region is found with size 41.
	cfg.MaxSize = 128
	reg := AnalyzeRegion(prog, 0, cfg)
	if !reg.Found || reg.Size != 41 {
		t.Errorf("large-bound analysis = %+v, want found with size 41", reg)
	}
}

func TestRegionNotForwardBranch(t *testing.T) {
	b := asm.New("t")
	b.Label("l").Addi(1, 1, 1)
	b.Bne(1, 2, "l")
	b.Halt()
	prog := b.MustBuild()
	if reg := AnalyzeRegion(prog, 1, DefaultAnalyzeConfig()); reg.Found {
		t.Error("backward branch has no forward region")
	}
	if reg := AnalyzeRegion(prog, 0, DefaultAnalyzeConfig()); reg.Found {
		t.Error("non-branch has no region")
	}
}

func TestRegionEdgeCapacity(t *testing.T) {
	// A deep ladder of branches, each adding a distinct pending target,
	// exceeds a 2-entry edge array.
	b := asm.New("t")
	b.Beq(1, 0, "t0")
	b.Beq(2, 0, "t1")
	b.Beq(3, 0, "t2")
	b.Beq(4, 0, "t3")
	b.Label("t0").Nop()
	b.Label("t1").Nop()
	b.Label("t2").Nop()
	b.Label("t3").Nop()
	b.Halt()
	prog := b.MustBuild()
	cfg := DefaultAnalyzeConfig()
	cfg.MaxEdges = 2
	if reg := AnalyzeRegion(prog, 0, cfg); reg.Found {
		t.Error("edge-capacity overflow must reject the region")
	}
	cfg.MaxEdges = 8
	if reg := AnalyzeRegion(prog, 0, cfg); !reg.Found {
		t.Error("with enough edges the ladder region is found")
	}
}

// TestRegionSizeIsLongestPath cross-checks the single-pass hardware
// algorithm against a brute-force DFS longest-path computation on randomly
// generated forward-branching DAGs.
func TestRegionSizeIsLongestPath(t *testing.T) {
	f := func(seed int64) bool {
		prog := randomForwardDAG(seed)
		reg := AnalyzeRegion(prog, 0, AnalyzeConfig{MaxSize: 256, MaxEdges: 64, MaxScan: 2048})
		if !reg.Found {
			return true // capacity/shape rejection is fine
		}
		want := bruteLongest(prog, 0, reg.ReconvPC)
		return reg.Size == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// randomForwardDAG builds a random program whose first instruction is a
// forward branch followed by a forward-branching region of ALU ops, forward
// conditional branches and forward jumps, ending in straight-line code.
func randomForwardDAG(seed int64) *isa.Program {
	rng := seed
	next := func(n int) int {
		rng = rng*6364136223846793005 + 1442695040888963407
		v := int((rng >> 33) % int64(n))
		if v < 0 {
			v += n
		}
		return v
	}
	const size = 24
	insts := make([]isa.Inst, 0, size+8)
	// Heading branch to a random forward target.
	headTarget := uint32(1 + next(size-1))
	insts = append(insts, isa.Inst{Op: isa.OpBne, Rs1: 1, Target: headTarget})
	for pc := 1; pc < size; pc++ {
		switch next(4) {
		case 0:
			if pc+2 < size {
				target := uint32(pc + 1 + next(size-pc-1) + 1)
				if target > size {
					target = size
				}
				insts = append(insts, isa.Inst{Op: isa.OpBne, Rs1: 2, Target: target})
				continue
			}
			insts = append(insts, isa.Inst{Op: isa.OpAddi, Rd: 3, Rs1: 3, Imm: 1})
		case 1:
			if pc+2 < size && next(3) == 0 {
				target := uint32(pc + 1 + next(size-pc-1) + 1)
				if target > size {
					target = size
				}
				insts = append(insts, isa.Inst{Op: isa.OpJump, Target: target})
				continue
			}
			insts = append(insts, isa.Inst{Op: isa.OpAddi, Rd: 4, Rs1: 4, Imm: 1})
		default:
			insts = append(insts, isa.Inst{Op: isa.OpAddi, Rd: 5, Rs1: 5, Imm: 1})
		}
	}
	// Tail: plenty of straight-line code so every path re-converges.
	for i := 0; i < 8; i++ {
		insts = append(insts, isa.Inst{Op: isa.OpAddi, Rd: 6, Rs1: 6, Imm: 1})
	}
	insts = append(insts, isa.Inst{Op: isa.OpHalt})
	return &isa.Program{Name: "rand", Insts: insts}
}

// bruteLongest computes the longest path (in instructions, inclusive of the
// branch at start) from start to reconv by memoised DFS.
func bruteLongest(prog *isa.Program, start, reconv uint32) int {
	memo := make(map[uint32]int)
	var dfs func(pc uint32) int
	dfs = func(pc uint32) int {
		if pc == reconv {
			return 0
		}
		if v, ok := memo[pc]; ok {
			return v
		}
		in := prog.Ref(pc)
		best := 0
		switch {
		case in.IsCondBranch():
			a := dfs(pc + 1)
			b := dfs(in.Target)
			if b > a {
				best = b
			} else {
				best = a
			}
		case in.Op == isa.OpJump:
			best = dfs(in.Target)
		default:
			best = dfs(pc + 1)
		}
		memo[pc] = best + 1
		return best + 1
	}
	return dfs(start)
}

func TestBIT(t *testing.T) {
	prog, brPC := figure7(t)
	bit := NewBIT(prog, DefaultBITConfig())
	reg, cycles := bit.Lookup(brPC)
	if !reg.Found || reg.Size != 10 {
		t.Fatalf("BIT lookup wrong: %+v", reg)
	}
	if cycles != reg.Scanned || cycles == 0 {
		t.Errorf("first lookup must cost the scan latency (%d), got %d", reg.Scanned, cycles)
	}
	// Second lookup hits.
	reg2, cycles2 := bit.Lookup(brPC)
	if cycles2 != 0 {
		t.Errorf("second lookup should hit (0 cycles), got %d", cycles2)
	}
	if reg2 != reg {
		t.Error("hit must return identical region info")
	}
	if bit.Lookups != 2 || bit.Misses() != 1 {
		t.Errorf("stats: lookups=%d misses=%d, want 2, 1", bit.Lookups, bit.Misses())
	}
}

func TestBITNonEmbeddable(t *testing.T) {
	b := asm.New("t")
	b.Beq(1, 0, "skip")
	b.Call("fn")
	b.Label("skip").Halt()
	b.Label("fn").Ret()
	prog := b.MustBuild()
	bit := NewBIT(prog, DefaultBITConfig())
	reg, _ := bit.Lookup(0)
	if reg.Found {
		t.Error("non-embeddable branches must be cached as not-found")
	}
}

func TestFindRET(t *testing.T) {
	views := []TraceView{
		{StartPC: 100},                  // 0: mispredicted trace
		{StartPC: 200},                  // 1
		{StartPC: 300, EndsInRet: true}, // 2
		{StartPC: 400},                  // 3: first CI trace
		{StartPC: 500},                  // 4
	}
	ci, ok := FindRET(views, 1)
	if !ok || ci != 3 {
		t.Errorf("FindRET = (%d,%v), want (3,true)", ci, ok)
	}
	// A return in the last trace has no subsequent trace: not usable.
	views2 := []TraceView{{StartPC: 1}, {StartPC: 2, EndsInRet: true}}
	if _, ok := FindRET(views2, 1); ok {
		t.Error("return at the window tail must not be usable")
	}
	if _, ok := FindRET(nil, 0); ok {
		t.Error("empty window has no CI point")
	}
}

func TestFindMLBRET(t *testing.T) {
	views := []TraceView{
		{StartPC: 100},
		{StartPC: 200, EndsInRet: true},
		{StartPC: 57}, // loop exit (not-taken target)
		{StartPC: 400},
	}
	// Backward branch: MLB finds the trace starting at the not-taken target.
	ci, ok := FindMLBRET(views, 1, true, 57)
	if !ok || ci != 2 {
		t.Errorf("MLB = (%d,%v), want (2,true)", ci, ok)
	}
	// Not a backward branch: falls back to RET.
	ci, ok = FindMLBRET(views, 1, false, 57)
	if !ok || ci != 2 {
		t.Errorf("RET fallback = (%d,%v), want (2,true)", ci, ok)
	}
	// Backward branch with no matching loop exit: RET fallback.
	ci, ok = FindMLBRET(views, 1, true, 999)
	if !ok || ci != 2 {
		t.Errorf("MLB->RET fallback = (%d,%v), want (2,true)", ci, ok)
	}
}
