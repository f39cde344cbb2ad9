package proc

import (
	"testing"

	"tracep/internal/asm"
	"tracep/internal/core"
	"tracep/internal/emu"
	"tracep/internal/isa"
)

// testConfig returns a fully verified configuration with a small watchdog
// for fast failure in tests.
func testConfig() Config {
	cfg := DefaultConfig()
	cfg.WatchdogCycles = 20000
	return cfg
}

// runProgram simulates prog to completion under model, requiring oracle
// verification to pass, and returns the stats.
func runProgram(t *testing.T, prog *isa.Program, model Model) *Stats {
	t.Helper()
	p := New(prog, model, testConfig())
	stats, err := p.Run(5_000_000)
	if err != nil {
		t.Fatalf("%s/%s: %v", prog.Name, model.Name, err)
	}
	if !p.Halted() {
		t.Fatalf("%s/%s: did not halt (retired %d)", prog.Name, model.Name, stats.RetiredInsts)
	}
	return stats
}

// allModels is every experimental configuration of §6.
var allModels = []Model{
	ModelBase, ModelBaseNTB, ModelBaseFG, ModelBaseFGNTB,
	ModelRET, ModelMLBRET, ModelFG, ModelFGMLBRET,
}

func TestStraightLine(t *testing.T) {
	b := asm.New("straight")
	b.Addi(1, 0, 5).Addi(2, 0, 7).Add(3, 1, 2).Mul(4, 3, 3).Halt()
	prog := b.MustBuild()
	stats := runProgram(t, prog, ModelBase)
	if stats.RetiredInsts != 5 {
		t.Errorf("retired %d, want 5", stats.RetiredInsts)
	}
}

func TestLongStraightLine(t *testing.T) {
	// Spans many traces; exercises live-in/live-out renaming across PEs.
	b := asm.New("long")
	b.Addi(1, 0, 0)
	for i := 0; i < 200; i++ {
		b.Addi(1, 1, 1)
	}
	b.Halt()
	prog := b.MustBuild()
	stats := runProgram(t, prog, ModelBase)
	if stats.RetiredInsts != 202 {
		t.Errorf("retired %d, want 202", stats.RetiredInsts)
	}
	if stats.RetiredTraces < 6 {
		t.Errorf("retired %d traces, want >= 6", stats.RetiredTraces)
	}
}

func TestCountedLoop(t *testing.T) {
	b := asm.New("loop")
	b.Addi(1, 0, 0).Addi(2, 0, 1).Addi(3, 0, 100)
	b.Label("loop").Add(1, 1, 2).Addi(2, 2, 1).Bge(3, 2, "loop")
	b.Store(1, 0, 500)
	b.Halt()
	prog := b.MustBuild()
	for _, m := range allModels {
		stats := runProgram(t, prog, m)
		if stats.RetiredInsts == 0 {
			t.Errorf("%s: nothing retired", m.Name)
		}
	}
}

func TestCallsAndReturns(t *testing.T) {
	b := asm.New("calls")
	b.Li(29, 1000)
	b.Addi(1, 0, 0)
	b.Addi(4, 0, 0) // loop counter
	b.Label("loop")
	b.Call("inc")
	b.Call("inc")
	b.Addi(4, 4, 1)
	b.Slti(5, 4, 20)
	b.Bne(5, 0, "loop")
	b.Halt()
	b.Label("inc").Addi(1, 1, 1).Ret()
	prog := b.MustBuild()
	for _, m := range allModels {
		runProgram(t, prog, m)
	}
}

func TestMemoryDependences(t *testing.T) {
	// Store-to-load dependences within and across traces.
	b := asm.New("mem")
	b.Li(10, 100)
	b.Addi(1, 0, 7)
	b.Store(1, 10, 0) // mem[100] = 7
	b.Load(2, 10, 0)  // r2 = 7
	b.Addi(2, 2, 1)   // 8
	b.Store(2, 10, 1) // mem[101] = 8
	b.Load(3, 10, 1)  // r3 = 8
	b.Add(4, 2, 3)    // 16
	b.Store(4, 10, 2)
	// Loop writing and reading back.
	b.Addi(5, 0, 0)
	b.Label("loop")
	b.Add(6, 10, 5)
	b.Store(5, 6, 10)
	b.Load(7, 6, 10)
	b.Add(8, 8, 7)
	b.Addi(5, 5, 1)
	b.Slti(9, 5, 30)
	b.Bne(9, 0, "loop")
	b.Halt()
	prog := b.MustBuild()
	for _, m := range allModels {
		runProgram(t, prog, m)
	}
}

// lcgProgram builds a program with data-dependent, hard-to-predict branches
// driven by an in-program linear congruential generator: the canonical
// misprediction workload. It sums different values depending on bit tests of
// the LCG state.
func lcgProgram(iters int64) *isa.Program {
	b := asm.New("lcg")
	b.Li(1, 12345) // seed
	b.Li(2, 1103515245)
	b.Li(3, 12345)
	b.Addi(4, 0, 0) // i
	b.Li(5, iters)  // limit
	b.Addi(6, 0, 0) // acc
	b.Label("loop")
	b.Mul(1, 1, 2)
	b.Add(1, 1, 3)
	b.Shri(7, 1, 16)
	b.Andi(7, 7, 1) // pseudo-random bit
	b.Beq(7, 0, "else")
	b.Addi(6, 6, 3)
	b.Jump("join")
	b.Label("else")
	b.Addi(6, 6, 5)
	b.Label("join")
	b.Addi(4, 4, 1)
	b.Blt(4, 5, "loop")
	b.Store(6, 0, 900)
	b.Halt()
	return b.MustBuild()
}

func TestUnpredictableHammock(t *testing.T) {
	prog := lcgProgram(300)
	for _, m := range allModels {
		stats := runProgram(t, prog, m)
		if stats.Recoveries == 0 {
			t.Errorf("%s: expected mispredictions on an LCG-driven hammock", m.Name)
		}
	}
}

func TestFGCIRecoveriesHappen(t *testing.T) {
	prog := lcgProgram(400)
	stats := runProgram(t, prog, ModelFG)
	if stats.FGCIRecoveries == 0 {
		t.Error("FG model should recover at least one misprediction via FGCI")
	}
}

func TestFinalMemoryMatchesOracle(t *testing.T) {
	prog := lcgProgram(200)
	p := New(prog, ModelFGMLBRET, testConfig())
	if _, err := p.Run(0); err != nil {
		t.Fatal(err)
	}
	// Cross-check final memory against an independent emulator run.
	e := emu.New(prog)
	e.Run(1_000_000)
	if got, want := p.mem.Read(900), e.Mem.Read(900); got != want {
		t.Errorf("mem[900] = %d, oracle %d", got, want)
	}
}

// unpredictableLoop builds nested loops where the inner trip count is
// data-dependent (1-4 iterations): the canonical backward-branch
// misprediction workload that MLB targets.
func unpredictableLoop(outer int64) *isa.Program {
	b := asm.New("uloop")
	b.Li(1, 99991) // seed
	b.Addi(2, 0, 0)
	b.Li(3, outer)
	b.Addi(8, 0, 0) // acc
	b.Label("outer")
	// advance LCG
	b.Li(4, 1103515245)
	b.Mul(1, 1, 4)
	b.Addi(1, 1, 12345)
	b.Shri(5, 1, 13)
	b.Andi(5, 5, 3) // 0..3
	b.Addi(5, 5, 1) // 1..4 inner iterations
	b.Addi(6, 0, 0)
	b.Label("inner")
	b.Add(8, 8, 6)
	b.Addi(6, 6, 1)
	b.Blt(6, 5, "inner") // unpredictable backward branch
	// post-loop control independent work
	b.Addi(8, 8, 10)
	b.Addi(8, 8, 10)
	b.Addi(2, 2, 1)
	b.Blt(2, 3, "outer")
	b.Store(8, 0, 901)
	b.Halt()
	return b.MustBuild()
}

func TestUnpredictableLoopAllModels(t *testing.T) {
	prog := unpredictableLoop(120)
	for _, m := range allModels {
		runProgram(t, prog, m)
	}
}

func TestCGCIRecoveriesHappen(t *testing.T) {
	prog := unpredictableLoop(200)
	stats := runProgram(t, prog, ModelMLBRET)
	if stats.CGCIRecoveries == 0 {
		t.Error("MLB-RET should recover some loop-branch mispredictions via CGCI")
	}
}

func TestIndirectJumpTable(t *testing.T) {
	// Data-dependent indirect jumps (a switch): exercises indirect
	// misprediction recovery and trace termination at indirects.
	b := asm.New("switch")
	b.Li(1, 777)
	b.Addi(2, 0, 0)
	b.Li(3, 60)
	b.Addi(9, 0, 0)
	// Jump table at data address 100: three case handlers.
	b.Label("loop")
	b.Li(4, 1103515245)
	b.Mul(1, 1, 4)
	b.Addi(1, 1, 12345)
	b.Shri(5, 1, 11)
	b.Andi(5, 5, 3) // case 0..3
	b.Addi(6, 0, 100)
	b.Add(6, 6, 5)
	b.Load(7, 6, 0) // handler address
	b.Jr(7)
	b.Label("case0").Addi(9, 9, 1).Jump("next")
	b.Label("case1").Addi(9, 9, 2).Jump("next")
	b.Label("case2").Addi(9, 9, 3).Jump("next")
	b.Label("case3").Addi(9, 9, 4)
	b.Label("next")
	b.Addi(2, 2, 1)
	b.Blt(2, 3, "loop")
	b.Store(9, 0, 902)
	b.Halt()
	prog := b.MustBuild()
	// Fill the jump table with the case handler addresses.
	labels := map[string]uint32{}
	for pc, in := range prog.Insts {
		_ = pc
		_ = in
	}
	// Resolve handler PCs via a second builder pass: rebuild with LabelAddr.
	b2 := asm.New("switch")
	b2.Li(1, 777)
	b2.Addi(2, 0, 0)
	b2.Li(3, 60)
	b2.Addi(9, 0, 0)
	b2.Label("loop")
	b2.Li(4, 1103515245)
	b2.Mul(1, 1, 4)
	b2.Addi(1, 1, 12345)
	b2.Shri(5, 1, 11)
	b2.Andi(5, 5, 3)
	b2.Addi(6, 0, 100)
	b2.Add(6, 6, 5)
	b2.Load(7, 6, 0)
	b2.Jr(7)
	b2.Label("case0").Addi(9, 9, 1).Jump("next")
	b2.Label("case1").Addi(9, 9, 2).Jump("next")
	b2.Label("case2").Addi(9, 9, 3).Jump("next")
	b2.Label("case3").Addi(9, 9, 4)
	b2.Label("next")
	b2.Addi(2, 2, 1)
	b2.Blt(2, 3, "loop")
	b2.Store(9, 0, 902)
	b2.Halt()
	prog = b2.MustBuild()
	_ = labels
	// Find the case labels by scanning for the four Addi(9,9,k) handlers.
	var cases []int64
	for pc, in := range prog.Insts {
		if in.Op == isa.OpAddi && in.Rd == 9 && in.Rs1 == 9 && in.Imm >= 1 && in.Imm <= 4 {
			cases = append(cases, int64(pc))
		}
	}
	if len(cases) != 4 {
		t.Fatalf("found %d case handlers, want 4", len(cases))
	}
	for i, pc := range cases {
		prog.Data[uint32(100+i)] = pc
	}
	for _, m := range allModels {
		runProgram(t, prog, m)
	}
}

func TestRecursion(t *testing.T) {
	// Recursive factorial with a memory stack: deep call/return chains.
	b := asm.New("fact")
	b.Li(29, 2000)
	b.Addi(1, 0, 10)
	b.Call("fact")
	b.Store(2, 0, 903)
	b.Halt()
	b.Label("fact")
	b.Slti(3, 1, 2)
	b.Beq(3, 0, "recurse")
	b.Addi(2, 0, 1)
	b.Ret()
	b.Label("recurse")
	b.Store(31, 29, 0)
	b.Store(1, 29, 1)
	b.Addi(29, 29, 2)
	b.Addi(1, 1, -1)
	b.Call("fact")
	b.Addi(29, 29, -2)
	b.Load(1, 29, 1)
	b.Load(31, 29, 0)
	b.Mul(2, 2, 1)
	b.Ret()
	prog := b.MustBuild()
	for _, m := range allModels {
		runProgram(t, prog, m)
	}
	// Validate the architectural result end-to-end.
	p := New(prog, ModelRET, testConfig())
	if _, err := p.Run(0); err != nil {
		t.Fatal(err)
	}
	if got := p.mem.Read(903); got != 3628800 {
		t.Errorf("10! = %d, want 3628800", got)
	}
}

func TestStatsSanity(t *testing.T) {
	prog := lcgProgram(300)
	stats := runProgram(t, prog, ModelBase)
	if stats.IPC() <= 0 {
		t.Error("IPC must be positive")
	}
	if stats.AvgTraceLen() <= 0 || stats.AvgTraceLen() > 32 {
		t.Errorf("avg trace length %v out of range", stats.AvgTraceLen())
	}
	if stats.CondBranches() == 0 {
		t.Error("no branches counted")
	}
	if stats.DispatchedTraces < stats.RetiredTraces {
		t.Error("dispatched < retired")
	}
}

// TestRunReturnsOwnedStats: the Stats a run returns belong to the caller. A
// pointer into the engine would keep the whole processor reachable for as
// long as a result is held, and would change under further stepping.
func TestRunReturnsOwnedStats(t *testing.T) {
	p := New(lcgProgram(300), ModelFGMLBRET, testConfig())
	stats, err := p.Run(2000)
	if err != nil {
		t.Fatal(err)
	}
	want := *stats
	if stats == &p.Stats {
		t.Fatal("Run returned a pointer into the processor")
	}
	p.Stats.RetiredInsts += 1000
	p.Stats.BranchClasses[core.ClassBackward].Dynamic++
	for i := 0; i < 500 && !p.Halted(); i++ {
		p.Step()
	}
	if p.Stats.Cycles == want.Cycles && p.cycle == int64(want.Cycles) {
		t.Fatal("the processor did not advance; the test checks nothing")
	}
	if *stats != want {
		t.Errorf("returned Stats changed after the run:\n got %+v\nwant %+v", *stats, want)
	}
}
