package tracep_test

import (
	"context"
	"fmt"
	"log"

	"tracep"
)

// A session runs one program under one model: write the program with the
// Builder, pick a model with options, and Run. The program is the
// canonical control independence scenario, a loop around a data-dependent
// hammock. The hammock's branch tests a pseudo-random bit that the program
// computes, so the predictor mispredicts it often. The work after the
// hammock is control independent: the base model squashes it on every
// misprediction, while FG+MLB-RET keeps it and re-executes only what
// depends on the branch. Retired-instruction counts are architectural, so
// both models retire the same number.
func ExampleNew() {
	b := tracep.NewProgram("hammock")
	b.Li(1, 987654321) // LCG state
	b.Li(2, 1103515245)
	b.Addi(4, 0, 0)  // i
	b.Li(5, 5000)    // limit
	b.Addi(10, 0, 0) // accumulator
	b.Label("loop")
	b.Mul(1, 1, 2)
	b.Addi(1, 1, 12345)
	b.Shri(6, 1, 17)
	b.Andi(6, 6, 3)
	b.Beq(6, 0, "else") // ~25% taken, data-dependent
	b.Addi(10, 10, 3)
	b.Jump("join")
	b.Label("else")
	b.Addi(10, 10, 5)
	b.Label("join")
	// Control independent work after the hammock.
	b.Add(10, 10, 4)
	b.Shri(7, 10, 5)
	b.Xor(10, 10, 7)
	b.Addi(4, 4, 1)
	b.Blt(4, 5, "loop")
	b.Store(10, 0, 100)
	b.Halt()
	prog, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}

	var ipc []float64
	for _, model := range []tracep.Model{tracep.ModelBase, tracep.ModelFGMLBRET} {
		res, err := tracep.New(prog, tracep.WithModel(model)).Run(context.Background())
		if err != nil {
			log.Fatal(err)
		}
		s := res.Stats
		fmt.Printf("%s under %s: retired %d instructions, IPC %.2f, branch misp %.1f%%\n",
			res.Benchmark, res.Model, s.RetiredInsts, s.IPC(), 100*s.BranchMispRate())
		fmt.Printf("  recoveries %d: fgci %d, cgci %d, full squash %d\n",
			s.Recoveries, s.FGCIRecoveries, s.CGCIRecoveries, s.BaseRecoveries)
		ipc = append(ipc, s.IPC())
	}
	fmt.Printf("control independence speedup: %+.1f%%\n", 100*(ipc[1]-ipc[0])/ipc[0])
	// Output:
	// hammock under base: retired 58797 instructions, IPC 1.22, branch misp 15.4%
	//   recoveries 1546: fgci 0, cgci 0, full squash 1546
	// hammock under FG+MLB-RET: retired 58797 instructions, IPC 1.57, branch misp 14.9%
	//   recoveries 1492: fgci 1486, cgci 5, full squash 1
	// control independence speedup: +29.0%
}

// The paper's motivating loop (§4.2, Figure 8b) has a small body and an
// unpredictable iteration count. When the loop branch mispredicts, the base
// model squashes every trace after it. MLB-RET's MLB heuristic instead
// finds the trace at the branch's not-taken target, the loop exit, already
// resident in the window. It keeps that trace and all work after it,
// inserts the corrected traces before it, and re-executes only what reads
// a changed value: coarse-grain control independence.
func Example_loopRecovery() {
	b := tracep.NewProgram("loop_recovery")
	b.Li(1, 5577006791947779410) // LCG state
	b.Li(2, 1103515245)
	b.Addi(4, 0, 0)  // outer index
	b.Li(5, 4000)    // outer limit
	b.Addi(10, 0, 0) // accumulators
	b.Addi(11, 0, 0)
	b.Label("outer")
	b.Mul(1, 1, 2)
	b.Addi(1, 1, 12345)
	b.Shri(6, 1, 13)
	b.Andi(6, 6, 3)
	b.Addi(6, 6, 1) // 1..4 inner iterations, data dependent
	b.Addi(7, 0, 0)
	b.Label("inner")
	b.Add(10, 10, 7)
	b.Addi(7, 7, 1)
	b.Blt(7, 6, "inner") // the unpredictable loop branch
	// Control independent post-loop work: what CGCI preserves.
	b.Add(11, 11, 10)
	b.Shri(12, 11, 7)
	b.Xor(11, 11, 12)
	b.Addi(11, 11, 5)
	b.Mul(12, 11, 2)
	b.Add(11, 11, 12)
	b.Addi(4, 4, 1)
	b.Blt(4, 5, "outer")
	b.Store(11, 0, 200)
	b.Halt()
	prog, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}

	var ipc []float64
	for _, model := range []tracep.Model{tracep.ModelBase, tracep.ModelMLBRET} {
		res, err := tracep.New(prog, tracep.WithModel(model)).Run(context.Background())
		if err != nil {
			log.Fatal(err)
		}
		s := res.Stats
		fmt.Printf("%s: IPC %.2f in %d cycles\n", res.Model, s.IPC(), s.Cycles)
		fmt.Printf("  recoveries %d: %d coarse-grain (CI preserved), %d full squashes\n",
			s.Recoveries, s.CGCIRecoveries, s.BaseRecoveries)
		fmt.Printf("  re-convergences %d, traces re-dispatched %d, instructions reissued %d\n",
			s.Reconvergences, s.RedispatchedTraces, s.RedispatchReissues)
		fmt.Printf("  squashed traces %d\n", s.SquashedTraces)
		ipc = append(ipc, s.IPC())
	}
	fmt.Printf("MLB-RET speedup over base: %+.1f%%\n", 100*(ipc[1]-ipc[0])/ipc[0])
	// Output:
	// base: IPC 1.16 in 74032 cycles
	//   recoveries 4341: 0 coarse-grain (CI preserved), 4341 full squashes
	//   re-convergences 0, traces re-dispatched 0, instructions reissued 0
	//   squashed traces 36618
	// MLB-RET: IPC 1.34 in 64322 cycles
	//   recoveries 4039: 3206 coarse-grain (CI preserved), 833 full squashes
	//   re-convergences 2585, traces re-dispatched 22678, instructions reissued 4711
	//   squashed traces 13514
	// MLB-RET speedup over base: +15.1%
}

// The paper's §6.1 prices trace selection on its own, before any control
// independence mechanism runs. The ntb constraint ends a trace at a
// predicted not-taken backward branch, which exposes loop exits to MLB. The
// fg constraint pads embeddable forward-branching regions to their longest
// path, which exposes FGCI. Both shorten traces, so each trace fetched
// delivers fewer instructions. On jpeg both also cut trace mispredictions
// by more than half, so IPC rises with no control independence at all. The
// four selection models of Table 4 run concurrently through a Sweep.
func Example_selectionStudy() {
	jpeg, err := tracep.BenchmarkByName("jpeg")
	if err != nil {
		log.Fatal(err)
	}
	sw := tracep.Sweep{
		Benchmarks:  []tracep.Benchmark{jpeg},
		Models:      tracep.SelectionModels(),
		TargetInsts: 30_000,
	}
	rs, err := sw.Run(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	if err := rs.Err(); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%-12s %5s %10s %14s %16s\n", "model", "IPC", "trace len", "trace misp/1k", "trace $ miss/1k")
	for _, model := range rs.Models() {
		s, _ := rs.Get(jpeg.Name, model)
		fmt.Printf("%-12s %5.2f %10.1f %14.2f %16.2f\n",
			model, s.IPC(), s.AvgTraceLen(), s.TraceMispPer1000(), s.TCMissPer1000())
	}
	base, _ := rs.Get(jpeg.Name, tracep.ModelBase.Name)
	ntb, _ := rs.Get(jpeg.Name, tracep.ModelBaseNTB.Name)
	fg, _ := rs.Get(jpeg.Name, tracep.ModelBaseFG.Name)
	fmt.Println("ntb and fg both shorten traces:",
		ntb.AvgTraceLen() < base.AvgTraceLen() && fg.AvgTraceLen() < base.AvgTraceLen())
	fmt.Println("and both halve trace mispredictions:",
		2*ntb.TraceMispPer1000() < base.TraceMispPer1000() && 2*fg.TraceMispPer1000() < base.TraceMispPer1000())
	// Output:
	// model          IPC  trace len  trace misp/1k  trace $ miss/1k
	// base          3.02       32.0          16.50             5.66
	// base(ntb)     3.31       28.5           7.33             8.03
	// base(fg)      3.29       27.3           7.43             0.74
	// base(fg,ntb)  3.33       27.3           8.00             1.24
	// ntb and fg both shorten traces: true
	// and both halve trace mispredictions: true
}

// Stream delivers each cell of the (benchmark × model) grid as it
// completes — the same channel the tracepd server fans out to network
// clients. Completion order varies with scheduling, so collect into a
// ResultSet (or use Sweep.Run) for deterministic ordering.
func ExampleSweep_Stream() {
	compress, err := tracep.BenchmarkByName("compress")
	if err != nil {
		log.Fatal(err)
	}
	sw := tracep.Sweep{
		Benchmarks:  []tracep.Benchmark{compress},
		Models:      []tracep.Model{tracep.ModelBase, tracep.ModelFG},
		TargetInsts: 5_000,
	}

	cells := 0
	for res := range sw.Stream(context.Background()) {
		if err := res.Err(); err != nil {
			log.Fatal(err)
		}
		cells++ // a dashboard would render res.Benchmark/res.Model here
	}
	fmt.Printf("streamed %d cells\n", cells)
	// Output:
	// streamed 2 cells
}

// Seeds turns a sweep into a three-axis grid: every (benchmark, model)
// cell runs once per seed, each replicate under different initial
// predictor state, and the ResultSet aggregates the replicates into
// mean±95% CI distributions (Cell). Lookup/Get keep their point semantics
// — they return the first replicate — so single-seed callers are
// unaffected.
func ExampleSweep_seeds() {
	mixed, err := tracep.ScenarioByName("mixed")
	if err != nil {
		log.Fatal(err)
	}
	sw := tracep.Sweep{
		Benchmarks:  []tracep.Benchmark{mixed.Benchmark(1)},
		Models:      []tracep.Model{tracep.ModelBase},
		TargetInsts: 20_000,
		Seeds:       []int64{1, 2, 3},
	}
	rs, err := sw.Run(context.Background())
	if err != nil {
		log.Fatal(err)
	}

	cell, _ := rs.Cell("mixed-1", "base")
	fmt.Printf("seeds %v ran %d replicates\n", rs.Seeds(), cell.N)
	fmt.Println("IPC interval has width:", cell.IPC.CIHalf > 0)
	// Output:
	// seeds [1 2 3] ran 3 replicates
	// IPC interval has width: true
}

// Diff gates a fresh ResultSet against a saved baseline: any IPC drop,
// trace-misprediction rise, or recovery rise beyond Tolerances regresses.
// ResultSets round-trip through JSON, so baselines are just saved files.
func ExampleResultSet_Diff() {
	var baseline, current tracep.ResultSet
	if err := baseline.UnmarshalJSON([]byte(`{
		"benchmarks": ["compress"], "models": ["base"],
		"results": [{"benchmark": "compress", "model": "base",
		             "stats": {"Cycles": 1000, "RetiredInsts": 2000}}]}`)); err != nil {
		log.Fatal(err)
	}
	if err := current.UnmarshalJSON([]byte(`{
		"benchmarks": ["compress"], "models": ["base"],
		"results": [{"benchmark": "compress", "model": "base",
		             "stats": {"Cycles": 1100, "RetiredInsts": 2000}}]}`)); err != nil {
		log.Fatal(err)
	}

	diff := current.Diff(&baseline, tracep.Tolerances{IPCPct: 2})
	for _, cell := range diff.Cells {
		fmt.Printf("%s/%s %s: IPC %.2f -> %.2f\n",
			cell.Benchmark, cell.Model, cell.Kind, cell.BaselineIPC, cell.CurrentIPC)
	}
	fmt.Println("gate passed:", diff.OK())
	// Output:
	// compress/base regression: IPC 2.00 -> 1.82
	// gate passed: false
}

// A warm-up fast-forwards the first instructions of a program functionally
// — warming caches and predictors along the committed path — so the
// measured region starts from steady state, like the paper's methodology.
// The checkpoint is model-independent: capture it once and fork restored
// sessions under any model. Each restore deep-clones the snapshot, so the
// forks are independent.
func ExampleSimulator_withWarmup() {
	compress, err := tracep.BenchmarkByName("compress")
	if err != nil {
		log.Fatal(err)
	}
	const targetInsts, warm = 20_000, 5_000

	// One capture…
	snap, err := tracep.NewBenchmark(compress, targetInsts).CaptureSnapshot(context.Background(), warm)
	if err != nil {
		log.Fatal(err)
	}
	// …forks any number of measured runs.
	for _, m := range []tracep.Model{tracep.ModelBase, tracep.ModelFG} {
		res, err := tracep.NewFromSnapshot(snap, tracep.WithModel(m)).Run(context.Background())
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s: fast-forwarded %d, measured %d instructions\n", res.Model, res.Warmup(), res.Stats.RetiredInsts)
	}
	// Output:
	// base: fast-forwarded 5000, measured 15528 instructions
	// FG: fast-forwarded 5000, measured 15528 instructions
}
