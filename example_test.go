package tracep_test

import (
	"context"
	"fmt"
	"log"

	"tracep"
)

// A session runs one program under one model: write the program with the
// Builder, pick a model with options, and Run. Retired-instruction counts
// are architectural, so they are stable across models and machines.
func ExampleNew() {
	b := tracep.NewProgram("count")
	b.Li(1, 0)      // i = 0
	b.Li(2, 100)    // limit
	b.Label("loop") //
	b.Addi(1, 1, 1) // i++
	b.Blt(1, 2, "loop")
	b.Halt()
	prog, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}

	res, err := tracep.New(prog, tracep.WithModel(tracep.ModelFGMLBRET)).Run(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s under %s retired %d instructions\n",
		res.Benchmark, res.Model, res.Stats.RetiredInsts)
	// Output:
	// count under FG+MLB-RET retired 203 instructions
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
