package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"time"

	"tracep"
	"tracep/internal/emu"
)

// slots is the number of simulations each workload runs at once: the
// Sweep's Parallelism and its Gate, equal to the CPUs of the host the
// benchmark was sized on.
const slots = 2

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	why  string
	// setup builds the harness for a seed; its cost counts in setup_s.
	// workDir is a private scratch directory (service journals).
	setup func(ctx context.Context, seed int64, workDir string) (harness, error)
}

// harness runs repetitions of one workload.
type harness interface {
	// rep runs one untimed-by-itself repetition; the caller times it.
	rep(ctx context.Context) repOut
	// traced runs one repetition through the layer calls, recording spans
	// and per-layer measurements into tr.
	traced(ctx context.Context, tr *tracer) repOut
	// counts returns the deterministic modelled counts of one repetition.
	counts() map[string]uint64
	close()
}

// repOut is what one repetition reports. verify runs after the timer has
// stopped: it returns the repetition's canonical output bytes and the
// number of operations whose output was wrong.
type repOut struct {
	insts     uint64    // measured-region retired instructions
	cycles    uint64    // simulated cycles
	cells     int       // cells simulated
	first     float64   // seconds from a sweep's submission to its first result
	lat       []float64 // per-operation submit-to-result latencies, ms
	writes    []float64 // service write latencies, ms
	reads     []float64 // service read latencies, ms
	attempted int
	verify    func() (canon []byte, failed int, why []string)
}

// workloads is the benchmark's workload table, in the order -workload all
// runs them.
var workloads = []workload{
	{
		name: "paper-grid",
		why:  "the paper's 8x8 benchmark-by-model grid, cold: cycle-loop speed dominates, per-cell construction barely shows",
		setup: func(ctx context.Context, seed int64, _ string) (harness, error) {
			return newSweepHarness(paperGrid(seed)), nil
		},
	},
	{
		name: "scenario-seeds",
		why:  "short mispredict-heavy scenario cells over a seed axis: per-cell construction, allocation and recovery show",
		setup: func(ctx context.Context, seed int64, _ string) (harness, error) {
			h := newSweepHarness(scenarioSeeds(seed))
			h.aggregate = true
			return h, nil
		},
	},
	{
		name: "warm-fork",
		why:  "each row captures a long functional warm-up snapshot and forks 8 short cells from it: snapshot capture and restore show",
		setup: func(ctx context.Context, seed int64, _ string) (harness, error) {
			sw, err := warmFork(ctx, seed)
			if err != nil {
				return nil, err
			}
			return newSweepHarness(sw), nil
		},
	},
	{
		name: "service",
		why:  "two closed-loop clients write and read sweeps through a durable tracepd over loopback: HTTP, JSON and journal show",
		setup: func(ctx context.Context, seed int64, workDir string) (harness, error) {
			return newServiceHarness(ctx, serviceTraffic, seed, workDir)
		},
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// Run lengths are fixed here, the same on every commit; each sizes one
// repetition to roughly a second on a 2-CPU host.
const (
	paperGridInsts     = 60_000
	scenarioInsts      = 10_000
	scenarioPrograms   = 2
	scenarioReplicates = 2
	warmForkTarget     = 3_000_000
	warmForkMeasured   = 20_000
)

// paperGrid is the paper's §6 grid: every suite benchmark under every model,
// from a cold start.
func paperGrid(seed int64) *tracep.Sweep {
	return &tracep.Sweep{
		Benchmarks:  tracep.Benchmarks(),
		Models:      tracep.Models(),
		TargetInsts: paperGridInsts,
		Seed:        seed,
	}
}

// scenarioSeeds sweeps every scenario family, generated at program seeds
// seed, seed+1, ..., across a predictor-seed axis of replicates. Several
// programs per family keep the workload's cost steady from one seed to the
// next.
func scenarioSeeds(seed int64) *tracep.Sweep {
	var benches []tracep.Benchmark
	for _, sc := range tracep.Scenarios() {
		for p := int64(0); p < scenarioPrograms; p++ {
			benches = append(benches, sc.Benchmark(seed+p))
		}
	}
	seeds := make([]int64, scenarioReplicates)
	for i := range seeds {
		seeds[i] = seed + int64(i)
	}
	return &tracep.Sweep{
		Benchmarks:  benches,
		Models:      tracep.Models(),
		TargetInsts: scenarioInsts,
		Seeds:       seeds,
	}
}

// warmFork sizes every suite benchmark to warmForkTarget instructions and
// warms each row up to warmForkMeasured instructions before its halt, so
// every cell measures the same short region after a long shared warm-up.
func warmFork(ctx context.Context, seed int64) (*tracep.Sweep, error) {
	sw := &tracep.Sweep{
		Benchmarks:  tracep.Benchmarks(),
		Models:      tracep.Models(),
		TargetInsts: warmForkTarget,
		Seed:        seed,
	}
	return sw, warmUpTo(ctx, sw, warmForkMeasured)
}

// warmUpTo sets each row's warm-up to end measured instructions before the
// program halts. The exact program lengths come from running each program
// to halt on the functional emulator.
func warmUpTo(ctx context.Context, sw *tracep.Sweep, measured uint64) error {
	sw.WarmupFor = make(map[string]uint64, len(sw.Benchmarks))
	for _, bm := range sw.Benchmarks {
		if err := ctx.Err(); err != nil {
			return err
		}
		e := emu.New(bm.Build(bm.ScaleFor(sw.TargetInsts)))
		n := e.Run(1 << 40)
		if !e.Halted || n <= 2*measured {
			return fmt.Errorf("%s ran %d instructions, want a halt past %d", bm.Name, n, 2*measured)
		}
		sw.WarmupFor[bm.Name] = n - measured
	}
	return nil
}

// sweepHarness runs one in-process tracep.Sweep per repetition.
type sweepHarness struct {
	sw *tracep.Sweep
	// aggregate also folds every cell's seed replicates into CellStats.
	aggregate bool

	// ref holds the first repetition's per-cell JSON and aggregate bytes,
	// which every later repetition must reproduce exactly.
	ref    [][]byte
	refAgg []byte
	// counted holds the modelled counts of the last checked repetition. The
	// harness keeps no ResultSet between repetitions: a cell's Stats keeps
	// its whole processor reachable.
	counted map[string]uint64
}

func newSweepHarness(sw *tracep.Sweep) *sweepHarness {
	sw.Parallelism = slots
	sw.Gate = tracep.NewGate(slots)
	return &sweepHarness{sw: sw}
}

func (h *sweepHarness) grid() *tracep.ResultSet {
	benches := make([]string, len(h.sw.Benchmarks))
	for i, bm := range h.sw.Benchmarks {
		benches[i] = bm.Name
	}
	models := make([]string, len(h.sw.Models))
	for i, m := range h.sw.Models {
		models[i] = m.Name
	}
	seeds := h.sw.Seeds
	if len(seeds) == 0 {
		seeds = []int64{h.sw.Seed}
	}
	return tracep.NewResultSetGrid(benches, models, seeds)
}

func (h *sweepHarness) cells() int {
	n := len(h.sw.Seeds)
	if n == 0 {
		n = 1
	}
	return len(h.sw.Benchmarks) * len(h.sw.Models) * n
}

func (h *sweepHarness) rep(ctx context.Context) repOut {
	return h.run(func(rs *tracep.ResultSet, on func(*tracep.Result)) {
		for res := range h.sw.Stream(ctx) {
			rs.Add(res)
			on(res)
		}
	}, nil)
}

func (h *sweepHarness) traced(ctx context.Context, tr *tracer) repOut {
	return h.run(func(rs *tracep.ResultSet, on func(*tracep.Result)) {
		tracedSweep(ctx, h.sw, rs, tr, on)
	}, tr)
}

// run drives one repetition, timing each cell from the repetition's start
// to its delivery. A traced repetition also records the final ResultSet
// encode.
func (h *sweepHarness) run(drive func(*tracep.ResultSet, func(*tracep.Result)), tr *tracer) repOut {
	rs := h.grid()
	out := repOut{attempted: h.cells()}
	start := time.Now()
	drive(rs, func(res *tracep.Result) {
		t := time.Since(start).Seconds()
		if len(out.lat) == 0 {
			out.first = t
		}
		out.lat = append(out.lat, t*1e3)
		out.cells++
		if res.Stats != nil {
			out.insts += res.Stats.RetiredInsts
			out.cycles += res.Stats.Cycles
		}
	})
	if tr != nil {
		s := tr.begin("resultset.encode", "", 0, 0)
		_, _ = json.Marshal(rs)
		tr.end(s)
	}
	var agg []tracep.CellStats
	if h.aggregate {
		for _, b := range rs.Benches() {
			agg = append(agg, rs.Row(b)...)
		}
	}
	out.verify = func() ([]byte, int, []string) { return h.check(rs, agg) }
	return out
}

// check compares a repetition's cells (and aggregates) with the first
// repetition's, adopting them as the reference on the first call. It
// returns the canonical ResultSet JSON.
func (h *sweepHarness) check(rs *tracep.ResultSet, agg []tracep.CellStats) ([]byte, int, []string) {
	h.counted = statCounts(rs.Results())
	canon, err := json.Marshal(rs)
	if err != nil {
		return nil, h.cells(), []string{"marshal ResultSet: " + err.Error()}
	}
	var cells [][]byte
	var errored []bool
	var failed int
	var why []string
	for _, res := range rs.Results() {
		b, _ := json.Marshal(res)
		cells = append(cells, b)
		errored = append(errored, res.Error != "")
		if res.Error != "" {
			failed++
			why = append(why, fmt.Sprintf("%s/%s seed %d: %s", res.Benchmark, res.Model, res.Seed, res.Error))
		}
	}
	if missing := h.cells() - len(cells); missing > 0 {
		failed += missing
		why = append(why, fmt.Sprintf("%d cells never delivered", missing))
	}
	aggBytes, _ := json.Marshal(agg)
	if h.ref == nil {
		h.ref, h.refAgg = cells, aggBytes
		return canon, failed, why
	}
	for i, b := range cells {
		if !errored[i] && (i >= len(h.ref) || !bytes.Equal(b, h.ref[i])) {
			failed++
			why = append(why, fmt.Sprintf("cell %d differs from the reference repetition", i))
		}
	}
	if !bytes.Equal(aggBytes, h.refAgg) {
		failed++
		why = append(why, "CellStats aggregation differs from the reference repetition")
	}
	return canon, failed, why
}

func (h *sweepHarness) counts() map[string]uint64 { return h.counted }

func (h *sweepHarness) close() {}

// statCounts sums the modelled counts of a set of cells.
func statCounts(results []*tracep.Result) map[string]uint64 {
	c := map[string]uint64{}
	for _, res := range results {
		s := res.Stats
		if s == nil {
			continue
		}
		c["cells"]++
		c["proc.cycles"] += s.Cycles
		c["proc.retired_insts"] += s.RetiredInsts
		c["proc.squashed_insts"] += s.SquashedInsts
		c["proc.recoveries_fgci"] += s.FGCIRecoveries
		c["proc.recoveries_cgci"] += s.CGCIRecoveries
		c["proc.recoveries_base"] += s.BaseRecoveries
		c["proc.reissues"] += s.Reissues
		c["proc.tc_misses"] += s.TCMisses
		c["proc.ic_misses"] += s.ICMisses
		c["proc.dc_misses"] += s.DCMisses
		c["proc.warmup_insts"] += s.WarmupInsts
	}
	return c
}
