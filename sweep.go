package tracep

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"tracep/internal/proc"
)

// Sweep fans a (benchmark × model × seed) grid of simulations across a
// bounded pool of worker goroutines — the paper's §6 evaluation is 8
// workloads × 8 models, embarrassingly parallel, and the Seeds axis adds
// replicate runs per cell for mean±CI statistical reporting. Every run is
// an independent, deterministic simulation, so a parallel sweep produces
// results bit-identical to a serial loop; only wall-clock time changes.
//
// Each benchmark program is built exactly once per sweep and shared,
// read-only, by every model cell and seed replicate in its rows (programs
// are immutable at run time; see Simulator). An N-model, R-seed sweep
// therefore performs N×R fewer builds than a loop over NewBenchmark.
//
// The zero value is not useful: populate Benchmarks and Models, then call
// Run (one ResultSet at the end) or Stream (cells as they complete).
type Sweep struct {
	// Benchmarks and Models span the cross-product; every (benchmark,
	// model) pair is simulated once.
	Benchmarks []Benchmark
	Models     []Model

	// TargetInsts sizes each workload to roughly this many dynamic
	// instructions (like NewBenchmark); each run proceeds to architectural
	// halt.
	TargetInsts uint64

	// Config is the processor configuration for every run (nil =
	// DefaultConfig). It is validated once per run, like Simulator.Run.
	Config *Config

	// Seed, when non-zero, overrides Config.Seed for every run: it
	// scrambles initial predictor state (see Config.Seed). It is the
	// single-replicate degenerate case of Seeds: a sweep with Seeds unset
	// runs every cell once under Seed, exactly as before the seed axis
	// existed.
	Seed int64

	// Seeds, when non-empty, turns the sweep into a three-axis grid: every
	// (benchmark, model) cell runs once per seed, each replicate a fully
	// independent deterministic simulation fanned through the same worker
	// pool. Result.Seed records each replicate's seed, and the ResultSet
	// aggregates a cell's replicates into CellStats distributions
	// (mean ± 95% CI). Duplicate seeds are ignored (first occurrence
	// wins); seed 0 means canonical predictor state, like Seed. Nil
	// preserves the two-axis behaviour: one replicate per cell under Seed.
	Seeds []int64

	// Warmup fast-forwards this many instructions functionally before each
	// cell's measured region (see CaptureSnapshot). The warm-up is
	// model-independent, so the sweep captures exactly one Snapshot per
	// (benchmark, seed) row — extending the build-once program sharing —
	// and forks every model cell of the row from it; an N-model sweep
	// performs N× fewer warm-ups than capturing a snapshot per cell, with
	// byte-identical results. A warm-up that fails (e.g. it runs past the
	// program's halt) fails every cell of the row, like a failed build.
	Warmup uint64

	// WarmupFor overrides Warmup per benchmark row, keyed by Benchmark.Name:
	// workloads reach steady state at different depths (a tight kernel warms
	// in thousands of instructions, a call-heavy workload in hundreds of
	// thousands), so a sweep can give each row its own warm-up length. A
	// missing key falls back to Warmup; an explicit zero entry forces that
	// row to run cold. Stats.WarmupInsts records each cell's effective
	// warm-up, so baseline diffs remain like-for-like per cell.
	WarmupFor map[string]uint64

	// Parallelism bounds the worker pool (<= 0 = GOMAXPROCS).
	Parallelism int

	// Gate, when non-nil, additionally bounds concurrency across every
	// sweep sharing the same Gate: a worker holds a gate slot only while
	// simulating a cell or capturing a row's warm-up. Parallelism still
	// caps this sweep's own workers; the Gate caps the machine-wide total
	// (see NewGate).
	Gate *Gate
}

// sweepRow is the state one (benchmark, seed) row shares across its model
// cells: the immutable program (built once per benchmark, in the feeder,
// and shared read-only by every seed row) and, when the row warms up, the
// row's snapshot, captured from that program once on a worker goroutine by
// whichever job reaches it first. After each row's first cell the feeder
// queues a capture-only job for the next row when that row captures (see
// captures), so the capture usually runs on a worker that would otherwise
// wait for it, while the current row simulates. The seed travels on the
// row because warm-up snapshots carry predictor state: replicates under
// different seeds warm up to different machine states, so each seed needs
// its own capture. A failed build or warm-up fails every cell of the row.
type sweepRow struct {
	sw       *Sweep
	bench    string
	seed     int64
	prog     *Program
	buildErr error
	// warmup is the row's effective warm-up length (WarmupFor override or
	// the sweep-wide Warmup), resolved once at feed time.
	warmup uint64

	capture sync.Once
	snap    *Snapshot
	snapErr error
}

// snapshot returns the row's shared warm-up snapshot (nil when the row
// does not warm up), capturing it on first call. The capturing goroutine
// holds a Gate slot only for the capture itself — warm-up CPU work is
// bounded exactly like simulation work. A cell that arrives while the
// capture still runs waits for it slot-free, leaving the gate's capacity
// to other sweeps; with the one-row lookahead that wait is rare, because
// the capture starts while the previous row's cells simulate. The snapshot
// is immutable and restore-side state is always cloned, so handing it to
// every cell is race-free.
func (r *sweepRow) snapshot(ctx context.Context, gate *Gate) (*Snapshot, error) {
	if r.warmup == 0 {
		return nil, nil
	}
	r.capture.Do(func() {
		if !gate.acquire(ctx) {
			r.snapErr = ctx.Err()
			return
		}
		defer gate.release()
		r.snap, r.snapErr = proc.CaptureSnapshot(ctx, r.prog, r.sw.cellConfig(r.seed), r.warmup)
	})
	return r.snap, r.snapErr
}

// captures reports whether the row has a snapshot to capture: it warms up
// and its program built.
func (r *sweepRow) captures() bool {
	return r.warmup > 0 && r.buildErr == nil
}

// warmupFor resolves the effective warm-up length for a benchmark row: the
// per-benchmark override when present, the sweep-wide default otherwise.
func (sw *Sweep) warmupFor(bench string) uint64 {
	if n, ok := sw.WarmupFor[bench]; ok {
		return n
	}
	return sw.Warmup
}

// sweepJob is one cell: the shared row plus the model to run it under. A
// captureOnly job runs no cell: it captures the row's snapshot ahead of the
// row's cells and delivers nothing.
type sweepJob struct {
	row         *sweepRow
	model       Model
	captureOnly bool
}

// cellConfig resolves the one configuration every cell of a seed row runs
// under and the row's snapshot is captured with, so capture and restore
// agree by construction.
func (sw *Sweep) cellConfig(seed int64) Config {
	cfg := DefaultConfig()
	if sw.Config != nil {
		cfg = *sw.Config
	}
	if seed != 0 {
		cfg.Seed = seed
	}
	return cfg
}

// effectiveSeeds resolves the sweep's seed axis: Seeds deduplicated in
// order when set, otherwise the single-replicate axis {Seed}.
func (sw *Sweep) effectiveSeeds() []int64 {
	if len(sw.Seeds) == 0 {
		return []int64{sw.Seed}
	}
	seen := make(map[int64]bool, len(sw.Seeds))
	out := make([]int64, 0, len(sw.Seeds))
	for _, s := range sw.Seeds {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

// Stream starts the sweep and returns a channel that delivers every cell's
// Result exactly once, as it completes (completion order, not grid order —
// use ResultSet for deterministic ordering). The channel is closed once
// the sweep finishes; it is buffered for the full cross-product, so a
// consumer that stops reading never blocks a worker or leaks a goroutine.
//
// Failed runs are delivered like successful ones, with Result.Error /
// Result.Err set. Cancelling ctx stops the sweep promptly: in-flight
// simulations abort and are delivered as failed cells, unstarted cells are
// never delivered, and the channel is closed after the last in-flight cell
// lands.
func (sw *Sweep) Stream(ctx context.Context) <-chan *Result {
	seeds := sw.effectiveSeeds()
	total := len(sw.Benchmarks) * len(sw.Models) * len(seeds)
	out := make(chan *Result, total)
	if total == 0 {
		close(out)
		return out
	}

	workers := sw.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > total {
		workers = total
	}

	jobCh := make(chan sweepJob)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// One engine per worker, reset for every cell it runs: its caches,
			// arenas and the predictor pages its cells have trained carry
			// over to the next cell instead of being allocated again. It
			// becomes garbage when the worker exits.
			engine := &proc.Processor{}
			for job := range jobCh {
				if job.captureOnly {
					// The row's cells read the outcome, error included, from
					// the row.
					job.row.snapshot(ctx, sw.Gate)
					continue
				}
				if res := sw.runOne(ctx, job, engine); res != nil {
					out <- res
				}
			}
		}()
	}

	go func() {
		sw.feed(seeds, func(job sweepJob) bool {
			select {
			case jobCh <- job:
				return true
			case <-ctx.Done():
				return false
			}
		})
		close(jobCh)
		wg.Wait()
		close(out)
	}()

	return out
}

// feed hands every job of the sweep to send, in order, and stops when send
// reports false. Each row's first cell goes out first, then a capture-only
// job for the next row if that row captures its snapshot (see captures),
// then the row's remaining cells: the next row's warm-up runs on a worker
// while this row simulates, and the next row's program is built only once
// this row has started.
func (sw *Sweep) feed(seeds []int64, send func(sweepJob) bool) {
	// row returns the r-th (benchmark, seed) row; rows are requested in
	// grid order, and a benchmark's first row builds the program its seed
	// rows share. Each seed gets its own row because the row's warm-up
	// snapshot captures seed-dependent predictor state.
	var prog *Program
	var err error
	row := func(r int) *sweepRow {
		bm := sw.Benchmarks[r/len(seeds)]
		if r%len(seeds) == 0 {
			prog, err = buildProgram(bm, sw.TargetInsts)
		}
		return &sweepRow{sw: sw, bench: bm.Name, seed: seeds[r%len(seeds)], prog: prog,
			buildErr: err, warmup: sw.warmupFor(bm.Name)}
	}
	rows := len(sw.Benchmarks) * len(seeds)
	cur := row(0)
	for r := 0; r < rows; r++ {
		var next *sweepRow
		for i, m := range sw.Models {
			if !send(sweepJob{row: cur, model: m}) {
				return
			}
			if i == 0 && r+1 < rows {
				if next = row(r + 1); next.captures() && !send(sweepJob{row: next, captureOnly: true}) {
					return
				}
			}
		}
		cur = next
	}
}

// Run executes the sweep (via Stream) and returns the result set. Failed
// runs are captured per-cell (Result.Error / Result.Err) rather than
// aborting the sweep; inspect them with ResultSet.Err. Cancelling ctx
// stops the sweep promptly — in-flight simulations abort and unstarted
// cells stay absent — and Run returns the partial set together with
// ctx.Err().
func (sw *Sweep) Run(ctx context.Context) (*ResultSet, error) {
	benchNames := make([]string, len(sw.Benchmarks))
	for i, bm := range sw.Benchmarks {
		benchNames[i] = bm.Name
	}
	modelNames := make([]string, len(sw.Models))
	for i, m := range sw.Models {
		modelNames[i] = m.Name
	}
	rs := NewResultSetGrid(benchNames, modelNames, sw.effectiveSeeds())
	for res := range sw.Stream(ctx) {
		rs.Add(res)
	}
	return rs, ctx.Err()
}

// runOne simulates one cell on engine and returns its Result; a cell that
// never started (sweep already cancelled) returns nil.
func (sw *Sweep) runOne(ctx context.Context, job sweepJob, engine *proc.Processor) *Result {
	if ctx.Err() != nil {
		return nil
	}
	row := job.row
	fail := func(err error) *Result {
		return &Result{
			Benchmark: row.bench,
			Model:     job.model.Name,
			Seed:      row.seed,
			Error:     err.Error(),
			err:       err,
		}
	}
	if row.buildErr != nil {
		return fail(fmt.Errorf("tracep: %s: %w", row.bench, row.buildErr))
	}
	// The row's one warm-up capture runs under its own gate slot (see
	// sweepRow.snapshot); a cell whose warm-up was abandoned by
	// cancellation never started, so — like a cell still waiting for a
	// slot below — it is not delivered.
	snap, err := row.snapshot(ctx, sw.Gate)
	if err != nil {
		if ctx.Err() != nil {
			return nil
		}
		return fail(fmt.Errorf("tracep: %s: %w", row.bench, err))
	}
	// Failed builds and warm-ups above are delivered without a slot — only
	// real simulation counts against the shared gate.
	if !sw.Gate.acquire(ctx) {
		return nil
	}
	defer sw.Gate.release()
	// Every cell runs under its row's cellConfig — the exact configuration
	// the row snapshot is captured with, so capture and restore cannot
	// drift.
	res, err := runCell(ctx, row.bench, row.prog, job.model, sw.cellConfig(row.seed), snap, engine)
	if err != nil {
		return fail(err)
	}
	res.Seed = row.seed
	return res
}
