// Package tracep is a reproduction of "Control Independence in Trace
// Processors" (Rotenberg & Smith, MICRO-32, 1999): a cycle-level,
// execution-driven trace processor simulator with fine-grain and
// coarse-grain control-independence mechanisms, plus the paper's full
// substrate stack (trace cache, next-trace predictor, branch predictor, ARB
// memory disambiguation, hierarchical PEs) and the SPEC95int-analogue
// workload suite.
//
// # Sessions
//
// A simulation is a Simulator session built with New (for a program written
// against the Builder API), NewBenchmark (for a suite workload) or
// NewFromSnapshot (from a warm-up checkpoint), given a model (WithModel) and
// a configuration (WithConfig), and executed with Run:
//
//	bm, _ := tracep.BenchmarkByName("compress")
//	cfg := tracep.DefaultConfig()
//	cfg.Seed = 7 // scramble initial predictor state
//	sim := tracep.NewBenchmark(bm, 300_000,
//		tracep.WithModel(tracep.ModelFGMLBRET), tracep.WithConfig(cfg))
//	res, err := sim.Run(ctx)
//	fmt.Printf("IPC = %.2f\n", res.Stats.IPC())
//
// Run validates the configuration first — violations surface as typed
// ConfigErrors wrapping ErrInvalidConfig — and honours ctx cancellation,
// stopping mid-simulation within ~a thousand simulated cycles.
//
// # Sweeps
//
// The paper's evaluation (§6) is a (benchmark × model) cross-product; Sweep
// fans it — optionally replicated across a Seeds axis for mean±CI
// statistics — across a bounded worker pool and collects a ResultSet —
// with deterministic ordering, per-run error capture and JSON marshalling —
// that the table/figure renderers consume directly:
//
//	sw := tracep.Sweep{
//		Benchmarks:  tracep.Benchmarks(),
//		Models:      tracep.Models(),
//		TargetInsts: 300_000,
//	}
//	rs, err := sw.Run(ctx)
//	if hm, ok := rs.HarmonicMeanIPC("base"); ok {
//		fmt.Printf("harmonic mean IPC (base) = %.2f\n", hm)
//	}
//
// Each benchmark program is built once per sweep and shared read-only by
// every model cell. Simulations are deterministic, so a parallel sweep is
// bit-identical to a serial loop over Run.
//
// # Streaming and regression gating
//
// Sweep.Stream delivers each cell's Result as it completes, so a server or
// a command line can report progress without waiting for the full grid:
//
//	for res := range sw.Stream(ctx) {
//		log.Printf("%s/%s done", res.Benchmark, res.Model)
//	}
//
// A saved ResultSet (its JSON round-trips bit-for-bit) doubles as a
// regression baseline: ResultSet.Diff compares a fresh set against it
// cell-by-cell under a Tolerances gate, and cmd/experiments' -baseline
// mode turns that into a CI exit code — re-rendering the paper tables from
// saved JSON without re-simulating:
//
//	diff := rs.Diff(baseline, tracep.Tolerances{IPCPct: 2})
//	diff.WriteText(os.Stdout)
//	if !diff.OK() { os.Exit(1) }
//
// The gate also watches trace mispredictions, recovery counts and cache
// miss rates; see Tolerances. Warm and cold cells never compare — see
// below.
//
// # Warm-up snapshots
//
// The paper measures steady-state behaviour. Sweep.Warmup fast-forwards the
// first n instructions functionally — warming caches, branch predictor and
// BIT along the committed path — and measures only the rest. The checkpoint
// is model-independent, so a sweep captures one Snapshot per benchmark row
// and forks every model cell from it; Simulator.CaptureSnapshot plus
// NewFromSnapshot does the same by hand. A run forked from a shared
// snapshot is byte-identical to one restored from its own private capture,
// and Stats.WarmupInsts travels with every result so diffs stay
// like-for-like.
//
// # Serving sweeps
//
// Package tracep/server (and the cmd/tracepd binary) exposes this same
// streaming contract over HTTP — submitted grids run on a shared worker
// pool bounded by a Gate, cells stream to clients as NDJSON, and finished
// ResultSets are retained for replay. Package tracep/client is the typed
// Go client; a remotely collected ResultSet is byte-identical to the same
// sweep run in-process. See ARCHITECTURE.md for the full data-flow map.
//
// The eight experimental models of the paper's §6 are exposed as ModelBase,
// ModelBaseNTB, ModelBaseFG, ModelBaseFGNTB (trace selection only, full
// squash) and ModelRET, ModelMLBRET, ModelFG, ModelFGMLBRET (control
// independence enabled).
package tracep

import (
	"tracep/internal/asm"
	"tracep/internal/bench"
	"tracep/internal/isa"
	"tracep/internal/proc"
	"tracep/internal/report"
)

// Model selects a trace-selection + control-independence configuration.
type Model = proc.Model

// Config is the processor configuration (Table 1 defaults via
// DefaultConfig). Simulator.Run validates it; see Config.Validate and
// ErrInvalidConfig.
type Config = proc.Config

// Stats carries everything the paper's tables and figures report.
type Stats = proc.Stats

// Snapshot is an immutable warm-up checkpoint: architectural state plus the
// model-independent microarchitectural structures after a functional
// fast-forward. Capture one with Simulator.CaptureSnapshot (or implicitly
// via Sweep.Warmup) and fork any number of simulations from it with
// NewFromSnapshot.
type Snapshot = proc.Snapshot

// ErrIncompatibleSnapshot is the sentinel wrapped by errors reporting a
// snapshot that cannot be restored under the session's configuration; test
// with errors.Is.
var ErrIncompatibleSnapshot = proc.ErrIncompatibleSnapshot

// ErrStatsLaw is the sentinel wrapped by the error a verified cell fails
// with when its Stats counters break an accounting identity (recovery
// kinds, retired trace lengths, retire bandwidth, cache misses, dispatched
// traces); test with errors.Is.
var ErrStatsLaw = proc.ErrStatsLaw

// Program is an executable image for the simulator's ISA.
type Program = isa.Program

// Builder is the programmatic assembler used to write programs.
type Builder = asm.Builder

// Benchmark is one synthetic SPEC95int-analogue workload.
type Benchmark = bench.Benchmark

// GenConfig parameterises the synthetic workload generator: one knob per
// control-flow property the paper's evaluation exercises (hammock count and
// predictability, guarded calls, inner-loop variance, memory chains), plus
// the Seed that drives both program structure and the embedded LCG data.
type GenConfig = bench.GenConfig

// DefaultGenConfig returns a moderate mixed workload configuration for the
// given seed.
func DefaultGenConfig(seed int64) GenConfig { return bench.DefaultGenConfig(seed) }

// Generated wraps a generator configuration as a Benchmark, named
// "gen-<seed>", with its instruction-budget scaling calibrated by emulating
// the generated program. Sweeping GenConfig.Seed varies program randomness;
// combined with Config.Seed (microarchitectural randomness, set per sweep by
// Sweep.Seed or Sweep.Seeds) it spans both axes of an error-bar study:
//
//	sw := tracep.Sweep{
//		Benchmarks: []tracep.Benchmark{
//			tracep.Generated(tracep.DefaultGenConfig(1)),
//			tracep.Generated(tracep.DefaultGenConfig(2)),
//		},
//		Models: tracep.Models(),
//		Seed:   7, // scrambles predictor cold-start state
//	}
func Generated(cfg GenConfig) Benchmark { return bench.Generated(cfg) }

// The paper's eight experimental models (§6).
var (
	ModelBase      = proc.ModelBase
	ModelBaseNTB   = proc.ModelBaseNTB
	ModelBaseFG    = proc.ModelBaseFG
	ModelBaseFGNTB = proc.ModelBaseFGNTB
	ModelRET       = proc.ModelRET
	ModelMLBRET    = proc.ModelMLBRET
	ModelFG        = proc.ModelFG
	ModelFGMLBRET  = proc.ModelFGMLBRET
)

// Models lists all eight experimental models in the paper's order.
func Models() []Model {
	return []Model{
		ModelBase, ModelBaseNTB, ModelBaseFG, ModelBaseFGNTB,
		ModelRET, ModelMLBRET, ModelFG, ModelFGMLBRET,
	}
}

// CIModels lists the four control-independence models of Figure 10.
func CIModels() []Model {
	return []Model{ModelRET, ModelMLBRET, ModelFG, ModelFGMLBRET}
}

// SelectionModels lists the four selection-only models of Tables 3-4.
func SelectionModels() []Model {
	return []Model{ModelBase, ModelBaseNTB, ModelBaseFG, ModelBaseFGNTB}
}

// ModelByName returns the named model (base, base(ntb), base(fg),
// base(fg,ntb), RET, MLB-RET, FG, FG+MLB-RET).
func ModelByName(name string) (Model, bool) {
	for _, m := range Models() {
		if m.Name == name {
			return m, true
		}
	}
	return Model{}, false
}

// DefaultConfig returns Table 1's processor configuration with oracle
// verification enabled.
func DefaultConfig() Config { return proc.DefaultConfig() }

// NewProgram returns a builder for writing a program against the public API.
func NewProgram(name string) *Builder { return asm.New(name) }

// Benchmarks returns the eight-workload suite in the paper's order.
func Benchmarks() []Benchmark { return bench.Suite() }

// BenchmarkByName returns the named workload (compress, gcc, go, jpeg, li,
// m88ksim, perl, vortex).
func BenchmarkByName(name string) (Benchmark, error) { return bench.ByName(name) }

// Compile-time proof that the public ResultSet plugs into the paper's
// table/figure renderers.
var _ report.Results = (*ResultSet)(nil)
