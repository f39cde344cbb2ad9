package tracep

import (
	"context"
	"errors"
	"fmt"

	"tracep/internal/bench"
	"tracep/internal/proc"
)

// Configuration validation errors. Simulator.Run validates its Config
// before constructing the processor and reports violations as ConfigErrors,
// all of which wrap ErrInvalidConfig — misconfiguration surfaces as a typed
// error at the API boundary instead of a panic (or a silently substituted
// default) deep inside an internal package.
var ErrInvalidConfig = proc.ErrInvalidConfig

// ConfigError reports one invalid Config field; errors.Is(err,
// ErrInvalidConfig) holds for every ConfigError.
type ConfigError = proc.ConfigError

// ErrInvalidBenchmark reports a Benchmark value that cannot be built (nil
// Build function, non-positive InstsPerIter — e.g. the zero value).
// Simulator.Run returns it instead of panicking, and Sweep records it
// per-cell.
var ErrInvalidBenchmark = bench.ErrInvalidBenchmark

// Option configures a Simulator; options are applied in order.
type Option func(*Simulator)

// WithModel selects the trace-selection + control-independence model
// (default ModelBase).
func WithModel(m Model) Option { return func(s *Simulator) { s.model = m } }

// WithConfig replaces the processor configuration (default DefaultConfig),
// including its Verify and Seed fields. The configuration is validated when
// Run is called.
func WithConfig(cfg Config) Option { return func(s *Simulator) { s.cfg = cfg } }

// Simulator is one configured simulation session: a program, a model and a
// configuration, optionally started from a warm-up Snapshot. Sessions are
// reusable — every Run starts a fresh processor — but not
// concurrency-safe; share programs across goroutines, not Simulators.
type Simulator struct {
	prog *Program
	// benchmark-backed sessions build their program lazily on the first
	// Run, so an unbuildable Benchmark surfaces as an error, not a panic.
	bm       *Benchmark
	bmTarget uint64

	label string
	model Model
	cfg   Config
	snap  *Snapshot
}

func newSimulator(label string, opts []Option) *Simulator {
	s := &Simulator{
		label: label,
		model: ModelBase,
		cfg:   DefaultConfig(),
	}
	for _, o := range opts {
		o(s)
	}
	return s
}

// New builds a simulation session for prog. With no options the session
// runs prog to halt under ModelBase with Table 1's default configuration.
func New(prog *Program, opts ...Option) *Simulator {
	label := ""
	if prog != nil {
		label = prog.Name
	}
	s := newSimulator(label, opts)
	s.prog = prog
	return s
}

// NewBenchmark builds a session for a suite workload, sized so the program
// retires roughly targetInsts dynamic instructions before halting.
//
// The program is constructed lazily on the first Run (and cached for
// subsequent Runs); an unbuildable Benchmark — the zero value, a nil Build
// function — surfaces there as an error wrapping ErrInvalidBenchmark
// rather than panicking here.
func NewBenchmark(bm Benchmark, targetInsts uint64, opts ...Option) *Simulator {
	s := newSimulator(bm.Name, opts)
	s.bm, s.bmTarget = &bm, targetInsts
	return s
}

// NewFromSnapshot builds a session that runs snap's program from the
// snapshot's checkpoint instead of reset. The session starts from the
// capture-time configuration; WithConfig may replace it with any
// configuration compatible with the snapshot (see Snapshot.CompatibleWith),
// and an incompatible one surfaces from Run as an error wrapping
// ErrIncompatibleSnapshot. Restore deep-clones the snapshot, so runs forked
// from one snapshot are fully independent.
func NewFromSnapshot(snap *Snapshot, opts ...Option) *Simulator {
	if snap == nil || snap.Program() == nil {
		return newSimulator("", opts) // Run reports the nil program
	}
	s := newSimulator(snap.Program().Name, append([]Option{WithConfig(snap.Config())}, opts...))
	s.prog = snap.Program()
	s.snap = snap
	return s
}

// program returns the session's program, building (and caching) it for
// benchmark-backed sessions.
func (s *Simulator) program() (*Program, error) {
	if s.prog != nil {
		return s.prog, nil
	}
	if s.bm == nil {
		return nil, errors.New("nil program")
	}
	prog, err := buildProgram(*s.bm, s.bmTarget)
	if err != nil {
		return nil, err
	}
	s.prog = prog
	return s.prog, nil
}

// buildProgram validates bm and constructs its program sized to roughly
// targetInsts dynamic instructions — the one build path shared by
// benchmark-backed Simulators and Sweep's once-per-row builds.
func buildProgram(bm Benchmark, targetInsts uint64) (*Program, error) {
	if err := bm.Validate(); err != nil {
		return nil, err
	}
	prog := bm.Build(bm.ScaleFor(targetInsts))
	if prog == nil {
		return nil, fmt.Errorf("%w: %s Build returned a nil program", ErrInvalidBenchmark, bm.Name)
	}
	return prog, nil
}

// Run simulates the session's program from reset (or from its snapshot)
// and returns the run's statistics. Cancelling ctx stops the simulation
// promptly; the returned error then wraps ctx.Err(). Run may be called
// repeatedly; each call is an independent simulation.
func (s *Simulator) Run(ctx context.Context) (*Result, error) {
	prog, err := s.program()
	if err != nil {
		if s.label == "" {
			return nil, fmt.Errorf("tracep: %w", err)
		}
		return nil, fmt.Errorf("tracep: %s: %w", s.label, err)
	}
	return runCell(ctx, s.label, prog, s.model, s.cfg, s.snap, &proc.Processor{})
}

// runCell is the one path every simulation takes, from Simulator.Run and
// from a Sweep worker: it validates cfg, resets engine for prog under m —
// restored from snap when non-nil, cold otherwise — and runs it to halt.
// Both callers hand it a snapshot of prog itself: a sweep row captures from
// its own build, and NewFromSnapshot takes its program from the snapshot.
// Results never point into engine, so the caller may reset it for its next
// cell.
func runCell(ctx context.Context, label string, prog *Program, m Model, cfg Config,
	snap *Snapshot, engine *proc.Processor) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("tracep: %s: %w", label, err)
	}
	if snap != nil {
		if err := engine.ResetFromSnapshot(snap, m, cfg); err != nil {
			return nil, fmt.Errorf("tracep: %s: %w", label, err)
		}
	} else {
		engine.Reset(prog, m, cfg)
	}
	stats, err := engine.RunContext(ctx, 0, 0, nil)
	if err != nil {
		return nil, fmt.Errorf("tracep: %s under %s: %w", label, m.Name, err)
	}
	return &Result{Benchmark: label, Model: m.Name, Stats: stats}, nil
}

// CaptureSnapshot runs the functional warm-up of n instructions over the
// session's program under the session's configuration and returns the
// resulting checkpoint; cancelling ctx abandons the capture promptly. The
// snapshot is independent of the session's model — warm-up follows the
// committed path, which every trace-selection model shares — so one
// capture can seed restored runs (NewFromSnapshot) under any model whose
// configuration is compatible.
func (s *Simulator) CaptureSnapshot(ctx context.Context, n uint64) (*Snapshot, error) {
	prog, err := s.program()
	if err != nil {
		return nil, fmt.Errorf("tracep: %s: %w", s.label, err)
	}
	snap, err := proc.CaptureSnapshot(ctx, prog, s.cfg, n)
	if err != nil {
		return nil, fmt.Errorf("tracep: %s: %w", s.label, err)
	}
	return snap, nil
}
