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

// DefaultProgressInterval is how many retired instructions elapse between
// ProgressEvents when WithProgress is set without WithProgressInterval.
const DefaultProgressInterval = 25_000

// ProgressEvent is a snapshot of a running simulation, delivered to the
// hook registered with WithProgress.
type ProgressEvent struct {
	// Benchmark and Model identify the run (Benchmark is the session label:
	// the workload name, or the program name for plain programs).
	Benchmark string
	Model     string

	Cycle         int64
	RetiredInsts  uint64
	RetiredTraces uint64

	// Done marks the final event of a run that completed (halt or retire
	// limit). Failed runs — simulator error or cancellation — end without
	// a Done event.
	Done bool
}

// Option configures a Simulator. Options are applied in order, but
// field-level configuration options (WithVerify, WithSeed) always take
// effect on top of the configuration, so they compose with WithConfig in
// either order — WithConfig never silently clobbers an earlier field
// option.
type Option func(*Simulator)

// WithModel selects the trace-selection + control-independence model
// (default ModelBase).
func WithModel(m Model) Option { return func(s *Simulator) { s.model = m } }

// WithConfig replaces the processor configuration (default DefaultConfig).
// Field-level options (WithVerify, WithSeed) are re-applied on top of the
// new configuration regardless of option order. The configuration is
// validated when Run is called.
func WithConfig(cfg Config) Option { return func(s *Simulator) { s.cfg = cfg } }

// WithMaxInsts caps the run at n retired instructions (0 = run until the
// program halts).
func WithMaxInsts(n uint64) Option { return func(s *Simulator) { s.maxInsts = n } }

// WithVerify toggles the architectural oracle that checks every retired
// instruction (on in DefaultConfig; turn off for throughput measurements).
// It overrides the Verify field of whatever configuration the session ends
// up with, even if WithConfig appears later in the option list.
func WithVerify(v bool) Option {
	return func(s *Simulator) {
		s.cfgEdits = append(s.cfgEdits, func(c *Config) { c.Verify = v })
	}
}

// WithSeed scrambles the initial branch-predictor state with a
// deterministic PRNG (0 = the paper's weakly-not-taken reset). Runs remain
// bit-reproducible for a given seed; sweeping seeds measures sensitivity to
// predictor warm-up. Like WithVerify, it overrides the Seed field
// regardless of where WithConfig appears in the option list.
func WithSeed(seed int64) Option {
	return func(s *Simulator) {
		s.cfgEdits = append(s.cfgEdits, func(c *Config) { c.Seed = seed })
	}
}

// WithWarmup fast-forwards the first n instructions of the program
// functionally before the measured region: the architectural emulator
// executes them (no timing), warming the instruction/data caches, the
// branch predictor and the BIT along the committed path, and the timing
// simulation starts from that state. Statistics cover the measured region
// only; Stats.WarmupInsts records n so baseline diffs compare like for
// like.
//
// The warm-up is model-independent, so a snapshot captured once can seed
// every model cell of a sweep (see Sweep.Warmup and CaptureSnapshot). A
// warm-up that reaches the program's halt instruction is an error — there
// would be nothing left to measure. n = 0 means a cold run.
func WithWarmup(n uint64) Option { return func(s *Simulator) { s.warmup = n } }

// WithSnapshot starts every Run of the session from snap instead of reset,
// skipping the warm-up simulation entirely: restore deep-clones the
// snapshot, so runs forked from one snapshot are fully independent (and
// byte-identical to a session that performs the same warm-up itself with
// WithWarmup). The session's program must be the very program the snapshot
// was captured from, and the configuration must agree with the capture on
// every snapshotted structure (see Snapshot.CompatibleWith); violations
// surface from Run as errors wrapping ErrIncompatibleSnapshot.
// WithSnapshot supersedes WithWarmup.
func WithSnapshot(snap *Snapshot) Option { return func(s *Simulator) { s.snap = snap } }

// WithProgress registers a hook that receives a ProgressEvent every
// DefaultProgressInterval retired instructions (see WithProgressInterval)
// plus a final Done event. The hook runs synchronously on the simulation
// goroutine; under Sweep, events from concurrent runs are serialised.
func WithProgress(fn func(ProgressEvent)) Option {
	return func(s *Simulator) { s.progress = fn }
}

// WithProgressInterval sets the retired-instruction spacing of
// ProgressEvents.
func WithProgressInterval(insts uint64) Option {
	return func(s *Simulator) { s.progressEvery = insts }
}

// WithLabel overrides the session label reported as Result.Benchmark and
// ProgressEvent.Benchmark.
func WithLabel(name string) Option { return func(s *Simulator) { s.label = name } }

// Simulator is one configured simulation session: a program plus a model,
// configuration, run limits and progress plumbing. Sessions are reusable —
// every Run starts a fresh processor from reset — but not concurrency-safe;
// share programs across goroutines, not Simulators.
type Simulator struct {
	prog *Program
	// benchmark-backed sessions build their program lazily on the first
	// Run, so an unbuildable Benchmark surfaces as an error, not a panic.
	bm       *Benchmark
	bmTarget uint64

	// recorded is set for sessions over a recorded-trace Benchmark
	// (FromTraceFile/Corpus): each Run opens its own streaming reader over
	// the .tptrace file and installs it as the retirement oracle, skipping
	// any warmed-up prefix so verification stays aligned with the measured
	// region.
	recorded *bench.RecordedTrace

	label    string
	model    Model
	cfg      Config
	cfgEdits []func(*Config)
	maxInsts uint64
	warmup   uint64
	snap     *Snapshot
	// warmSnap caches the snapshot a WithWarmup session captures on its
	// first Run: capture is deterministic for a given program and
	// configuration (both fixed after construction) and snapshots are
	// immutable, so repeated Runs pay the functional fast-forward once —
	// like the lazily built benchmark program above.
	warmSnap      *Snapshot
	progress      func(ProgressEvent)
	progressEvery uint64

	// engine, when set, is the processor Run resets for each run instead of
	// building a new one: a Sweep worker hands every cell it runs the same
	// engine. Results never point into it.
	engine *proc.Processor
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
	// Field-level overrides (WithVerify, WithSeed) win over WithConfig
	// regardless of the order the options were passed in.
	for _, edit := range s.cfgEdits {
		edit(&s.cfg)
	}
	s.cfgEdits = nil
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
// retires roughly targetInsts dynamic instructions before halting. The run
// proceeds to architectural halt unless WithMaxInsts caps it.
//
// The program is constructed lazily on the first Run (and cached for
// subsequent Runs); an unbuildable Benchmark — the zero value, a nil Build
// function — surfaces there as an error wrapping ErrInvalidBenchmark
// rather than panicking here.
func NewBenchmark(bm Benchmark, targetInsts uint64, opts ...Option) *Simulator {
	s := newSimulator(bm.Name, opts)
	s.bm, s.bmTarget = &bm, targetInsts
	s.recorded = bm.Recorded
	return s
}

// NewFromSnapshot builds a session that runs snap's program from the
// snapshot's checkpoint instead of reset. The session inherits the
// capture-time configuration (options may refine the non-snapshotted
// fields, the model, run limits and progress plumbing). It is equivalent to
// New(snap.Program(), WithConfig(snap.Config()), WithSnapshot(snap), ...).
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

// Model returns the session's model.
func (s *Simulator) Model() Model { return s.model }

// Config returns the session's configuration.
func (s *Simulator) Config() Config { return s.cfg }

// Label returns the session label (Result.Benchmark).
func (s *Simulator) Label() string { return s.label }

// Run validates the configuration, simulates the session's program from
// reset, and returns the run's statistics. Cancelling ctx stops the
// simulation promptly; the returned error then wraps ctx.Err(). Run may be
// called repeatedly; each call is an independent simulation.
func (s *Simulator) Run(ctx context.Context) (*Result, error) {
	prog, err := s.program()
	if err != nil {
		if s.label == "" {
			return nil, fmt.Errorf("tracep: %w", err)
		}
		return nil, fmt.Errorf("tracep: %s: %w", s.label, err)
	}
	if err := s.cfg.Validate(); err != nil {
		return nil, fmt.Errorf("tracep: %s: %w", s.label, err)
	}

	p, err := s.newProcessor(ctx, prog)
	if err != nil {
		return nil, fmt.Errorf("tracep: %s: %w", s.label, err)
	}
	if s.recorded != nil && s.cfg.Verify {
		// Recorded workloads verify retirement against their .tptrace
		// stream instead of an in-process emulator. Each Run gets its own
		// cursor, advanced past the prefix a warm-up already replayed.
		src, err := s.recorded.Open()
		if err != nil {
			return nil, fmt.Errorf("tracep: %s: %w", s.label, err)
		}
		defer src.Close()
		if n := p.Stats.WarmupInsts; n > 0 {
			if err := src.Skip(n); err != nil {
				return nil, fmt.Errorf("tracep: %s: aligning recorded trace past %d warm-up insts: %w", s.label, n, err)
			}
		}
		p.SetCommitSource(src)
	}
	var tap func()
	every := uint64(0)
	if s.progress != nil {
		every = s.progressEvery
		if every == 0 {
			every = DefaultProgressInterval
		}
		tap = func() {
			s.progress(ProgressEvent{
				Benchmark:     s.label,
				Model:         s.model.Name,
				Cycle:         p.Cycle(),
				RetiredInsts:  p.Stats.RetiredInsts,
				RetiredTraces: p.Stats.RetiredTraces,
			})
		}
	}

	stats, err := p.RunContext(ctx, s.maxInsts, every, tap)
	if err != nil {
		return nil, fmt.Errorf("tracep: %s under %s: %w", s.label, s.model.Name, err)
	}
	if s.progress != nil {
		s.progress(ProgressEvent{
			Benchmark:     s.label,
			Model:         s.model.Name,
			Cycle:         int64(stats.Cycles),
			RetiredInsts:  stats.RetiredInsts,
			RetiredTraces: stats.RetiredTraces,
			Done:          true,
		})
	}
	return &Result{Benchmark: s.label, Model: s.model.Name, Stats: stats}, nil
}

// newProcessor constructs the run's processor: restored from the session's
// snapshot, restored from a freshly captured warm-up checkpoint, or cold
// from reset. A session with an engine resets that engine instead of
// building a new one.
func (s *Simulator) newProcessor(ctx context.Context, prog *Program) (*proc.Processor, error) {
	p := s.engine
	if p == nil {
		p = &proc.Processor{}
	}
	if s.snap != nil {
		if s.snap.Program() == nil {
			return nil, fmt.Errorf("%w: snapshot has no program (zero-value Snapshot?)", ErrIncompatibleSnapshot)
		}
		// Pointer equality is the fast path (a sweep row shares one build);
		// structural equality admits snapshots decoded from their binary
		// form, whose program was rebuilt in another process. Deterministic
		// builds make the two indistinguishable at run time.
		if !prog.Equal(s.snap.Program()) {
			return nil, fmt.Errorf("%w: snapshot was captured from a different program (%q, session has %q)",
				ErrIncompatibleSnapshot, s.snap.Program().Name, prog.Name)
		}
		return p, p.ResetFromSnapshot(s.snap, s.model, s.cfg)
	}
	if s.warmup > 0 {
		if s.warmSnap == nil {
			snap, err := proc.CaptureSnapshot(ctx, prog, s.cfg, s.warmup)
			if err != nil {
				return nil, err
			}
			s.warmSnap = snap
		}
		return p, p.ResetFromSnapshot(s.warmSnap, s.model, s.cfg)
	}
	p.Reset(prog, s.model, s.cfg)
	return p, nil
}

// CaptureSnapshot runs the functional warm-up of n instructions over the
// session's program under the session's configuration and returns the
// resulting checkpoint; cancelling ctx abandons the capture promptly. The
// snapshot is independent of the session's model — warm-up follows the
// committed path, which every trace-selection model shares — so one
// capture can seed restored runs (WithSnapshot, NewFromSnapshot) under any
// model whose configuration is compatible.
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
