package proc

import (
	"context"
	"errors"
	"fmt"

	"tracep/internal/bpred"
	"tracep/internal/cache"
	"tracep/internal/core"
	"tracep/internal/emu"
	"tracep/internal/isa"
)

// ErrIncompatibleSnapshot is the sentinel wrapped by every error
// NewFromSnapshot returns for a configuration that cannot restore a given
// snapshot; callers test with errors.Is.
var ErrIncompatibleSnapshot = errors.New("snapshot incompatible with configuration")

// Snapshot is an immutable checkpoint of simulation state taken after a
// functional warm-up: the architectural state (registers, PC, memory) after
// the first warmupInsts instructions of the program, plus the
// microarchitectural structures that warm-up touches along the committed
// path — instruction and data cache arrays, branch-predictor counters,
// indirect targets and return-address stack, and the BIT's memoised FGCI
// analyses. Structures whose contents depend on the trace-selection model
// (trace cache, next-trace predictor) are not captured: a restore resets
// them exactly as a cold start does, which is what makes one snapshot
// restorable under every model: the warm-up region is simulated once per
// program, not once per (program, model) cell.
//
// A Snapshot is never mutated after capture and every restore copies out of
// it into the processor's own storage (see the Clone methods across
// internal/{cache,bpred,emu,core} and isa.Memory), so any number of
// simulations may be forked from one snapshot concurrently.
type Snapshot struct {
	prog        *isa.Program
	cfg         Config // capture-time configuration
	warmupInsts uint64

	// emu holds the architectural state at the checkpoint: registers, PC,
	// memory, and the executed-instruction count. It seeds the timing
	// model's rename map and committed memory, and (under Config.Verify) the
	// oracle.
	emu *emu.Emulator

	icache *cache.ICache
	dcache *cache.DCache
	bp     *bpred.Predictor
	bit    *core.BIT
}

// Program returns the program the snapshot was captured from. Restored
// processors run this exact program image.
func (s *Snapshot) Program() *isa.Program { return s.prog }

// WarmupInsts returns how many instructions the capture fast-forwarded.
func (s *Snapshot) WarmupInsts() uint64 { return s.warmupInsts }

// PC returns the architectural program counter at the checkpoint — the
// first instruction of the measured region.
func (s *Snapshot) PC() uint32 { return s.emu.PC }

// Config returns the capture-time configuration.
func (s *Snapshot) Config() Config { return s.cfg }

// CaptureSnapshot fast-forwards the first warmupInsts instructions of prog
// functionally — the emulator executes them architecturally, no timing is
// modelled — and warms the model-independent structures along the committed
// path exactly once:
//
//   - the instruction cache, one line fill per line transition of the
//     committed instruction stream;
//   - the data cache, one access per load/store effective address;
//   - the branch predictor: direction counters trained with actual
//     outcomes, indirect targets recorded, the return-address stack
//     maintained across calls and returns;
//   - the BIT, one lookup per committed forward conditional branch (which
//     also memoises the pure FGCI region analysis).
//
// Structure access counters are then zeroed so a restored run's statistics
// cover the measured region only.
//
// This is the fast-forward-then-checkpoint methodology of sampled
// simulation: predictors and caches observe the true execution history, so
// the measured region starts from steady state rather than from a cold
// machine, and — because the committed path is the same under every
// trace-selection model — a single capture serves the whole model grid.
//
// warmupInsts may be zero, in which case the snapshot is a reset-state
// checkpoint and a restored run is identical to a cold New. The warm-up
// must end strictly before the program halts; running into the halt
// instruction is an error (there would be no measured region left).
//
// Cancelling ctx abandons the capture promptly (within ~a thousand
// emulated instructions) and returns the context's error — long warm-ups
// honour the same cancellation contract as simulation itself.
func CaptureSnapshot(ctx context.Context, prog *isa.Program, cfg Config, warmupInsts uint64) (*Snapshot, error) {
	if prog == nil {
		return nil, errors.New("snapshot: nil program")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}

	e := emu.New(prog)
	ic := cache.NewICache(cfg.ICache)
	dc := cache.NewDCache(cfg.DCache)
	bp := bpred.New(cfg.BPred, cfg.Seed)
	bit := core.NewBIT(prog, effectiveBITConfig(cfg))

	var rec emu.Record
	var lastPC uint32
	for i := uint64(0); i < warmupInsts; i++ {
		if i%ctxCheckInterval == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		e.Step(&rec)
		if rec.Halted {
			return nil, fmt.Errorf("snapshot: warm-up of %d instructions runs past the program's halt (%d executed)",
				warmupInsts, i)
		}
		if i == 0 || !ic.SameLine(lastPC, rec.PC) {
			ic.Fetch(rec.PC)
		}
		lastPC = rec.PC

		switch rec.Inst.Op {
		case isa.OpBeq, isa.OpBne, isa.OpBlt, isa.OpBge:
			bp.UpdateDirection(rec.PC, rec.Taken)
			if rec.Inst.Target > rec.PC { // forward
				bit.Lookup(rec.PC)
			}
		case isa.OpCall:
			bp.PushRAS(rec.PC + 1)
		case isa.OpCallR:
			bp.PushRAS(rec.PC + 1)
			bp.UpdateIndirect(rec.PC, rec.NextPC)
		case isa.OpRet:
			bp.PopRAS()
			bp.UpdateIndirect(rec.PC, rec.NextPC)
		case isa.OpJr:
			bp.UpdateIndirect(rec.PC, rec.NextPC)
		case isa.OpLoad, isa.OpStore:
			dc.Access(rec.Addr)
		}
	}

	// Freeze: the warmed contents stay, the measured region counts from
	// zero.
	ic.ResetStats()
	dc.ResetStats()
	bp.ResetStats()
	bit.ResetStats()

	return &Snapshot{
		prog:        prog,
		cfg:         cfg,
		warmupInsts: warmupInsts,
		emu:         e,
		icache:      ic,
		dcache:      dc,
		bp:          bp,
		bit:         bit,
	}, nil
}

// CompatibleWith reports whether a processor configured with cfg can be
// restored from the snapshot: every field that sizes or seeds a cache or a
// predictor must match the capture-time configuration, including those of
// the trace cache and the next-trace predictor, which a restore resets
// rather than copies. Fields that only shape the measured simulation — PE
// count, issue width, bus counts and latencies, verification, watchdog —
// may differ freely, so a window-sizing sweep can share one warm-up.
func (s *Snapshot) CompatibleWith(cfg Config) error {
	mismatch := func(field string, capture, restore any) error {
		return fmt.Errorf("%w: %s was %+v at capture, %+v at restore",
			ErrIncompatibleSnapshot, field, capture, restore)
	}
	switch {
	case cfg.ICache != s.cfg.ICache:
		return mismatch("ICache", s.cfg.ICache, cfg.ICache)
	case cfg.DCache != s.cfg.DCache:
		return mismatch("DCache", s.cfg.DCache, cfg.DCache)
	case cfg.TCache != s.cfg.TCache:
		return mismatch("TCache", s.cfg.TCache, cfg.TCache)
	case cfg.BPred != s.cfg.BPred:
		return mismatch("BPred", s.cfg.BPred, cfg.BPred)
	case cfg.TPred != s.cfg.TPred:
		return mismatch("TPred", s.cfg.TPred, cfg.TPred)
	case effectiveBITConfig(cfg) != effectiveBITConfig(s.cfg):
		return mismatch("BIT", effectiveBITConfig(s.cfg), effectiveBITConfig(cfg))
	case cfg.MaxTraceLen != s.cfg.MaxTraceLen:
		return mismatch("MaxTraceLen", s.cfg.MaxTraceLen, cfg.MaxTraceLen)
	case cfg.Seed != s.cfg.Seed:
		return mismatch("Seed", s.cfg.Seed, cfg.Seed)
	}
	return nil
}

// NewFromSnapshot builds a processor that resumes from snap under the given
// model and configuration: architectural state (registers, memory, PC, the
// oracle when Config.Verify is set) and the warmed structures are deep-
// cloned from the snapshot, everything else — window, ARB, trace-level
// sequencing — starts empty, exactly as it would at reset. The restored
// run's statistics cover the measured region only; Stats.WarmupInsts
// records the fast-forwarded prefix.
//
// The configuration must satisfy snap.CompatibleWith; violations are
// reported as errors wrapping ErrIncompatibleSnapshot. The configuration is
// otherwise validated like New's (the caller is expected to have run
// Config.Validate, as package tracep does).
func NewFromSnapshot(snap *Snapshot, model Model, cfg Config) (*Processor, error) {
	p := &Processor{}
	if err := p.ResetFromSnapshot(snap, model, cfg); err != nil {
		return nil, err
	}
	return p, nil
}

// ResetFromSnapshot turns p into the processor NewFromSnapshot(snap, model,
// cfg) returns, reusing the storage of p's previous run like Reset. On error
// p is left unchanged.
func (p *Processor) ResetFromSnapshot(snap *Snapshot, model Model, cfg Config) error {
	if snap == nil {
		return errors.New("snapshot: nil snapshot")
	}
	if err := snap.CompatibleWith(cfg); err != nil {
		return err
	}
	p.build(snap.prog, model, cfg, snap)
	return nil
}
