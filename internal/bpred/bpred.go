// Package bpred implements the branch predictor used by the trace
// processor's instruction-level sequencing (trace construction and trace
// repair): a 16K-entry tagless BTB with 2-bit saturating counters (Table 1)
// for conditional-branch directions plus per-entry targets for indirect
// branches, and a small return-address stack used as a next-PC fallback when
// the trace-level sequencer has no prediction after a return-terminated
// trace.
package bpred

import (
	"fmt"
	"slices"

	"tracep/internal/isa"
)

// Config sizes the predictor.
type Config struct {
	// Entries is the number of BTB entries (power of two). Table 1: 16K.
	Entries int
	// RASDepth is the return-address-stack depth.
	RASDepth int
	// Seed, when nonzero, initialises the direction counters and the BTB
	// indirect-target fields from a deterministic PRNG instead of the
	// weakly-not-taken / no-target reset, for predictor warm-up sensitivity
	// studies. Scrambled targets model BTB aliasing from a prior context:
	// construction from a bogus start PC decodes out-of-image instructions
	// as halts and the normal indirect-misprediction recovery repairs the
	// trace when the real target resolves. 0 keeps the canonical reset.
	Seed int64
}

// DefaultConfig matches Table 1.
func DefaultConfig() Config { return Config{Entries: 16384, RASDepth: 16} }

// Predictor is a tagless BTB: a direction table of 2-bit counters indexed by
// PC, with a target field per entry for indirect-branch target prediction.
type Predictor struct {
	cfg    Config   //tracep:nostats configuration
	mask   uint32   //tracep:nostats configuration
	ctr    []uint8  //tracep:nostats model state: 2-bit saturating counters, initialised weakly not-taken
	target []uint32 //tracep:nostats model state

	ras []uint32 //tracep:nostats model state

	// Lookups counts direction predictions made.
	Lookups uint64
}

// New builds a predictor. Entries must be a power of two.
func New(cfg Config) *Predictor {
	p := &Predictor{}
	p.Reset(cfg)
	return p
}

// Reset returns the predictor to the state New(cfg) builds, reusing its
// tables where they are large enough.
func (p *Predictor) Reset(cfg Config) {
	if cfg.Entries <= 0 {
		cfg = DefaultConfig()
	}
	if cfg.Entries&(cfg.Entries-1) != 0 {
		panic("bpred: Entries must be a power of two")
	}
	p.cfg, p.mask = cfg, uint32(cfg.Entries-1)
	p.ctr = slices.Grow(p.ctr[:0], cfg.Entries)[:cfg.Entries]
	p.target = slices.Grow(p.target[:0], cfg.Entries)[:cfg.Entries]
	clear(p.target)
	p.ras = p.ras[:0]
	p.Lookups = 0
	if cfg.Seed != 0 {
		x := uint64(cfg.Seed)
		nextRand := func() uint64 {
			// splitmix64: cheap, well-mixed, reproducible.
			x += 0x9E3779B97F4A7C15
			z := x
			z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
			z = (z ^ (z >> 27)) * 0x94D049BB133111EB
			return z ^ (z >> 31)
		}
		for i := range p.ctr {
			p.ctr[i] = uint8(nextRand() & 3)
		}
		// Scramble a sparse subset of BTB targets (1 in 8) to model aliased
		// leftovers rather than a uniformly poisoned table; 0 stays "no
		// prediction" for the rest.
		for i := range p.target {
			if r := nextRand(); r&7 == 0 {
				p.target[i] = uint32(r>>16) & 0xFFFFF
			}
		}
	} else {
		for i := range p.ctr {
			p.ctr[i] = 1 // weakly not-taken
		}
	}
}

// Clone copies the predictor — counters, targets and the return-address
// stack — into dst, reusing dst's tables, and returns dst; a nil dst gets
// fresh ones. A warmed predictor captured in a snapshot is cloned into every
// simulation restored from it.
func (p *Predictor) Clone(dst *Predictor) *Predictor {
	if dst == nil {
		dst = &Predictor{}
	}
	ctr := append(dst.ctr[:0], p.ctr...)
	target := append(dst.target[:0], p.target...)
	ras := append(dst.ras[:0], p.ras...)
	*dst = *p
	dst.ctr, dst.target, dst.ras = ctr, target, ras
	return dst
}

// ResetStats zeroes the lookup counter, keeping the trained state.
func (p *Predictor) ResetStats() { p.Lookups = 0 }

// ExportState exposes the direction counters, BTB targets and return-address
// stack for serialisation. The returned slices are the live arrays: callers
// must treat them as read-only and must not hold them across predictions.
func (p *Predictor) ExportState() (ctr []uint8, target, ras []uint32) {
	return p.ctr, p.target, p.ras
}

// ImportState overwrites the predictor's trained state with previously
// exported arrays (copying, not aliasing). Counter and target table lengths
// must match the configured entry count; the RAS must fit the configured
// depth; counters are 2-bit saturating, so values beyond 3 are invalid.
func (p *Predictor) ImportState(ctr []uint8, target, ras []uint32) error {
	if len(ctr) != len(p.ctr) || len(target) != len(p.target) {
		return fmt.Errorf("bpred: state tables are %d/%d entries, configuration needs %d",
			len(ctr), len(target), len(p.ctr))
	}
	if len(ras) > p.cfg.RASDepth {
		return fmt.Errorf("bpred: RAS of %d entries exceeds configured depth %d", len(ras), p.cfg.RASDepth)
	}
	for i, c := range ctr {
		if c > 3 {
			return fmt.Errorf("bpred: entry %d has counter value %d beyond the 2-bit range", i, c)
		}
	}
	copy(p.ctr, ctr)
	copy(p.target, target)
	p.ras = append(p.ras[:0], ras...)
	return nil
}

//tracep:noalloc
func (p *Predictor) idx(pc uint32) uint32 { return pc & p.mask }

// PredictDirection predicts a conditional branch at pc: taken when the 2-bit
// counter's high bit is set.
//
//tracep:noalloc
func (p *Predictor) PredictDirection(pc uint32) bool {
	p.Lookups++
	return p.ctr[p.idx(pc)] >= 2
}

// UpdateDirection trains the 2-bit counter for the branch at pc.
//
//tracep:noalloc
func (p *Predictor) UpdateDirection(pc uint32, taken bool) {
	i := p.idx(pc)
	if taken {
		if p.ctr[i] < 3 {
			p.ctr[i]++
		}
	} else if p.ctr[i] > 0 {
		p.ctr[i]--
	}
}

// PredictIndirect predicts the target of an indirect jump at pc from the
// tagless BTB target field (0 means no prediction yet).
func (p *Predictor) PredictIndirect(pc uint32) uint32 { return p.target[p.idx(pc)] }

// UpdateIndirect records the observed target of the indirect jump at pc.
//
//tracep:noalloc
func (p *Predictor) UpdateIndirect(pc, target uint32) { p.target[p.idx(pc)] = target }

// PushRAS records a call's return address.
func (p *Predictor) PushRAS(ret uint32) {
	if len(p.ras) >= p.cfg.RASDepth {
		copy(p.ras, p.ras[1:])
		p.ras[len(p.ras)-1] = ret
		return
	}
	p.ras = append(p.ras, ret)
}

// PopRAS predicts a return target; ok is false when the stack is empty.
func (p *Predictor) PopRAS() (uint32, bool) {
	if len(p.ras) == 0 {
		return 0, false
	}
	ret := p.ras[len(p.ras)-1]
	p.ras = p.ras[:len(p.ras)-1]
	return ret, true
}

// PredictInst predicts both direction and next PC for the instruction at pc,
// maintaining the RAS for calls and returns. It is the primitive the trace
// constructor uses when walking the instruction stream.
func (p *Predictor) PredictInst(pc uint32, in isa.Inst) (taken bool, next uint32) {
	switch {
	case in.IsCondBranch():
		taken = p.PredictDirection(pc)
		if taken {
			return true, in.Target
		}
		return false, pc + 1
	case in.Op == isa.OpJump:
		return true, in.Target
	case in.Op == isa.OpCall:
		p.PushRAS(pc + 1)
		return true, in.Target
	case in.Op == isa.OpRet:
		if t, ok := p.PopRAS(); ok {
			return true, t
		}
		return true, p.PredictIndirect(pc)
	case in.Op == isa.OpCallR:
		p.PushRAS(pc + 1)
		return true, p.PredictIndirect(pc)
	case in.Op == isa.OpJr:
		return true, p.PredictIndirect(pc)
	default:
		return false, pc + 1
	}
}
