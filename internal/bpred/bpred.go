// Package bpred implements the branch predictor used by the trace
// processor's instruction-level sequencing (trace construction and trace
// repair): a 16K-entry tagless BTB with 2-bit saturating counters (Table 1)
// for conditional-branch directions plus per-entry targets for indirect
// branches, and a small return-address stack used as a next-PC fallback when
// the trace-level sequencer has no prediction after a return-terminated
// trace.
package bpred

import "slices"

// Config sizes the predictor.
type Config struct {
	// Entries is the number of BTB entries (power of two). Table 1: 16K.
	Entries int
	// RASDepth is the return-address-stack depth.
	RASDepth int
}

// DefaultConfig matches Table 1.
func DefaultConfig() Config { return Config{Entries: 16384, RASDepth: 16} }

// Predictor is a tagless BTB: a direction table of 2-bit counters indexed by
// PC, with a target field per entry for indirect-branch target prediction.
type Predictor struct {
	cfg    Config   //tracep:nostats configuration
	mask   uint32   //tracep:nostats configuration
	seed   int64    //tracep:nostats configuration: see New
	ctr    []uint8  //tracep:nostats model state: 2-bit saturating counters
	target []uint32 //tracep:nostats model state

	// stamp[i] is the Reset generation that last wrote entry i (its counter
	// and target together), and gen the current one. Reset increments gen
	// instead of rewriting the tables, so an entry with an older stamp reads
	// as its pristine value (see pristine). Stamps never exceed gen.
	stamp []uint32 //tracep:nostats model state
	gen   uint32   //tracep:nostats model state

	ras []uint32 //tracep:nostats model state

	// Lookups counts direction predictions made.
	Lookups uint64
}

// New builds a predictor. Entries must be a power of two. A nonzero seed
// initialises the direction counters and the BTB indirect-target fields
// from a deterministic PRNG instead of the weakly-not-taken / no-target
// reset, for predictor warm-up sensitivity studies. Scrambled targets model
// BTB aliasing from a prior context: construction from a bogus start PC
// decodes out-of-image instructions as halts and the normal
// indirect-misprediction recovery repairs the trace when the real target
// resolves. Seed 0 keeps the canonical reset.
func New(cfg Config, seed int64) *Predictor {
	p := &Predictor{}
	p.Reset(cfg, seed)
	return p
}

// Reset returns the predictor to the state New(cfg, seed) builds, reusing
// its tables where they are large enough. It rewrites no entry: it starts a
// new generation, so every entry reads as pristine until it is next written.
func (p *Predictor) Reset(cfg Config, seed int64) {
	if cfg.Entries <= 0 {
		cfg = DefaultConfig()
	}
	if cfg.Entries&(cfg.Entries-1) != 0 {
		panic("bpred: Entries must be a power of two")
	}
	p.cfg, p.mask, p.seed = cfg, uint32(cfg.Entries-1), seed
	p.ctr = slices.Grow(p.ctr[:0], cfg.Entries)[:cfg.Entries]
	p.target = slices.Grow(p.target[:0], cfg.Entries)[:cfg.Entries]
	p.stamp = slices.Grow(p.stamp[:0], cfg.Entries)[:cfg.Entries]
	p.gen++
	if p.gen == 0 {
		// The stamps would alias after 2^32 resets: restart them.
		clear(p.stamp[:cap(p.stamp)])
		p.gen = 1
	}
	p.ras = p.ras[:0]
	p.Lookups = 0
}

// splitmix64 returns the k-th output (from 1) of the splitmix64 generator
// started at state x: cheap, well-mixed, reproducible, and computable for
// any k without drawing the ones before it.
//
//tracep:noalloc
func splitmix64(x, k uint64) uint64 {
	z := x + k*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// pristine is entry i as Reset leaves it. Unseeded, the counter is weakly
// not-taken and there is no target. Seeded, the counters take draws
// 1..Entries of one splitmix64 stream and the targets the next Entries
// draws, of which a sparse subset (1 in 8) sets a target, to model aliased
// leftovers rather than a uniformly poisoned table; 0 stays "no prediction"
// for the rest.
//
//tracep:noalloc
func (p *Predictor) pristine(i uint32) (ctr uint8, target uint32) {
	if p.seed == 0 {
		return 1, 0
	}
	x := uint64(p.seed)
	ctr = uint8(splitmix64(x, uint64(i)+1) & 3)
	if r := splitmix64(x, uint64(p.cfg.Entries)+uint64(i)+1); r&7 == 0 {
		target = uint32(r>>16) & 0xFFFFF
	}
	return ctr, target
}

// entry returns the index of the entry for pc, writing its pristine value
// first if the current generation has not written it.
//
//tracep:noalloc
func (p *Predictor) entry(pc uint32) uint32 {
	i := pc & p.mask
	if p.stamp[i] != p.gen {
		p.ctr[i], p.target[i] = p.pristine(i)
		p.stamp[i] = p.gen
	}
	return i
}

// Clone copies the predictor — counters, targets, their generation stamps
// and the return-address stack — into dst, reusing dst's tables, and
// returns dst; a nil dst gets fresh ones. A warmed predictor captured in a
// snapshot is cloned into every simulation restored from it.
func (p *Predictor) Clone(dst *Predictor) *Predictor {
	if dst == nil {
		dst = &Predictor{}
	}
	ctr := append(dst.ctr[:0], p.ctr...)
	target := append(dst.target[:0], p.target...)
	stamp := append(dst.stamp[:0], p.stamp...)
	ras := append(dst.ras[:0], p.ras...)
	*dst = *p
	dst.ctr, dst.target, dst.stamp, dst.ras = ctr, target, stamp, ras
	return dst
}

// ResetStats zeroes the lookup counter, keeping the trained state.
func (p *Predictor) ResetStats() { p.Lookups = 0 }

// PredictDirection predicts a conditional branch at pc: taken when the 2-bit
// counter's high bit is set.
//
//tracep:noalloc
func (p *Predictor) PredictDirection(pc uint32) bool {
	p.Lookups++
	return p.ctr[p.entry(pc)] >= 2
}

// UpdateDirection trains the 2-bit counter for the branch at pc.
//
//tracep:noalloc
func (p *Predictor) UpdateDirection(pc uint32, taken bool) {
	i := p.entry(pc)
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
func (p *Predictor) PredictIndirect(pc uint32) uint32 { return p.target[p.entry(pc)] }

// UpdateIndirect records the observed target of the indirect jump at pc.
//
//tracep:noalloc
func (p *Predictor) UpdateIndirect(pc, target uint32) { p.target[p.entry(pc)] = target }

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
