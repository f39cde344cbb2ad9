package trace

import (
	"tracep/internal/bpred"
	"tracep/internal/cache"
	"tracep/internal/core"
	"tracep/internal/isa"
)

// SelConfig configures trace selection (§3.2, §4.1).
type SelConfig struct {
	// MaxLen is the maximum trace length (Table 1: 32).
	MaxLen int
	// NTB terminates traces at predicted not-taken backward branches,
	// exposing loop exits as trace-level re-convergent points for CGCI.
	NTB bool
	// FG enables FGCI padding selection: an embeddable region accrues its
	// full dynamic region size regardless of which path is actually taken,
	// so every alternate path through the region ends the trace at the same
	// point.
	FG bool
}

// Constructor builds traces by walking the static program, following either
// forced branch outcomes (from a trace prediction) or the branch predictor.
// It implements the "outstanding trace buffer" construction path of the
// frontend: construction consumes instruction-cache bandwidth at one basic
// block per cycle and consults the BIT under FGCI selection.
type Constructor struct {
	Prog *isa.Program
	Sel  SelConfig
	// BIT supplies region information for FGCI selection; required when
	// Sel.FG is set.
	BIT *core.BIT
	// BP predicts directions of branches with no forced outcome; may be nil
	// (defaults to not-taken).
	BP *bpred.Predictor
	// IC models instruction-cache timing for construction; may be nil (no
	// icache latency modelled).
	IC *cache.ICache

	// scratch is the reusable Trace that BuildTransient fills: the engine's
	// steady state constructs many traces that are immediately discarded (the
	// branch-predictor-driven fetch path builds a trace just to form its
	// descriptor and then hits the trace cache), and reusing one Trace's
	// backing storage keeps those builds allocation-free. Keep transfers
	// ownership out of the scratch when a build must outlive the next one.
	scratch *Trace
	// frozenScratch backs the open-FGCI-region branch list across builds.
	frozenScratch []int
	// pool holds recycled persistent traces (Recycle) awaiting reuse as
	// scratch, so the fetch stream's trace churn — construct, dispatch,
	// evict, retire — reuses a bounded set of Trace structures instead of
	// allocating one per kept build. The pool outlives a run: Reset keeps it
	// for the next one.
	pool []*Trace
}

// Build constructs the trace starting at startPC. The first len(forced)
// conditional branches take the given outcomes (a trace prediction); any
// further branches consult the branch predictor. It returns the trace and
// the construction latency in cycles (basic-block fetches, instruction-cache
// misses, and BIT miss handling). The returned trace is persistent: it is
// owned by the caller and survives later builds.
//
//tracep:noalloc
func (c *Constructor) Build(startPC uint32, forced []bool) (*Trace, int) {
	t, cycles := c.BuildTransient(startPC, forced)
	return c.Keep(t), cycles
}

// BuildTransient constructs like Build but returns a trace backed by the
// constructor's reusable scratch storage: it is valid only until the next
// Build/BuildTransient call, and only its PCs, branches, descriptor and
// successor are filled in — the pre-renamed dataflow (Srcs, LastWriter,
// LiveIns, LiveOuts, Consumers) is computed by Keep. Callers that decide to
// keep the trace (dispatch it, insert it into the trace cache) must call
// Keep first; callers that discard it (descriptor formed, trace cache hit)
// simply drop it and the storage is reused.
// Construction side effects (instruction-cache fills, BIT lookups) are
// identical to Build's.
//
//tracep:noalloc
func (c *Constructor) BuildTransient(startPC uint32, forced []bool) (*Trace, int) {
	t := c.scratch
	if t == nil {
		if n := len(c.pool); n > 0 {
			t = c.pool[n-1]
			c.pool = c.pool[:n-1]
			t.pooled = false
		} else {
			//tracep:allow pool miss: the steady state recycles retired traces back into the pool
			t = &Trace{}
		}
		c.scratch = t
	}
	t.reset()
	t.Desc = Descriptor{StartPC: startPC}
	cycles := 0
	pc := startPC
	effLen := 0 // cumulative trace length including FGCI padding
	frozen := false
	var freezeEnd uint32
	frozenBranches := c.frozenScratch[:0] // t.Branches indices inside the open region
	brCount := 0
	bbStart := true
	var lastFetchPC uint32
	terminated := false

	for !terminated {
		if frozen && pc >= freezeEnd {
			// Re-convergent point reached: resume length accounting and
			// record the first control-independent index for every branch
			// covered by the region.
			frozen = false
			for _, bi := range frozenBranches {
				t.Branches[bi].ReconvIdx = int16(len(t.PCs))
			}
			frozenBranches = frozenBranches[:0]
		}
		if !frozen && effLen >= c.Sel.MaxLen {
			break
		}
		in := c.Prog.Ref(pc)
		if brCount == MaxBranches && in.IsCondBranch() {
			break
		}

		// FGCI selection: consult the BIT before the branch is added.
		if c.Sel.FG && !frozen && c.BIT != nil && in.IsForwardBranch(pc) {
			reg, lat := c.BIT.Lookup(pc)
			cycles += lat
			if reg.Embeddable(c.Sel.MaxLen) {
				// Any one path through the region executes at most
				// min(NumCondBr, Size) conditional branches.
				if effLen+reg.Size <= c.Sel.MaxLen && brCount+min(reg.NumCondBr, reg.Size) <= MaxBranches {
					frozen = true
					freezeEnd = reg.ReconvPC
					effLen += reg.Size
				} else if len(t.PCs) > 0 {
					// Terminate the trace before the branch; deferring the
					// branch to the next trace ensures all potential FGCI is
					// exposed (§3.2).
					break
				}
			}
		}

		// Instruction fetch accounting: one cycle per basic block, plus one
		// per extra cache line the block spans, plus miss penalties.
		if c.IC != nil {
			if bbStart || !c.IC.SameLine(lastFetchPC, pc) {
				cycles += 1 + c.IC.Fetch(pc)
			}
		} else if bbStart {
			cycles++
		}
		bbStart = false
		lastFetchPC = pc

		idx := int16(len(t.PCs))
		//tracep:allow scratch-trace storage retains capacity across builds
		t.PCs = append(t.PCs, pc)
		if !frozen {
			effLen++
		}

		switch {
		case in.IsCondBranch():
			taken := false
			switch {
			case brCount < len(forced):
				taken = forced[brCount]
			case c.BP != nil:
				taken = c.BP.PredictDirection(pc)
			}
			bi := BranchInfo{Idx: idx, PC: pc, Taken: taken, ReconvIdx: -1}
			if frozen {
				bi.FGCICovered = true
				//tracep:allow frozen-branch scratch retains capacity across builds
				frozenBranches = append(frozenBranches, len(t.Branches))
			}
			//tracep:allow scratch-trace storage retains capacity across builds
			t.Branches = append(t.Branches, bi)
			if taken {
				t.Desc.Outcomes |= 1 << uint(brCount)
			}
			brCount++
			backward := in.IsBackwardBranch(pc)
			if taken {
				pc = in.Target
			} else {
				pc++
			}
			bbStart = true
			if c.Sel.NTB && backward && !taken {
				t.EndsNTB = true
				terminated = true
			}
		case in.Op == isa.OpJump, in.Op == isa.OpCall:
			pc = in.Target
			bbStart = true
		case in.IsIndirect():
			t.EndsIndirect = true
			t.EndsInRet = in.Op == isa.OpRet
			terminated = true
		case in.Op == isa.OpHalt:
			t.EndsHalt = true
			terminated = true
		default:
			pc++
		}
	}

	// Safety: a region that did not close before the trace ended (cannot
	// happen for well-formed embeddable regions) must not claim FGCI
	// coverage.
	for _, bi := range frozenBranches {
		t.Branches[bi].FGCICovered = false
		t.Branches[bi].ReconvIdx = -1
	}

	if !t.EndsIndirect && !t.EndsHalt {
		t.NextPC = pc
	}
	t.Desc.Len = uint16(len(t.PCs))
	t.Desc.NumBr = uint8(brCount)
	c.frozenScratch = frozenBranches[:0]
	return t, cycles
}

// Keep transfers ownership of a transient trace out of the constructor's
// scratch storage, pre-renaming it and making it persistent; the next build
// allocates fresh scratch. Keep on an already persistent trace is a no-op,
// so callers may Keep unconditionally once they decide a trace survives.
//
//tracep:noalloc
func (c *Constructor) Keep(t *Trace) *Trace {
	if t == c.scratch {
		t.prerename(c.Prog)
		c.scratch = nil
	}
	return t
}

// Recycle returns a dead persistent trace — one whose last reference was
// just Released, or one a finished run still holds — to the constructor's
// pool with its reference count cleared; a future build reuses its storage.
// The caller must guarantee nothing still reads the trace. A trace already
// in the pool stays there once: recycling it again is a no-op, so a trace
// with several holders can never back two builds at once.
//
//tracep:noalloc
func (c *Constructor) Recycle(t *Trace) {
	if t == nil || t == c.scratch || t.pooled {
		return
	}
	t.refs = 0
	t.pooled = true
	//tracep:allow pool growth is bounded by the peak number of live traces
	c.pool = append(c.pool, t)
}

// Reset readies the constructor for a new run whose live traces number at
// most limit (trace-cache lines plus those in flight). The scratch trace
// joins the pool, and the pool keeps at most limit traces, so a run on a
// smaller configuration does not pin a larger one's storage. Callers
// Recycle every trace the previous run still holds first.
func (c *Constructor) Reset(limit int) {
	t := c.scratch
	c.scratch = nil
	c.Recycle(t)
	if len(c.pool) > limit {
		clear(c.pool[limit:])
		c.pool = c.pool[:limit]
	}
}

// SuffixCycles estimates the trace-buffer repair latency for re-fetching tr
// from intra-trace index from: one cycle per basic block in the suffix plus
// instruction-cache misses (the prefix is already resident in the buffer).
//
//tracep:noalloc
func (c *Constructor) SuffixCycles(tr *Trace, from int) int {
	cycles := 0
	bbStart := true
	var last uint32
	for i := from; i < len(tr.PCs); i++ {
		pc := tr.PCs[i]
		if c.IC != nil {
			if bbStart || !c.IC.SameLine(last, pc) {
				cycles += 1 + c.IC.Fetch(pc)
			}
		} else if bbStart {
			cycles++
		}
		bbStart = false
		last = pc
		if c.Prog.Ref(pc).IsControl() {
			bbStart = true
		}
	}
	if cycles == 0 {
		cycles = 1
	}
	return cycles
}
