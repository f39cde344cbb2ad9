package proc

import (
	"errors"
	"fmt"

	"tracep/internal/core"
)

// ErrStatsLaw is the sentinel wrapped by the error a verified run fails with
// when its counters break an accounting identity (see checkStatsLaws); test
// with errors.Is.
var ErrStatsLaw = errors.New("stats law violated")

// ClassStats aggregates per-class conditional branch statistics (Table 5).
// The json tags pin the wire names (tracep.Result / ci-baseline.json); see
// Stats.
type ClassStats struct {
	Dynamic       uint64 `json:"Dynamic"`
	Mispredicted  uint64 `json:"Mispredicted"`
	DynSizeSum    uint64 `json:"DynSizeSum"`
	StaticSizeSum uint64 `json:"StaticSizeSum"`
	CondBrSum     uint64 `json:"CondBrSum"`
}

// MispRate returns the class misprediction rate.
func (c ClassStats) MispRate() float64 {
	if c.Dynamic == 0 {
		return 0
	}
	return float64(c.Mispredicted) / float64(c.Dynamic)
}

// Stats collects everything the paper's tables and figures report.
//
// Stats is a wire struct: it serialises into tracep.Result cells, travels
// over the tracepd HTTP API, and is pinned byte-for-byte by
// testdata/ci-baseline.json. Every exported field therefore carries an
// explicit json tag (enforced by tracepvet's wirejson analyzer); the tag
// names repeat the Go names because that is the wire format the baseline
// was recorded with — renaming a tag is a wire-format break and must come
// with a baseline refresh.
type Stats struct {
	Cycles       uint64 `json:"Cycles"`
	RetiredInsts uint64 `json:"RetiredInsts"`

	// WarmupInsts is the number of instructions fast-forwarded functionally
	// before the measured region (0 for a cold run). It is metadata, not a
	// measurement: every other counter covers the measured region only.
	// Baseline diffs use it to refuse comparing warm against cold cells.
	WarmupInsts uint64 `json:"WarmupInsts,omitempty"`

	RetiredTraces      uint64 `json:"RetiredTraces"`
	RetiredTraceLenSum uint64 `json:"RetiredTraceLenSum"`
	DispatchedTraces   uint64 `json:"DispatchedTraces"`
	SquashedTraces     uint64 `json:"SquashedTraces"`
	SquashedInsts      uint64 `json:"SquashedInsts"`

	// Recoveries counts trace-level mispredictions (each triggers one
	// recovery), split by mode.
	Recoveries     uint64 `json:"Recoveries"`
	FGCIRecoveries uint64 `json:"FGCIRecoveries"`
	CGCIRecoveries uint64 `json:"CGCIRecoveries"`
	BaseRecoveries uint64 `json:"BaseRecoveries"`

	Reconvergences         uint64 `json:"Reconvergences"`
	CGCIDegenerate         uint64 `json:"CGCIDegenerate"`
	TailReclaims           uint64 `json:"TailReclaims"`
	FGCIBoundaryViolations uint64 `json:"FGCIBoundaryViolations"`
	FetchRedirects         uint64 `json:"FetchRedirects"`

	RedispatchedTraces uint64 `json:"RedispatchedTraces"`
	RedispatchRebinds  uint64 `json:"RedispatchRebinds"`
	RedispatchReissues uint64 `json:"RedispatchReissues"`

	Reissues          uint64 `json:"Reissues"`
	LoadSnoopReissues uint64 `json:"LoadSnoopReissues"`
	Broadcasts        uint64 `json:"Broadcasts"`
	Loads             uint64 `json:"Loads"`
	Stores            uint64 `json:"Stores"`

	// ValuePredictions and ValueMispredictions are always 0: the engine
	// does not model Figure 2's live-in value predictor, which the paper's
	// evaluation never enables. They are kept because they are part of the
	// Result JSON, and committed baselines, journals and digests pin those
	// bytes.
	ValuePredictions    uint64 `json:"ValuePredictions"`
	ValueMispredictions uint64 `json:"ValueMispredictions"`

	// Frontend structures (filled by finalizeStats).
	TCLookups    uint64 `json:"TCLookups"`
	TCMisses     uint64 `json:"TCMisses"`
	ICAccesses   uint64 `json:"ICAccesses"`
	ICMisses     uint64 `json:"ICMisses"`
	DCAccesses   uint64 `json:"DCAccesses"`
	DCMisses     uint64 `json:"DCMisses"`
	BITLookups   uint64 `json:"BITLookups"`
	BITMisses    uint64 `json:"BITMisses"`
	TPredictions uint64 `json:"TPredictions"`
	TPredTrains  uint64 `json:"TPredTrains"`

	// BranchClasses indexes by core.BranchClass: FGCI<=32, FGCI>32, other
	// forward, backward.
	BranchClasses [4]ClassStats `json:"BranchClasses"`
}

func (p *Processor) finalizeStats() {
	s := &p.Stats
	s.TCLookups, s.TCMisses = p.tcache.Stats()
	s.ICAccesses, s.ICMisses = p.icache.Stats()
	s.DCAccesses, s.DCMisses = p.dcache.Stats()
	s.BITLookups, s.BITMisses = p.bit.Lookups, p.bit.Misses()
	s.TPredictions = p.tp.Predictions
	s.TPredTrains = p.tp.Trains
}

// checkStatsLaws checks the accounting identities between the Stats
// counters, which hold at every cycle boundary once finalizeStats has run:
// every recovery is of exactly one kind, retired trace lengths sum to the
// retired instructions, at most one trace of at most MaxTraceLen
// instructions retires per cycle, no cache misses more often than it is
// accessed, every dispatched trace has retired, been squashed, or is still
// in the window, a model recovers only in the modes it has, and the Table
// 5 branch classes count every conditional branch the oracle committed.
// RunContext checks them at the end of a verified run.
func (p *Processor) checkStatsLaws() error {
	s := &p.Stats
	if kinds := s.FGCIRecoveries + s.CGCIRecoveries + s.BaseRecoveries; s.Recoveries != kinds {
		return fmt.Errorf("%w: Recoveries %d != FGCI %d + CGCI %d + base %d", ErrStatsLaw, s.Recoveries, s.FGCIRecoveries, s.CGCIRecoveries, s.BaseRecoveries)
	}
	if !p.model.FGCI && s.FGCIRecoveries != 0 {
		return fmt.Errorf("%w: model %s has no FGCI but made %d FGCI recoveries", ErrStatsLaw, p.model.Name, s.FGCIRecoveries)
	}
	if p.model.CGCI == CGCINone && s.CGCIRecoveries != 0 {
		return fmt.Errorf("%w: model %s has no CGCI but made %d CGCI recoveries", ErrStatsLaw, p.model.Name, s.CGCIRecoveries)
	}
	if p.cfg.Verify {
		classified := uint64(0)
		for _, c := range s.BranchClasses {
			classified += c.Dynamic
		}
		if classified != p.oracleCondBrs {
			return fmt.Errorf("%w: the branch classes count %d conditional branches, the oracle committed %d", ErrStatsLaw, classified, p.oracleCondBrs)
		}
	}
	if s.RetiredTraceLenSum != s.RetiredInsts {
		return fmt.Errorf("%w: RetiredTraceLenSum %d != RetiredInsts %d", ErrStatsLaw, s.RetiredTraceLenSum, s.RetiredInsts)
	}
	if limit := s.Cycles * uint64(p.cfg.MaxTraceLen); s.RetiredInsts > limit {
		return fmt.Errorf("%w: RetiredInsts %d > Cycles %d x MaxTraceLen %d", ErrStatsLaw, s.RetiredInsts, s.Cycles, p.cfg.MaxTraceLen)
	}
	for _, c := range [...]struct {
		name           string
		misses, probes uint64
	}{
		{"TC", s.TCMisses, s.TCLookups},
		{"IC", s.ICMisses, s.ICAccesses},
		{"DC", s.DCMisses, s.DCAccesses},
	} {
		if c.misses > c.probes {
			return fmt.Errorf("%w: %sMisses %d > %d accesses", ErrStatsLaw, c.name, c.misses, c.probes)
		}
	}
	inWindow := uint64(0)
	for id := p.head; id >= 0; id = p.pes[id].next {
		inWindow++
	}
	if s.DispatchedTraces != s.RetiredTraces+s.SquashedTraces+inWindow {
		return fmt.Errorf("%w: DispatchedTraces %d != retired %d + squashed %d + %d in the window",
			ErrStatsLaw, s.DispatchedTraces, s.RetiredTraces, s.SquashedTraces, inWindow)
	}
	return nil
}

// IPC returns retired instructions per cycle.
func (s *Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.RetiredInsts) / float64(s.Cycles)
}

// AvgTraceLen returns the average retired trace length (Table 4).
func (s *Stats) AvgTraceLen() float64 {
	if s.RetiredTraces == 0 {
		return 0
	}
	return float64(s.RetiredTraceLenSum) / float64(s.RetiredTraces)
}

// TraceMispPer1000 returns trace mispredictions per 1000 retired
// instructions (Table 4).
func (s *Stats) TraceMispPer1000() float64 {
	if s.RetiredInsts == 0 {
		return 0
	}
	return 1000 * float64(s.Recoveries) / float64(s.RetiredInsts)
}

// TraceMispRate returns trace mispredictions per retired trace (Table 4's
// percentage).
func (s *Stats) TraceMispRate() float64 {
	if s.RetiredTraces == 0 {
		return 0
	}
	return float64(s.Recoveries) / float64(s.RetiredTraces)
}

// TCMissPer1000 returns trace cache misses per 1000 retired instructions
// (Table 4).
func (s *Stats) TCMissPer1000() float64 {
	if s.RetiredInsts == 0 {
		return 0
	}
	return 1000 * float64(s.TCMisses) / float64(s.RetiredInsts)
}

// TCMissRate returns the trace cache miss ratio (Table 4's percentage).
func (s *Stats) TCMissRate() float64 {
	if s.TCLookups == 0 {
		return 0
	}
	return float64(s.TCMisses) / float64(s.TCLookups)
}

// ICMissPer1000 returns instruction cache misses per 1000 retired
// instructions.
func (s *Stats) ICMissPer1000() float64 {
	if s.RetiredInsts == 0 {
		return 0
	}
	return 1000 * float64(s.ICMisses) / float64(s.RetiredInsts)
}

// DCMissPer1000 returns data cache misses per 1000 retired instructions.
func (s *Stats) DCMissPer1000() float64 {
	if s.RetiredInsts == 0 {
		return 0
	}
	return 1000 * float64(s.DCMisses) / float64(s.RetiredInsts)
}

// CondBranches returns the total dynamic conditional branch count.
func (s *Stats) CondBranches() uint64 {
	var n uint64
	for _, c := range s.BranchClasses {
		n += c.Dynamic
	}
	return n
}

// CondMispredictions returns the total dynamic conditional branch
// mispredictions.
func (s *Stats) CondMispredictions() uint64 {
	var n uint64
	for _, c := range s.BranchClasses {
		n += c.Mispredicted
	}
	return n
}

// BranchMispRate returns the overall conditional branch misprediction rate
// (Table 5).
func (s *Stats) BranchMispRate() float64 {
	b := s.CondBranches()
	if b == 0 {
		return 0
	}
	return float64(s.CondMispredictions()) / float64(b)
}

// BranchMispPer1000 returns branch mispredictions per 1000 retired
// instructions (Table 5).
func (s *Stats) BranchMispPer1000() float64 {
	if s.RetiredInsts == 0 {
		return 0
	}
	return 1000 * float64(s.CondMispredictions()) / float64(s.RetiredInsts)
}

// Class accessors by paper name.

// FGCISmall returns stats for FGCI branches whose region fits in a trace.
func (s *Stats) FGCISmall() ClassStats { return s.BranchClasses[core.ClassFGCISmall] }

// FGCIBig returns stats for FGCI branches with regions larger than a trace.
func (s *Stats) FGCIBig() ClassStats { return s.BranchClasses[core.ClassFGCIBig] }

// OtherForward returns stats for non-FGCI forward branches.
func (s *Stats) OtherForward() ClassStats { return s.BranchClasses[core.ClassOtherForward] }

// Backward returns stats for backward branches.
func (s *Stats) Backward() ClassStats { return s.BranchClasses[core.ClassBackward] }
