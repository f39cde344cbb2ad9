// Package core implements the paper's primary contribution: the hardware
// mechanisms for exposing control independence at the trace level.
//
//   - The FGCI-algorithm (§3.1): a single-pass scan of the static code
//     following a forward conditional branch that detects forward-branching
//     (embeddable) regions, locates the re-convergent point that closes the
//     region, and computes the dynamic region size — the longest
//     control-dependent path through the region's DAG.
//   - The BIT (branch information table, §3.1): an 8K-entry 4-way cache of
//     FGCI-algorithm results consulted by trace selection.
//   - The CGCI heuristics (§4.2): RET and MLB-RET, which pick a global
//     re-convergent point from the traces resident in the window when a
//     misprediction is not covered by FGCI.
package core

import (
	"slices"

	"tracep/internal/cache"
	"tracep/internal/isa"
)

// Region is the result of running the FGCI-algorithm on one forward
// conditional branch.
type Region struct {
	// BranchPC is the PC of the branch heading the region.
	BranchPC uint32
	// Found reports whether a forward-branching region closed by a
	// re-convergent point was detected at all (no backward branch, call,
	// indirect branch, or halt before re-convergence, and the edge storage
	// capacity was not exceeded).
	Found bool
	// Size is the dynamic region size: the longest control-dependent path
	// through the region in instructions, counting the branch itself
	// (Figure 7's example region has Size 10).
	Size int
	// ReconvPC is the re-convergent point closing the region: the first
	// control-independent instruction.
	ReconvPC uint32
	// StaticSize is the static extent of the region in instructions
	// (ReconvPC - BranchPC), reported in Table 5 as "stat. region size".
	StaticSize int
	// NumCondBr is the number of conditional branches inside the region,
	// including the heading branch (Table 5's "# cond. br. in reg.").
	NumCondBr int
	// Scanned is the number of instructions the single-pass scan examined;
	// the hardware scans 1 instruction/cycle, so this is also the BIT-miss
	// handler latency in cycles.
	Scanned int
}

// Embeddable reports whether the region can be embedded in a trace of
// maxLen instructions — the paper's FGCI candidacy test.
//
//tracep:noalloc
func (r Region) Embeddable(maxLen int) bool { return r.Found && r.Size <= maxLen }

// AnalyzeConfig bounds the FGCI-algorithm's hardware resources.
type AnalyzeConfig struct {
	// MaxSize aborts the scan when any path length exceeds it. The hardware
	// uses the maximum trace length (32); the static classifier in Table 5
	// uses a larger bound so that regions bigger than a trace can still be
	// identified (the ">32" class).
	MaxSize int
	// MaxEdges is the capacity of the associative array holding outstanding
	// branch-target edges (the paper suggests 4-8 entries).
	MaxEdges int
	// MaxScan bounds the total static scan distance as a safety net.
	MaxScan int
}

// DefaultAnalyzeConfig matches the hardware sizing in §3.1 for a
// 32-instruction maximum trace length.
func DefaultAnalyzeConfig() AnalyzeConfig {
	return AnalyzeConfig{MaxSize: 32, MaxEdges: 8, MaxScan: 512}
}

type edge struct {
	target uint32
	val    int
}

// AnalyzeRegion runs the FGCI-algorithm on the forward conditional branch at
// branchPC. It performs the paper's single serial pass: each instruction is
// a node whose value is max(incoming edge values)+1; branch targets are kept
// in a small associative array; the most distant taken target is tracked and
// re-convergence is declared when the scan reaches it.
func AnalyzeRegion(prog *isa.Program, branchPC uint32, cfg AnalyzeConfig) Region {
	reg := Region{BranchPC: branchPC}
	br := prog.Ref(branchPC)
	if !br.IsForwardBranch(branchPC) {
		return reg
	}

	// The branch itself is the first instruction of the region (value 1).
	edges := make([]edge, 0, cfg.MaxEdges)
	addEdge := func(target uint32, val int) bool {
		for i := range edges {
			if edges[i].target == target {
				if val > edges[i].val {
					edges[i].val = val
				}
				return true
			}
		}
		if len(edges) >= cfg.MaxEdges {
			return false
		}
		edges = append(edges, edge{target, val})
		return true
	}
	takeEdges := func(pc uint32) (int, bool) {
		best, found := 0, false
		out := edges[:0]
		for _, e := range edges {
			if e.target == pc {
				if !found || e.val > best {
					best = e.val
				}
				found = true
				continue
			}
			out = append(out, e)
		}
		edges = out
		return best, found
	}

	if !addEdge(br.Target, 1) {
		return reg
	}
	farthest := br.Target
	reg.NumCondBr = 1
	reg.Scanned = 1

	fallVal := 1 // path length flowing into branchPC+1
	fallLive := true
	pc := branchPC + 1

	for {
		if pc == farthest {
			// Re-convergent point reached: region size is the maximum path
			// length propagated to (not including) this instruction.
			size, _ := takeEdges(pc)
			if fallLive && fallVal > size {
				size = fallVal
			}
			reg.Found = true
			reg.Size = size
			reg.ReconvPC = pc
			reg.StaticSize = int(pc - branchPC)
			return reg
		}
		if reg.Scanned >= cfg.MaxScan || int(pc) >= prog.Len() {
			return reg
		}

		// Merge incoming edges with the fall-through path.
		in, hasEdge := takeEdges(pc)
		live := fallLive || hasEdge
		if fallLive && fallVal > in {
			in = fallVal
		}

		inst := prog.Ref(pc)
		reg.Scanned++

		// Disqualifying instructions abort the scan wherever they appear —
		// the serial hardware scanner sees them regardless of liveness.
		switch {
		case inst.Op == isa.OpHalt, inst.IsCall(), inst.IsIndirect():
			return reg
		case inst.IsBackwardBranch(pc):
			return reg
		case inst.Op == isa.OpJump && inst.Target <= pc:
			return reg
		}

		if !live {
			// Dead gap (e.g. after an unconditional jump): no value flows.
			fallLive = false
			pc++
			continue
		}

		val := in + 1
		if val > cfg.MaxSize {
			return reg
		}

		switch {
		case inst.IsCondBranch():
			reg.NumCondBr++
			if !addEdge(inst.Target, val) {
				return reg
			}
			if inst.Target > farthest {
				farthest = inst.Target
			}
			fallVal, fallLive = val, true
		case inst.Op == isa.OpJump:
			if !addEdge(inst.Target, val) {
				return reg
			}
			if inst.Target > farthest {
				farthest = inst.Target
			}
			fallLive = false
		default:
			fallVal, fallLive = val, true
		}
		pc++
	}
}

// BranchClass is Table 5's static class of a conditional branch. The
// values index Stats.BranchClasses.
type BranchClass uint8

const (
	ClassFGCISmall    BranchClass = iota // region found, embeddable in a trace
	ClassFGCIBig                         // region found but larger than a trace
	ClassOtherForward                    // forward branch with no region
	ClassBackward                        // backward branch
)

// ClassifyBranch classifies the conditional branch at pc for Table 5 against
// a maximum trace length of maxLen. It runs the FGCI-algorithm with a bound
// of 4×maxLen, so that regions larger than a trace are still found, and
// returns the region too (not Found for backward and other-forward
// branches; a backward branch is not scanned at all).
func ClassifyBranch(prog *isa.Program, pc uint32, maxLen int) (BranchClass, Region) {
	if prog.Ref(pc).IsBackwardBranch(pc) {
		return ClassBackward, Region{BranchPC: pc}
	}
	reg := AnalyzeRegion(prog, pc, AnalyzeConfig{MaxSize: 4 * maxLen, MaxEdges: 8, MaxScan: 2048})
	switch {
	case reg.Embeddable(maxLen):
		return ClassFGCISmall, reg
	case reg.Found:
		return ClassFGCIBig, reg
	}
	return ClassOtherForward, reg
}

// BITConfig sizes the branch information table.
type BITConfig struct {
	Entries int // Table 1: 8K
	Assoc   int // Table 1: 4-way
	Analyze AnalyzeConfig
}

// DefaultBITConfig matches Table 1.
func DefaultBITConfig() BITConfig {
	return BITConfig{Entries: 8192, Assoc: 4, Analyze: DefaultAnalyzeConfig()}
}

// BIT is the branch information table: a cache of FGCI-algorithm results
// keyed by branch PC. All forward conditional branches allocate entries
// whether embeddable or not, because trace selection needs the
// determination either way (§3.1). A miss runs the FGCI-algorithm and costs
// its scan latency.
type BIT struct {
	cfg    BITConfig //tracep:nostats configuration
	timing cache.SetAssoc
	// results memoises the (pure) analysis so a re-fill after eviction
	// recomputes timing cost but not the analysis itself: one entry per
	// static instruction, indexed by PC (a program has a few hundred).
	results []bitMemo    //tracep:nostats memoised analysis, not a counter
	prog    *isa.Program //tracep:nostats shared immutable program

	Lookups    uint64
	MissCycles uint64
}

// bitMemo is one PC's memoised analysis; known is false until the first
// lookup of that PC.
type bitMemo struct {
	reg   Region
	known bool
}

// NewBIT builds a BIT over prog.
func NewBIT(prog *isa.Program, cfg BITConfig) *BIT {
	b := &BIT{}
	b.Reset(prog, cfg)
	return b
}

// Reset empties the table for a run over prog, reusing its storage. The
// memoised analyses survive when prog and the analysis bounds are unchanged:
// AnalyzeRegion is a pure function of both.
func (b *BIT) Reset(prog *isa.Program, cfg BITConfig) {
	if cfg.Entries == 0 {
		cfg = DefaultBITConfig()
	}
	if b.prog != prog || b.cfg.Analyze != cfg.Analyze {
		b.results = slices.Grow(b.results[:0], prog.Len())[:prog.Len()]
		clear(b.results)
	}
	b.timing.Reset(cfg.Entries/cfg.Assoc, cfg.Assoc)
	b.cfg, b.prog = cfg, prog
	b.Lookups, b.MissCycles = 0, 0
}

// Lookup returns the region information for the forward conditional branch
// at pc plus the cycles the lookup cost (0 on a BIT hit; the FGCI-algorithm
// scan latency on a miss).
//
//tracep:noalloc
func (b *BIT) Lookup(pc uint32) (Region, int) {
	b.Lookups++
	hit := b.timing.Access(uint64(pc))
	memo := &b.results[pc]
	if !memo.known {
		//tracep:allow BIT miss path: the FGCI scan runs once per static branch and is memoised
		memo.reg, memo.known = AnalyzeRegion(b.prog, pc, b.cfg.Analyze), true
	}
	reg := memo.reg
	if hit {
		return reg, 0
	}
	b.MissCycles += uint64(reg.Scanned)
	return reg, reg.Scanned
}

// Misses reports how many lookups missed the table.
func (b *BIT) Misses() uint64 { return b.timing.Misses }

// Clone copies the BIT — timing array, memoised analysis results and
// counters — into dst, reusing dst's storage, and returns dst; a nil dst
// gets fresh storage. The program is shared (immutable); Region values are
// copied by value.
func (b *BIT) Clone(dst *BIT) *BIT {
	if dst == nil {
		dst = &BIT{}
	}
	b.timing.Clone(&dst.timing)
	dst.results = append(dst.results[:0], b.results...)
	dst.cfg, dst.prog = b.cfg, b.prog
	dst.Lookups, dst.MissCycles = b.Lookups, b.MissCycles
	return dst
}

// ResetStats zeroes the lookup and miss-cycle counters (including the timing
// array's), keeping the warmed entries and memoised analyses.
func (b *BIT) ResetStats() {
	b.Lookups, b.MissCycles = 0, 0
	b.timing.ResetStats()
}

// TraceView is the minimal view of a resident trace that the CGCI heuristics
// need: where it starts and whether it ends in a return instruction.
type TraceView struct {
	StartPC   uint32
	EndsInRet bool
}

// FindRET implements the RET heuristic (§4.2): locate the nearest trace at
// or after from (the trace following the mispredicted one) that ends in a
// return instruction; the immediately subsequent trace is assumed to be the
// first control-independent trace. traces is ordered oldest to youngest;
// from is the index of the first trace younger than the mispredicted one.
// It returns the index of the assumed first control-independent trace.
//
//tracep:noalloc
func FindRET(traces []TraceView, from int) (ci int, ok bool) {
	for i := from; i < len(traces)-1; i++ {
		if traces[i].EndsInRet {
			return i + 1, true
		}
	}
	return 0, false
}

// FindMLBRET implements the MLB-RET heuristic (§4.2). If the mispredicted
// branch is a backward branch, it is assumed to be a loop branch: the
// nearest younger trace whose start PC matches the branch's not-taken target
// is assumed control independent (MLB). Otherwise the RET heuristic applies.
//
//tracep:noalloc
func FindMLBRET(traces []TraceView, from int, isBackward bool, notTakenTarget uint32) (ci int, ok bool) {
	if isBackward {
		for i := from; i < len(traces); i++ {
			if traces[i].StartPC == notTakenTarget {
				return i, true
			}
		}
		// Fall through to RET when no loop-exit trace is exposed.
	}
	return FindRET(traces, from)
}
