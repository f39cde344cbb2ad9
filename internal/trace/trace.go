// Package trace implements traces — the trace processor's fundamental unit
// of control flow — together with trace selection (default, the ntb
// constraint, and FGCI padding selection), trace construction, pre-renaming
// of intra-trace values, and the trace cache.
package trace

import (
	"fmt"
	"math"
	"strings"

	"tracep/internal/isa"
)

// MaxLen is the longest trace the int16 instruction indices can hold. The
// tightest of them is the consumer arena: a trace of n instructions keeps
// n+1 list offsets and at most 2n consumer entries (two source operands per
// instruction), and prerename writes offsets up to n+1+2n = 3n+1 as int16.
// 3n+1 <= math.MaxInt16 gives n <= (math.MaxInt16-1)/3.
const MaxLen = (math.MaxInt16 - 1) / 3

// MaxBranches is the most conditional branches one trace holds: the width
// of Descriptor.Outcomes. Selection ends a trace before its 33rd branch,
// so a descriptor never drops an outcome.
const MaxBranches = 32

// Descriptor identifies a trace: its start PC, its physical length, and the
// embedded outcomes of its conditional branches. Together with the static
// program these determine the trace's contents exactly, so descriptors serve
// as trace-cache keys and next-trace-predictor predictions.
type Descriptor struct {
	StartPC  uint32
	Len      uint16 // holds MaxLen
	NumBr    uint8
	Outcomes uint32 // bit i = taken outcome of the i-th conditional branch
}

// ID returns a 64-bit hash identifying the trace, used for predictor history
// hashing and trace-cache indexing.
//
//tracep:noalloc
func (d Descriptor) ID() uint64 {
	h := uint64(d.StartPC)
	h = h*0x9E3779B97F4A7C15 + uint64(d.Len)
	h ^= uint64(d.Outcomes) << 16
	h = h*0x9E3779B97F4A7C15 + uint64(d.NumBr)
	h ^= h >> 29
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 32
	return h
}

// String renders the descriptor compactly for logs and tests.
func (d Descriptor) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "T[pc=%d len=%d br=", d.StartPC, d.Len)
	for i := 0; i < int(d.NumBr); i++ {
		if d.Outcomes&(1<<uint(i)) != 0 {
			sb.WriteByte('1')
		} else {
			sb.WriteByte('0')
		}
	}
	sb.WriteByte(']')
	return sb.String()
}

// SrcKind classifies an instruction source operand after pre-renaming.
type SrcKind uint8

const (
	// SrcNone marks an unused operand slot (or a read of R0 = constant 0).
	SrcNone SrcKind = iota
	// SrcLocal marks an intra-trace value produced by an earlier instruction
	// in the same trace; pre-renamed in the trace cache, it never consults
	// the global rename maps.
	SrcLocal
	// SrcLiveIn marks an inter-trace value: an architectural register read
	// before any write in this trace; renamed at dispatch through the global
	// maps.
	SrcLiveIn
)

// SrcRef is a pre-renamed source operand reference.
type SrcRef struct {
	Kind  SrcKind
	Local int16   // producing instruction index within the trace (SrcLocal)
	Arch  isa.Reg // architectural register (SrcLiveIn)
}

// BranchInfo describes one conditional branch embedded in a trace.
type BranchInfo struct {
	// PC is the branch's address.
	PC uint32
	// Idx is the branch's instruction index within the trace.
	Idx int16
	// ReconvIdx is the intra-trace index of the first control-independent
	// instruction (the region's re-convergent point) when FGCICovered, and
	// -1 otherwise.
	ReconvIdx int16
	// Taken is the embedded (predicted) outcome the trace was built with.
	Taken bool
	// FGCICovered reports that the branch lies inside an embeddable region
	// wholly contained in this trace, so a misprediction of it is repairable
	// within the PE without disturbing subsequent traces (fine-grain CI).
	FGCICovered bool
}

// Trace is a fully constructed, pre-renamed trace. It stores only what the
// program cannot supply: instruction i is the program's instruction at
// PCs[i] (isa.Program.At), so a trace's storage is a few small slices of
// plain values, about 20 bytes per instruction.
type Trace struct {
	Desc Descriptor
	// PCs[i] is the address of instruction i; len(PCs) is the trace's
	// physical length.
	PCs      []uint32
	Branches []BranchInfo

	// Srcs[i] are the pre-renamed source operands of instruction i.
	Srcs [][2]SrcRef
	// LastWriter[r] is the index of the last instruction writing
	// architectural register r, or -1; these instructions produce the
	// trace's live-outs.
	LastWriter [isa.NumRegs]int16
	// LiveIns lists the architectural registers this trace reads from
	// previous traces, in first-use order.
	LiveIns []isa.Reg
	// LiveOuts lists the architectural registers this trace writes
	// (ascending).
	LiveOuts []isa.Reg

	// NextPC is the fall-through successor PC after the trace; meaningless
	// when EndsIndirect or EndsHalt.
	NextPC       uint32
	EndsIndirect bool
	EndsInRet    bool
	EndsHalt     bool
	// EndsNTB reports that the trace was terminated by the ntb selection
	// constraint (a predicted not-taken backward branch), exposing a
	// loop-exit global re-convergent point at NextPC.
	EndsNTB bool

	// consumers is the arena behind Consumers: its first Len()+1 entries are
	// offsets into the arena itself, and instruction i's consumer list is
	// consumers[consumers[i]:consumers[i+1]]. prerename sizes it exactly
	// and reuses it across builds.
	consumers []int16

	// refs counts the trace's holders — the trace cache and each in-flight
	// consumer (fetch entry, PE, active recovery). A persistent trace whose
	// count drops to zero may be recycled into a Constructor's pool, so its
	// storage backs a future build instead of becoming garbage. Zero also
	// means "untracked" (a trace that was never retained is never recycled).
	refs int32
	// pooled marks a trace that sits in a Constructor's pool, so recycling
	// it again is a no-op (see Constructor.Recycle).
	pooled bool
}

// Retain adds a reference to the trace.
//
//tracep:noalloc
func (t *Trace) Retain() { t.refs++ }

// Release drops one reference and reports whether the count reached zero —
// i.e. the caller held the last reference and may recycle the trace's
// storage (Constructor.Recycle). Untracked traces always report false.
//
//tracep:noalloc
func (t *Trace) Release() bool {
	if t.refs <= 0 {
		return false
	}
	t.refs--
	return t.refs == 0
}

// Len returns the trace's physical instruction count.
//
//tracep:noalloc
func (t *Trace) Len() int { return len(t.PCs) }

// Consumers lists the intra-trace indices of the instructions whose
// operands instruction i produces locally (the intra-PE bypass fan-out), in
// ascending order; an instruction reading i's value through both operands
// appears twice.
//
//tracep:noalloc
func (t *Trace) Consumers(i int) []int16 {
	return t.consumers[t.consumers[i]:t.consumers[i+1]]
}

// reset empties the trace for reuse, keeping every slice's backing storage
// so a Constructor can build into the same Trace repeatedly without
// allocating. See Constructor.Build.
//
//tracep:noalloc
func (t *Trace) reset() {
	t.Desc = Descriptor{}
	t.PCs = t.PCs[:0]
	t.Branches = t.Branches[:0]
	t.Srcs = t.Srcs[:0]
	t.LiveIns = t.LiveIns[:0]
	t.LiveOuts = t.LiveOuts[:0]
	t.consumers = t.consumers[:0]
	t.NextPC = 0
	t.EndsIndirect = false
	t.EndsInRet = false
	t.EndsHalt = false
	t.EndsNTB = false
}

// grow2 extends s to length n, reusing its backing array when possible.
//
//tracep:noalloc
func grow2(s [][2]SrcRef, n int) [][2]SrcRef {
	if cap(s) >= n {
		return s[:n]
	}
	//tracep:allow amortised doubling of reused trace storage
	return make([][2]SrcRef, n)
}

// BranchAt returns the BranchInfo for the instruction at intra-trace index
// idx, if that instruction is a conditional branch. Construction appends
// Branches in index order, so this is a binary search: a trace near MaxLen
// holds thousands of branches.
//
//tracep:noalloc
func (t *Trace) BranchAt(idx int) (*BranchInfo, bool) {
	lo, hi := 0, len(t.Branches)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if int(t.Branches[mid].Idx) < idx {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(t.Branches) && int(t.Branches[lo].Idx) == idx {
		return &t.Branches[lo], true
	}
	return nil, false
}

// prerename computes the intra-trace dataflow of a trace built from prog:
// source classification (local vs live-in), last writers,
// live-ins/live-outs and the local consumer lists. Constructor.Keep calls
// it once per kept build, so a transient build discarded on a trace-cache
// hit skips it; the results are stored with the trace in the trace cache
// ("intra-trace values are pre-renamed in the trace cache").
//
//tracep:noalloc
func (t *Trace) prerename(prog *isa.Program) {
	n := len(t.PCs)
	t.Srcs = grow2(t.Srcs, n)
	for r := range t.LastWriter {
		t.LastWriter[r] = -1
	}
	seenLiveIn := [isa.NumRegs]bool{}
	totalConsumers := 0
	for i, pc := range t.PCs {
		in := prog.Ref(pc)
		s1, u1, s2, u2 := in.SrcRegs()
		srcs := [2]struct {
			r isa.Reg
			u bool
		}{{s1, u1}, {s2, u2}}
		for k, s := range srcs {
			if !s.u {
				t.Srcs[i][k] = SrcRef{Kind: SrcNone}
				continue
			}
			if w := t.LastWriter[s.r]; w >= 0 {
				t.Srcs[i][k] = SrcRef{Kind: SrcLocal, Local: w}
				totalConsumers++
			} else {
				t.Srcs[i][k] = SrcRef{Kind: SrcLiveIn, Arch: s.r}
				if !seenLiveIn[s.r] {
					seenLiveIn[s.r] = true
					//tracep:allow live-in list is bounded by NumRegs and reuses capacity
					t.LiveIns = append(t.LiveIns, s.r)
				}
			}
		}
		if rd, ok := in.WritesReg(); ok {
			t.LastWriter[rd] = int16(i)
		}
	}
	for r := 1; r < isa.NumRegs; r++ {
		if t.LastWriter[r] >= 0 {
			//tracep:allow live-out list is bounded by NumRegs and reuses capacity
			t.LiveOuts = append(t.LiveOuts, isa.Reg(r))
		}
	}

	// Consumer lists, in one exactly-sized arena: count each producer's
	// fan-out into its offset slot, turn the counts into list ends, then
	// fill every list back to front, which leaves each offset at its list's
	// start.
	size := n + 1 + totalConsumers
	if cap(t.consumers) < size {
		//tracep:allow consumer arena is sized to the trace shape and reused across builds
		t.consumers = make([]int16, size)
	}
	t.consumers = t.consumers[:size]
	off := t.consumers[:n+1]
	clear(off)
	for i := 0; i < n; i++ {
		for k := 0; k < 2; k++ {
			if sr := t.Srcs[i][k]; sr.Kind == SrcLocal {
				off[sr.Local]++
			}
		}
	}
	end := int16(n + 1)
	for w := range off {
		end += off[w]
		off[w] = end
	}
	for i := n - 1; i >= 0; i-- {
		for k := 1; k >= 0; k-- {
			if sr := t.Srcs[i][k]; sr.Kind == SrcLocal {
				off[sr.Local]--
				t.consumers[off[sr.Local]] = int16(i)
			}
		}
	}
}
