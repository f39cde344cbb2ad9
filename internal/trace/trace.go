// Package trace implements traces — the trace processor's fundamental unit
// of control flow — together with trace selection (default, the ntb
// constraint, and FGCI padding selection), trace construction, pre-renaming
// of intra-trace values, and the trace cache.
package trace

import (
	"fmt"
	"strings"

	"tracep/internal/isa"
)

// Descriptor identifies a trace: its start PC, its physical length, and the
// embedded outcomes of its conditional branches. Together with the static
// program these determine the trace's contents exactly, so descriptors serve
// as trace-cache keys and next-trace-predictor predictions.
type Descriptor struct {
	StartPC  uint32
	Len      uint8
	NumBr    uint8
	Outcomes uint32 // bit i = taken outcome of the i-th conditional branch
}

// Valid reports whether the descriptor denotes a real trace (zero-length
// descriptors are used as "no prediction").
func (d Descriptor) Valid() bool { return d.Len > 0 }

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
	// Idx is the branch's instruction index within the trace.
	Idx int
	// PC is the branch's address.
	PC uint32
	// Taken is the embedded (predicted) outcome the trace was built with.
	Taken bool
	// FGCICovered reports that the branch lies inside an embeddable region
	// wholly contained in this trace, so a misprediction of it is repairable
	// within the PE without disturbing subsequent traces (fine-grain CI).
	FGCICovered bool
	// ReconvIdx is the intra-trace index of the first control-independent
	// instruction (the region's re-convergent point) when FGCICovered.
	ReconvIdx int
}

// Trace is a fully constructed, pre-renamed trace.
type Trace struct {
	Desc     Descriptor
	PCs      []uint32
	Insts    []isa.Inst
	Branches []BranchInfo

	// Srcs[i] are the pre-renamed source operands of instruction i.
	Srcs [][2]SrcRef
	// DestArch[i] is the architectural register written by instruction i (0
	// if none).
	DestArch []isa.Reg
	// LocalConsumers[i] lists the instruction indices whose operands are
	// produced locally by instruction i (the intra-PE bypass fan-out).
	LocalConsumers [][]int16
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

	// consumerArena backs every LocalConsumers list: prerename counts the
	// consumer fan-out first and carves exactly-sized segments from one
	// allocation instead of growing each list separately.
	consumerArena []int16

	// refs counts the trace's holders — the trace cache and each in-flight
	// consumer (fetch entry, PE, active recovery). A persistent trace whose
	// count drops to zero may be recycled into a Constructor's pool, so its
	// storage backs a future build instead of becoming garbage. Zero also
	// means "untracked" (a trace that was never retained is never recycled),
	// and -1 marks an immortal trace shared across cache clones.
	refs int32
}

// Retain adds a reference to the trace. No-op on immortal traces.
//
//tracep:noalloc
func (t *Trace) Retain() {
	if t.refs >= 0 {
		t.refs++
	}
}

// Release drops one reference and reports whether the count reached zero —
// i.e. the caller held the last reference and may recycle the trace's
// storage (Constructor.Recycle). Untracked and immortal traces always report
// false.
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
func (t *Trace) Len() int { return len(t.Insts) }

// reset empties the trace for reuse, keeping every slice's backing storage
// (including the per-instruction consumer lists) so a Constructor can build
// into the same Trace repeatedly without allocating. See Constructor.Build.
//
//tracep:noalloc
func (t *Trace) reset() {
	for i := range t.LocalConsumers {
		t.LocalConsumers[i] = t.LocalConsumers[i][:0]
	}
	t.Desc = Descriptor{}
	t.PCs = t.PCs[:0]
	t.Insts = t.Insts[:0]
	t.Branches = t.Branches[:0]
	t.Srcs = t.Srcs[:0]
	t.DestArch = t.DestArch[:0]
	t.LiveIns = t.LiveIns[:0]
	t.LiveOuts = t.LiveOuts[:0]
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

// growRegs extends s to length n, reusing its backing array when possible.
//
//tracep:noalloc
func growRegs(s []isa.Reg, n int) []isa.Reg {
	if cap(s) >= n {
		return s[:n]
	}
	//tracep:allow amortised doubling of reused trace storage
	return make([]isa.Reg, n)
}

// growConsumers extends s to length n with every element an empty (but
// possibly capacious) list, reusing both the outer and the inner backing
// arrays.
//
//tracep:noalloc
func growConsumers(s [][]int16, n int) [][]int16 {
	if cap(s) >= n {
		s = s[:n]
	} else {
		//tracep:allow amortised doubling of reused trace storage
		ns := make([][]int16, n)
		copy(ns, s)
		s = ns
	}
	for i := range s {
		s[i] = s[i][:0]
	}
	return s
}

// BranchAt returns the BranchInfo for the instruction at intra-trace index
// idx, if that instruction is a conditional branch.
//
//tracep:noalloc
func (t *Trace) BranchAt(idx int) (*BranchInfo, bool) {
	for i := range t.Branches {
		if t.Branches[i].Idx == idx {
			return &t.Branches[i], true
		}
	}
	return nil, false
}

// prerename computes the intra-trace dataflow: source classification
// (local vs live-in), last writers, live-ins/live-outs and the local
// consumer lists. Constructor.Keep calls it once per kept build, so a
// transient build discarded on a trace-cache hit skips it; the results are
// stored with the trace in the trace cache ("intra-trace values are
// pre-renamed in the trace cache").
//
//tracep:noalloc
func (t *Trace) prerename() {
	n := len(t.Insts)
	t.Srcs = grow2(t.Srcs, n)
	t.DestArch = growRegs(t.DestArch, n)
	t.LocalConsumers = growConsumers(t.LocalConsumers, n)
	for r := range t.LastWriter {
		t.LastWriter[r] = -1
	}
	seenLiveIn := [isa.NumRegs]bool{}
	totalConsumers := 0
	for i, in := range t.Insts {
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
			t.DestArch[i] = rd
			t.LastWriter[rd] = int16(i)
		} else {
			t.DestArch[i] = 0 // storage may be reused; clear explicitly
		}
	}
	for r := 1; r < isa.NumRegs; r++ {
		if t.LastWriter[r] >= 0 {
			//tracep:allow live-out list is bounded by NumRegs and reuses capacity
			t.LiveOuts = append(t.LiveOuts, isa.Reg(r))
		}
	}

	// Second pass: count each producer's consumer fan-out, carve an
	// exactly-sized segment per producer from one arena, then fill. One
	// allocation (amortised to zero on reused traces) replaces a grown
	// slice per producing instruction.
	if cap(t.consumerArena) < totalConsumers+n {
		//tracep:allow consumer arena is sized to the trace shape and reused across builds
		t.consumerArena = make([]int16, totalConsumers+n)
	}
	counts := t.consumerArena[totalConsumers : totalConsumers+n]
	for i := range counts {
		counts[i] = 0
	}
	for i := 0; i < n; i++ {
		for k := 0; k < 2; k++ {
			if sr := t.Srcs[i][k]; sr.Kind == SrcLocal {
				counts[sr.Local]++
			}
		}
	}
	off := 0
	for w := 0; w < n; w++ {
		c := int(counts[w])
		t.LocalConsumers[w] = t.consumerArena[off : off : off+c]
		off += c
	}
	for i := 0; i < n; i++ {
		for k := 0; k < 2; k++ {
			if sr := t.Srcs[i][k]; sr.Kind == SrcLocal {
				w := sr.Local
				//tracep:allow fills an exactly-sized arena segment; cannot grow
				t.LocalConsumers[w] = append(t.LocalConsumers[w], int16(i))
			}
		}
	}
}
