// Package bench provides the workload suite: eight synthetic analogues of
// the SPEC95 integer benchmarks (Table 2), each hand-written in the custom
// ISA to echo its counterpart's control-flow profile from Table 5 of the
// paper — the fraction of branches and mispredictions in FGCI regions, in
// other forward branches, and in backward branches; region sizes; and the
// overall misprediction rate. Branch behaviour is driven by in-program
// linear congruential generators so conditions are genuinely data-dependent
// and opaque to the 2-bit predictor.
//
// The suite substitutes for SPEC95 binaries, which would need a compiler
// targeting this reproduction's ISA and the original inputs. The paper's
// mechanisms respond to control-flow shape — where mispredicted branches
// fall relative to FGCI regions, loops and calls — and Table 5 gives that
// shape per benchmark, so each analogue is written to match it. Absolute
// IPCs are therefore not comparable with the paper's; the models'
// relative effects are what the reproduction compares.
package bench

import (
	"errors"
	"fmt"

	"tracep/internal/asm"
	"tracep/internal/isa"
)

// ErrInvalidBenchmark reports a Benchmark value that cannot be built — a nil
// Build function or a non-positive InstsPerIter. Like ErrInvalidConfig on
// the processor side, it surfaces as a typed error from Simulator.Run (and
// per-cell from Sweep) instead of a panic.
var ErrInvalidBenchmark = errors.New("invalid benchmark")

// Benchmark is one synthetic workload.
type Benchmark struct {
	Name string
	// Analogue names the SPEC95 benchmark whose control-flow profile this
	// workload mirrors.
	Analogue string
	// Profile summarises the targeted behaviour.
	Profile string
	// Build constructs the program; scale is the outer iteration count
	// (dynamic instruction count grows linearly with it).
	Build func(scale int64) *isa.Program
	// InstsPerIter is the approximate dynamic instruction count per outer
	// iteration, used to derive scale from an instruction budget.
	InstsPerIter int64
	// Recorded is set on benchmarks loaded from a .tptrace recording
	// (FromTraceFile/Corpus), naming the file; Build returns its embedded
	// program. A tracepd coordinator keeps such rows local, since only it
	// holds the file. Nil for generated workloads.
	Recorded *RecordedTrace
}

// Suite returns the eight benchmarks in the paper's order.
func Suite() []Benchmark {
	return []Benchmark{
		{
			Name:     "compress",
			Analogue: "129.compress",
			Profile:  "small unpredictable hammocks (41% FGCI branches, 63% of misps), short data-dependent inner loops, 9.4% misp rate",
			Build:    buildCompress, InstsPerIter: 36,
		},
		{
			Name:     "gcc",
			Analogue: "126.gcc",
			Profile:  "branchy with many calls; non-FGCI forward branches dominate (58%), moderate 3% misp rate, mid-size regions",
			Build:    buildGCC, InstsPerIter: 53,
		},
		{
			Name:     "go",
			Analogue: "099.go",
			Profile:  "near 50/50 evaluation branches, forward-dominated, high 8.7% misp rate",
			Build:    buildGo, InstsPerIter: 42,
		},
		{
			Name:     "jpeg",
			Analogue: "132.ijpeg",
			Profile:  "nested fixed loops (51% backward branches, predictable) around one large unpredictable clamp region (FGCI: 61% of misps)",
			Build:    buildJPEG, InstsPerIter: 219,
		},
		{
			Name:     "li",
			Analogue: "130.li",
			Profile:  "recursive interpreter: calls/returns, unpredictable short loops (61% of misps from backward branches)",
			Build:    buildLi, InstsPerIter: 75,
		},
		{
			Name:     "m88ksim",
			Analogue: "124.m88ksim",
			Profile:  "predictable dispatch loop, rare events; 0.9% misp rate with FGCI hammocks dominating the misps",
			Build:    buildM88ksim, InstsPerIter: 38,
		},
		{
			Name:     "perl",
			Analogue: "134.perl",
			Profile:  "scan loop with biased forward branches and calls; 1.2% misp rate, forward misps dominate, returns everywhere",
			Build:    buildPerl, InstsPerIter: 31,
		},
		{
			Name:     "vortex",
			Analogue: "147.vortex",
			Profile:  "call-heavy object store; highly predictable (0.7% misp), deep call chains",
			Build:    buildVortex, InstsPerIter: 84,
		},
	}
}

// ByName returns the named benchmark.
func ByName(name string) (Benchmark, error) {
	for _, b := range Suite() {
		if b.Name == name {
			return b, nil
		}
	}
	return Benchmark{}, fmt.Errorf("bench: unknown benchmark %q", name)
}

// Validate reports whether the benchmark is buildable. The zero value is
// not: it has no Build function and no per-iteration instruction estimate.
// Every returned error wraps ErrInvalidBenchmark.
func (b Benchmark) Validate() error {
	name := b.Name
	if name == "" {
		name = "(unnamed)"
	}
	if b.Build == nil {
		return fmt.Errorf("bench: %w: %s has a nil Build function", ErrInvalidBenchmark, name)
	}
	if b.InstsPerIter <= 0 {
		return fmt.Errorf("bench: %w: %s has InstsPerIter %d, want > 0", ErrInvalidBenchmark, name, b.InstsPerIter)
	}
	return nil
}

// ScaleFor returns the outer iteration count that yields roughly n dynamic
// instructions. A benchmark with no per-iteration estimate (InstsPerIter
// <= 0, e.g. the zero value) scales to the floor of 1 rather than
// panicking; Validate is how such values are rejected.
func (b Benchmark) ScaleFor(n uint64) int64 {
	if b.InstsPerIter <= 0 {
		return 1
	}
	s := int64(n) / b.InstsPerIter
	if s < 1 {
		s = 1
	}
	return s
}

// Register conventions shared by all benchmarks:
//
//	r1      LCG state
//	r2, r3  LCG multiplier/increment
//	r4      outer loop index
//	r5      outer loop limit
//	r6-r9   extracted random fields / temporaries
//	r10-r19 computation state
//	r20-r27 scratch
//	r28     data segment base
//	r29     stack pointer
const (
	rLCG  isa.Reg = 1
	rMul  isa.Reg = 2
	rInc  isa.Reg = 3
	rIdx  isa.Reg = 4
	rLim  isa.Reg = 5
	rBit  isa.Reg = 6
	rBit2 isa.Reg = 7
	rBit3 isa.Reg = 8
	rTmp  isa.Reg = 9
	rAcc  isa.Reg = 10
	rAcc2 isa.Reg = 11
	rAcc3 isa.Reg = 12
	rPtr  isa.Reg = 13
	rVal  isa.Reg = 14
	rCnt  isa.Reg = 15
	rTmp2 isa.Reg = 16
	rBase isa.Reg = 28
	rSP   isa.Reg = 29
)

// prologue emits LCG setup, loop bounds and pointers.
func prologue(b *asm.Builder, seed, scale int64) {
	b.Li(rLCG, seed)
	b.Li(rMul, 1103515245)
	b.Li(rInc, 12345)
	b.Addi(rIdx, 0, 0)
	b.Li(rLim, scale)
	b.Li(rBase, 4096)
	b.Li(rSP, 1<<20)
	b.Addi(rAcc, 0, 0)
	b.Addi(rAcc2, 0, 0)
	b.Addi(rAcc3, 0, 0)
}

// lcg advances the generator: r1 = r1*r2 + r3.
func lcg(b *asm.Builder) {
	b.Mul(rLCG, rLCG, rMul)
	b.Add(rLCG, rLCG, rInc)
}

// randField extracts ((state >> shift) & mask) into dst. A branch on
// dst == 0 is taken with probability 1/(mask+1).
func randField(b *asm.Builder, dst isa.Reg, shift, mask int64) {
	b.Shri(dst, rLCG, shift)
	b.Andi(dst, dst, mask)
}
