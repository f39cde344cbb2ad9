package proc

import (
	"testing"
	"testing/quick"

	"tracep/internal/asm"
	"tracep/internal/bench"
	"tracep/internal/emu"
	"tracep/internal/isa"
	"tracep/internal/trace"
)

// FuzzSimulate runs a generated program of about 5,000 instructions under
// one of the eight models on a perturbed window: NumPEs in [1, 32],
// MaxTraceLen in [1, trace.MaxLen] with NumPEs × MaxTraceLen at most 65,536,
// and PEIssueWidth in [1, 8]. No run may panic; each must pass the oracle,
// hold checkMachine after every Step and the Stats laws at the end. The
// committed corpus (testdata/fuzz/FuzzSimulate) includes the Table 1
// machine and both ends of the trace-length range.
//
// checkMachine visits every window slot each cycle, and a window of
// thousand-instruction traces can take 100,000s of cycles to retire 5,000
// instructions, so a run stops after fuzzSlotCycles / (NumPEs ×
// MaxTraceLen) cycles, checked as far as it got: every input then costs at
// most about a second.
func FuzzSimulate(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, model, pes uint8, maxLen uint16, width uint8) {
		cfg := DefaultConfig()
		cfg.NumPEs = 1 + int(pes)%32
		cfg.MaxTraceLen = min(1+int(maxLen)%trace.MaxLen, 65536/cfg.NumPEs)
		cfg.PEIssueWidth = 1 + int(width)%8
		if err := cfg.Validate(); err != nil {
			t.Fatal(err)
		}
		m := allModels[int(model)%len(allModels)]
		bm := bench.Generated(bench.DefaultGenConfig(seed))
		prog := bm.Build(bm.ScaleFor(5000))
		p := New(prog, m, cfg)
		maxCycles := int64(fuzzSlotCycles / (cfg.NumPEs * cfg.MaxTraceLen))
		for !p.Halted() && p.Err() == nil && p.cycle < maxCycles {
			stepChecked(t, m.Name, p)
		}
		endChecked(t, m.Name, p)
	})
}

// fuzzSlotCycles bounds one FuzzSimulate input's checking work: window slots
// times cycles.
const fuzzSlotCycles = 1 << 29

// TestRandomProgramsAllModels is the heavyweight correctness property: for
// randomly generated programs full of data-dependent hammocks, unpredictable
// loops, calls, and memory traffic, every model's retired instruction stream
// must match the architectural oracle exactly (checked inside the processor
// when Verify is on), and the final memory state must match an independent
// emulator run.
func TestRandomProgramsAllModels(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	f := func(seed int64) bool {
		prog := randomProgram(seed)
		// Independent functional run for the final-state check.
		ref := emu.New(prog)
		ref.Run(3_000_000)
		if !ref.Halted {
			return true // degenerate generation; skip
		}
		for _, m := range allModels {
			cfg := testConfig()
			p := New(prog, m, cfg)
			if _, err := p.Run(0); err != nil {
				t.Logf("seed %d model %s: %v", seed, m.Name, err)
				return false
			}
			if !p.Halted() {
				t.Logf("seed %d model %s: did not halt", seed, m.Name)
				return false
			}
			for addr := uint32(900); addr < 910; addr++ {
				if p.mem.Read(addr) != ref.Mem.Read(addr) {
					t.Logf("seed %d model %s: mem[%d] = %d, want %d",
						seed, m.Name, addr, p.mem.Read(addr), ref.Mem.Read(addr))
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Error(err)
	}
}

// randomProgram generates a structured random program: an outer loop whose
// body mixes hammocks (some nested), guarded calls, short data-dependent
// inner loops, stores/loads, and an LCG; always halting after a bounded
// iteration count.
func randomProgram(seed int64) *isa.Program {
	rng := uint64(seed)
	next := func(n int) int {
		rng = rng*6364136223846793005 + 1442695040888963407
		return int((rng >> 33) % uint64(n))
	}
	b := asm.New("fuzz")
	b.Li(1, seed|1)
	b.Li(2, 1103515245)
	b.Li(3, 12345)
	b.Addi(4, 0, 0)
	b.Li(5, int64(50+next(150))) // outer iterations
	b.Li(28, 4096)
	b.Li(29, 1<<20)
	b.Jump("outer")

	// A few helper functions.
	nFuncs := 1 + next(3)
	for fi := 0; fi < nFuncs; fi++ {
		b.Label(fnName(fi))
		for k := 0; k < 1+next(4); k++ {
			r := isa.Reg(10 + next(6))
			b.Addi(r, r, int64(1+next(9)))
		}
		if next(3) == 0 {
			b.Load(9, 28, int64(next(64)))
			b.Add(10, 10, 9)
		}
		b.Ret()
	}

	b.Label("outer")
	// Advance LCG.
	b.Mul(1, 1, 2)
	b.Add(1, 1, 3)

	nBlocks := 2 + next(5)
	for bi := 0; bi < nBlocks; bi++ {
		switch next(5) {
		case 0: // hammock (if-then-else)
			el := lbl("el", seed, bi)
			jn := lbl("jn", seed, bi)
			b.Shri(6, 1, int64(3+next(24)))
			b.Andi(6, 6, int64(1<<(uint(next(4))+1)-1))
			b.Beq(6, 0, el)
			for k := 0; k < 1+next(4); k++ {
				b.Addi(10, 10, int64(k+1))
			}
			b.Jump(jn)
			b.Label(el)
			for k := 0; k < 1+next(4); k++ {
				b.Addi(11, 11, int64(k+2))
			}
			b.Label(jn)
		case 1: // guarded call
			sk := lbl("sk", seed, bi)
			b.Shri(6, 1, int64(3+next(24)))
			b.Andi(6, 6, int64(1<<(uint(next(3))+1)-1))
			b.Bne(6, 0, sk)
			b.Call(fnName(next(nFuncs)))
			b.Label(sk)
		case 2: // short data-dependent loop
			lp := lbl("lp", seed, bi)
			b.Shri(15, 1, int64(5+next(20)))
			b.Andi(15, 15, 3)
			b.Addi(15, 15, 1)
			b.Label(lp)
			b.Add(12, 12, 15)
			b.Addi(15, 15, -1)
			b.Bne(15, 0, lp)
		case 3: // memory traffic with dependences
			b.Andi(13, 1, 31)
			b.Add(13, 13, 28)
			b.Load(14, 13, 0)
			b.Addi(14, 14, 1)
			b.Store(14, 13, 0)
			b.Load(9, 13, 0)
			b.Add(10, 10, 9)
		default: // straight-line ALU
			for k := 0; k < 2+next(5); k++ {
				b.Add(10, 10, isa.Reg(10+next(4)))
			}
		}
	}

	b.Addi(4, 4, 1)
	b.Blt(4, 5, "outer")
	b.Store(10, 0, 900)
	b.Store(11, 0, 901)
	b.Store(12, 0, 902)
	b.Halt()
	return b.MustBuild()
}

func fnName(i int) string { return string(rune('f'+i)) + "n" }

func lbl(p string, seed int64, i int) string {
	return p + "_" + string(rune('a'+i%26)) + string(rune('a'+(seed>>3)%26&25))
}
