package emu_test

import (
	"testing"

	"tracep/internal/asm"
	"tracep/internal/bench"
	"tracep/internal/emu"
	"tracep/internal/isa"
)

// TestStepOverwritesEveryField steps one reused record through a sequence
// in which each instruction class follows one that sets fields it does not:
// a store, an ALU op, a taken branch, a load, the halt, and a step past the
// halt. Every step must equal the same step into a fresh zero record, so no
// field of the previous instruction survives.
func TestStepOverwritesEveryField(t *testing.T) {
	b := asm.New("classes")
	b.Addi(1, 0, 5).
		Store(1, 0, 40).
		Add(2, 1, 1).
		Beq(1, 1, "over").
		Nop().
		Label("over").
		Load(3, 0, 40).
		Halt()
	prog := b.MustBuild()
	reused, fresh := emu.New(prog), emu.New(prog)
	// Start from a record with every field set, as if left by some other
	// instruction.
	rec := emu.Record{PC: 99, NextPC: 99, Inst: isa.Inst{Op: isa.OpCall, Rd: 7, Imm: 3, Target: 9},
		Dest: 4, Value: -1, HasDest: true, Addr: 77, StoreVal: 8, Taken: true, Halted: true}
	wantOps := []isa.Op{isa.OpAddi, isa.OpStore, isa.OpAdd, isa.OpBeq, isa.OpLoad, isa.OpHalt, isa.OpNop}
	for i, op := range wantOps {
		reused.Step(&rec)
		var want emu.Record
		fresh.Step(&want)
		if rec != want {
			t.Fatalf("step %d: reused record %+v, fresh record %+v", i, rec, want)
		}
		if i < len(wantOps)-1 && rec.Inst.Op != op {
			t.Fatalf("step %d executed %v, want %v", i, rec.Inst.Op, op)
		}
	}
	if !rec.Halted || rec.HasDest || rec.Taken || rec.Addr != 0 {
		t.Errorf("step past halt: %+v", rec)
	}
}

// TestReusedRecordStream runs a generated program to halt twice, once into
// one reused record and once into a fresh record per step, and requires the
// same record stream.
func TestReusedRecordStream(t *testing.T) {
	cfg := bench.DefaultGenConfig(11)
	cfg.OuterIters = 60
	prog := bench.Generate(cfg)

	var fresh []emu.Record
	e := emu.New(prog)
	for !e.Halted {
		var rec emu.Record
		e.Step(&rec)
		fresh = append(fresh, rec)
	}

	e = emu.New(prog)
	var rec emu.Record
	for i := 0; !e.Halted; i++ {
		e.Step(&rec)
		if i >= len(fresh) {
			t.Fatalf("reused-record run is longer than %d records", len(fresh))
		}
		if rec != fresh[i] {
			t.Fatalf("record %d: reused %+v, fresh %+v", i, rec, fresh[i])
		}
	}
	if e.Count != uint64(len(fresh)) {
		t.Fatalf("reused-record run executed %d, fresh %d", e.Count, len(fresh))
	}
}

// BenchmarkStep measures the emulator alone: one op resets it over a suite
// program (gcc) and steps one million instructions into one reused record.
// It reports the rate in Minsts/s.
func BenchmarkStep(b *testing.B) {
	const steps = 1_000_000
	bm, err := bench.ByName("gcc")
	if err != nil {
		b.Fatal(err)
	}
	prog := bm.Build(bm.ScaleFor(2 * steps))
	e := emu.New(prog)
	var rec emu.Record
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Reset(prog)
		for j := 0; j < steps; j++ {
			e.Step(&rec)
		}
		if rec.Halted {
			b.Fatalf("gcc halted within %d instructions", steps)
		}
	}
	b.ReportMetric(float64(steps)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Minsts/s")
}
