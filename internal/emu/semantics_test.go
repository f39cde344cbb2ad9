package emu_test

import (
	"math"
	"testing"

	"tracep/internal/emu"
	"tracep/internal/isa"
)

// stepOne steps one instruction at pc 3 of a 16-instruction program with r1
// = a, r2 = b, the link register = link and, when in is a load, the word at
// its address = word. It returns the record and the emulator after the step.
func stepOne(in isa.Inst, a, b, link, word int64) (emu.Record, *emu.Emulator) {
	const pc = 3
	prog := &isa.Program{Name: "one", Insts: make([]isa.Inst, 16), Entry: pc}
	prog.Insts[pc] = in
	e := emu.New(prog)
	e.Regs[1], e.Regs[2], e.Regs[isa.RLink] = a, b, link
	if in.Op == isa.OpLoad {
		e.Mem.Write(uint32(e.Reg(in.Rs1)+in.Imm), word)
	}
	var rec emu.Record
	e.Step(&rec)
	return rec, e
}

// TestStepMatchesISA steps every defined opcode, with Rd = r0 and r5, over
// operands and immediates drawn from 0, ±1, the int64 extremes and the shift
// amounts 63, 64 and 65 (a zero divisor among them), and holds each record
// to the ISA: ALU results to isa.EvalALU, branch outcomes to
// isa.BranchTaken, memory and control transfers to the opcode comments.
// Every field of the record must match, a write to r0 is discarded and r0
// still reads 0, and no other register changes. Reading r0 as a source
// yields 0.
func TestStepMatchesISA(t *testing.T) {
	vals := []int64{0, 1, -1, math.MinInt64, math.MaxInt64, 63, 64, 65}
	const pc, target, link, word = 3, 11, 7, -12345
	for op := isa.OpNop; op <= isa.OpHalt; op++ {
		for _, rd := range []isa.Reg{0, 5} {
			for _, imm := range vals {
				for _, srcs := range [][2]isa.Reg{{1, 2}, {0, 0}} {
					for _, a := range vals {
						for _, b := range vals {
							in := isa.Inst{Op: op, Rd: rd, Rs1: srcs[0], Rs2: srcs[1], Imm: imm, Target: target}
							ra, rb := a, b
							if srcs[0] == 0 {
								ra, rb = 0, 0
							}
							want := emu.Record{PC: pc, NextPC: pc + 1, Inst: in}
							dest := func(r isa.Reg, v int64) {
								if r != 0 {
									want.Dest, want.Value, want.HasDest = r, v, true
								}
							}
							switch c := op.Class(); {
							case op == isa.OpHalt:
								want.NextPC, want.Halted = pc, true
							case c&isa.ClassLoad != 0:
								want.Addr = uint32(ra + imm)
								dest(rd, word)
							case c&isa.ClassStore != 0:
								want.Addr, want.StoreVal = uint32(ra+imm), rb
							case c&isa.ClassWritesRd != 0:
								dest(rd, isa.EvalALU(op, ra, rb, imm))
							case c&isa.ClassCondBranch != 0:
								if want.Taken = isa.BranchTaken(op, ra, rb); want.Taken {
									want.NextPC = target
								}
							case op == isa.OpJump:
								want.NextPC = target
							case op == isa.OpCall:
								dest(isa.RLink, pc+1)
								want.NextPC = target
							case op == isa.OpCallR:
								dest(isa.RLink, pc+1)
								want.NextPC = uint32(ra)
							case op == isa.OpJr:
								want.NextPC = uint32(ra)
							case op == isa.OpRet:
								want.NextPC = link
							}

							rec, e := stepOne(in, a, b, link, word)
							if rec != want {
								t.Fatalf("%v with r1=%d r2=%d: record %+v, want %+v", in, a, b, rec, want)
							}
							if e.PC != want.NextPC || e.Halted != want.Halted || e.Count != 1 {
								t.Fatalf("%v: emulator at pc %d halted %v count %d, want pc %d halted %v count 1",
									in, e.PC, e.Halted, e.Count, want.NextPC, want.Halted)
							}
							regs := [isa.NumRegs]int64{1: a, 2: b, isa.RLink: link}
							if want.HasDest {
								regs[want.Dest] = want.Value
							}
							if e.Regs != regs || e.Reg(0) != 0 {
								t.Fatalf("%v: registers %v, want %v", in, e.Regs, regs)
							}
							if op == isa.OpStore && e.Mem.Read(want.Addr) != rb {
								t.Fatalf("%v: memory[%d] = %d, want %d", in, want.Addr, e.Mem.Read(want.Addr), rb)
							}
						}
					}
				}
			}
		}
	}
}

// TestStepUndefinedOpcodePanics: an opcode past OpHalt is not an
// instruction, and stepping one panics rather than executing as anything.
func TestStepUndefinedOpcodePanics(t *testing.T) {
	for _, op := range []isa.Op{isa.OpHalt + 1, 255} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("stepping opcode %d did not panic", op)
				}
			}()
			stepOne(isa.Inst{Op: op}, 0, 0, 0, 0)
		}()
	}
}
