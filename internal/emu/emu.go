// Package emu implements a functional (architecturally exact) emulator for
// the ISA. The timing simulator runs an emulator instance in lock-step with
// retirement as a golden oracle: every retired instruction is compared
// against the emulator's result, which catches any bug in renaming, selective
// reissue, ARB disambiguation, or control-independence recovery.
package emu

import (
	"fmt"

	"tracep/internal/isa"
)

// Record describes one architecturally executed instruction.
type Record struct {
	PC     uint32
	NextPC uint32
	Inst   isa.Inst
	// Dest/Value are valid when the instruction writes a register.
	Dest    isa.Reg
	Value   int64
	HasDest bool
	// Addr is the effective address for loads and stores; StoreVal the value
	// stored.
	Addr     uint32
	StoreVal int64
	// Taken is the branch outcome for conditional branches.
	Taken  bool
	Halted bool
}

// Emulator holds architectural state and executes one instruction per Step.
type Emulator struct {
	Prog   *isa.Program
	Mem    *isa.Memory
	Regs   [isa.NumRegs]int64
	PC     uint32
	Halted bool
	// Count is the number of instructions executed so far.
	Count uint64
}

// New builds an emulator with a fresh memory initialised from the program's
// data image.
func New(prog *isa.Program) *Emulator {
	e := &Emulator{}
	e.Reset(prog)
	return e
}

// Reset returns the emulator to architectural reset over prog, reusing its
// memory's pages.
func (e *Emulator) Reset(prog *isa.Program) {
	mem := e.Mem
	if mem == nil {
		mem = &isa.Memory{}
	}
	mem.Reset(prog)
	*e = Emulator{Prog: prog, Mem: mem, PC: prog.Entry}
}

// Clone copies the emulator — registers, PC and a private copy of memory —
// into dst, reusing dst's memory pages, and returns dst; a nil dst gets
// fresh storage. The program is shared (it is immutable). A snapshot's
// architectural state is an emulator; restoring clones it so the oracle of
// one restored simulation cannot disturb another's.
func (e *Emulator) Clone(dst *Emulator) *Emulator {
	if dst == nil {
		dst = &Emulator{}
	}
	mem := e.Mem.Clone(dst.Mem)
	*dst = *e
	dst.Mem = mem
	return dst
}

// rd reads register r architecturally (R0 reads as zero).
//
//tracep:noalloc
func (e *Emulator) rd(r isa.Reg) int64 {
	if r == 0 {
		return 0
	}
	return e.Regs[r]
}

// wr writes v to register r (writes to R0 are discarded) and records the
// destination in rec.
//
//tracep:noalloc
func (e *Emulator) wr(rec *Record, r isa.Reg, v int64) {
	if r != 0 {
		e.Regs[r] = v
		rec.Dest, rec.Value, rec.HasDest = r, v, true
	}
}

// Step executes the next instruction and returns its record. Stepping a
// halted machine returns a record with Halted set and advances nothing.
//
//tracep:noalloc
func (e *Emulator) Step() Record {
	if e.Halted {
		return Record{PC: e.PC, Halted: true}
	}
	pc := e.PC
	in := e.Prog.At(pc)
	rec := Record{PC: pc, Inst: in, NextPC: pc + 1}

	switch op := in.Op; {
	case op == isa.OpNop:
	case op == isa.OpHalt:
		e.Halted = true
		rec.Halted = true
		rec.NextPC = pc
	case op >= isa.OpAdd && op <= isa.OpLui:
		e.wr(&rec, in.Rd, isa.EvalALU(op, e.rd(in.Rs1), e.rd(in.Rs2), in.Imm))
	case op == isa.OpLoad:
		addr := uint32(e.rd(in.Rs1) + in.Imm)
		rec.Addr = addr
		e.wr(&rec, in.Rd, e.Mem.Read(addr))
	case op == isa.OpStore:
		addr := uint32(e.rd(in.Rs1) + in.Imm)
		rec.Addr = addr
		rec.StoreVal = e.rd(in.Rs2)
		e.Mem.Write(addr, rec.StoreVal)
	case in.IsCondBranch():
		rec.Taken = isa.BranchTaken(op, e.rd(in.Rs1), e.rd(in.Rs2))
		if rec.Taken {
			rec.NextPC = in.Target
		}
	case op == isa.OpJump:
		rec.NextPC = in.Target
	case op == isa.OpCall:
		e.wr(&rec, isa.RLink, int64(pc+1))
		rec.NextPC = in.Target
	case op == isa.OpJr:
		rec.NextPC = uint32(e.rd(in.Rs1))
	case op == isa.OpCallR:
		target := uint32(e.rd(in.Rs1))
		e.wr(&rec, isa.RLink, int64(pc+1))
		rec.NextPC = target
	case op == isa.OpRet:
		rec.NextPC = uint32(e.rd(isa.RLink))
	default:
		//tracep:allow unreachable on well-formed programs: the panic aborts the process
		panic(fmt.Sprintf("emu: unknown opcode %v at pc %d", op, pc))
	}

	e.PC = rec.NextPC
	e.Count++
	return rec
}

// Run executes until halt or until max instructions have executed; it
// returns the number executed.
func (e *Emulator) Run(max uint64) uint64 {
	var n uint64
	for !e.Halted && n < max {
		e.Step()
		n++
	}
	return n
}

// Reg returns the architectural value of r (R0 is always zero).
func (e *Emulator) Reg(r isa.Reg) int64 {
	if r == 0 {
		return 0
	}
	return e.Regs[r]
}
