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

// Step executes the next instruction and writes its record into rec,
// setting every field once, so one record can be reused across a whole run.
// Stepping a halted machine writes a record with Halted set and advances
// nothing.
//
// Dispatch is one switch on the opcode, which the compiler lowers to a jump
// table, with each ALU op and branch condition evaluated in its own case
// (emu's tests hold them to isa.EvalALU and isa.BranchTaken). Both source
// registers are read up front without testing for R0: R0 is never written
// (a write to it is discarded below and Reset zeroes it), so it reads 0.
//
//tracep:noalloc
func (e *Emulator) Step(rec *Record) {
	pc := e.PC
	if e.Halted {
		*rec = Record{PC: pc, Halted: true}
		return
	}
	in := e.Prog.Ref(pc)
	rec.Inst = *in
	a := e.Regs[in.Rs1&(isa.NumRegs-1)]
	b := e.Regs[in.Rs2&(isa.NumRegs-1)]
	next := pc + 1
	var (
		dest          isa.Reg // 0: no register written
		val, storeVal int64
		addr          uint32
		taken, halted bool
	)
	switch in.Op {
	case isa.OpNop:
	case isa.OpAdd:
		dest, val = in.Rd, a+b
	case isa.OpSub:
		dest, val = in.Rd, a-b
	case isa.OpAnd:
		dest, val = in.Rd, a&b
	case isa.OpOr:
		dest, val = in.Rd, a|b
	case isa.OpXor:
		dest, val = in.Rd, a^b
	case isa.OpShl:
		dest, val = in.Rd, a<<(uint64(b)&63)
	case isa.OpShr:
		dest, val = in.Rd, int64(uint64(a)>>(uint64(b)&63))
	case isa.OpMul:
		dest, val = in.Rd, a*b
	case isa.OpDiv:
		dest = in.Rd
		if b != 0 {
			val = a / b
		}
	case isa.OpSlt:
		dest = in.Rd
		if a < b {
			val = 1
		}
	case isa.OpAddi:
		dest, val = in.Rd, a+in.Imm
	case isa.OpAndi:
		dest, val = in.Rd, a&in.Imm
	case isa.OpOri:
		dest, val = in.Rd, a|in.Imm
	case isa.OpXori:
		dest, val = in.Rd, a^in.Imm
	case isa.OpShli:
		dest, val = in.Rd, a<<(uint64(in.Imm)&63)
	case isa.OpShri:
		dest, val = in.Rd, int64(uint64(a)>>(uint64(in.Imm)&63))
	case isa.OpSlti:
		dest = in.Rd
		if a < in.Imm {
			val = 1
		}
	case isa.OpLui:
		dest, val = in.Rd, in.Imm<<16
	case isa.OpLoad:
		addr = uint32(a + in.Imm)
		dest, val = in.Rd, e.Mem.Read(addr)
	case isa.OpStore:
		addr, storeVal = uint32(a+in.Imm), b
		e.Mem.Write(addr, b)
	case isa.OpBeq:
		taken = a == b
	case isa.OpBne:
		taken = a != b
	case isa.OpBlt:
		taken = a < b
	case isa.OpBge:
		taken = a >= b
	case isa.OpJump:
		next = in.Target
	case isa.OpCall:
		dest, val, next = isa.RLink, int64(pc+1), in.Target
	case isa.OpJr:
		next = uint32(a)
	case isa.OpCallR:
		dest, val, next = isa.RLink, int64(pc+1), uint32(a)
	case isa.OpRet:
		next = uint32(e.Regs[isa.RLink])
	case isa.OpHalt:
		e.Halted, halted, next = true, true, pc
	default:
		//tracep:allow unreachable on well-formed programs: the panic aborts the process
		panic(fmt.Sprintf("emu: unknown opcode %v at pc %d", in.Op, pc))
	}
	if taken {
		next = in.Target
	}
	// A write to R0 is discarded: the record names no destination and R0
	// keeps 0.
	if dest == 0 {
		val = 0
	}
	e.Regs[dest&(isa.NumRegs-1)] = val

	// Field by field: a composite literal would be built on the stack and
	// copied out, and that copy stalls on store forwarding.
	rec.PC, rec.NextPC = pc, next
	rec.Dest, rec.Value, rec.HasDest = dest, val, dest != 0
	rec.Addr, rec.StoreVal = addr, storeVal
	rec.Taken, rec.Halted = taken, halted
	e.PC = next
	e.Count++
}

// Run executes until halt or until max instructions have executed; it
// returns the number executed.
func (e *Emulator) Run(max uint64) uint64 {
	var rec Record
	var n uint64
	for !e.Halted && n < max {
		e.Step(&rec)
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
