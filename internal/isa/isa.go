// Package isa defines the instruction set architecture used by the trace
// processor reproduction: a small load/store RISC with 32 integer registers,
// word-addressed memory and absolute branch targets.
//
// The paper (Rotenberg & Smith, MICRO 1999) evaluated on SimpleScalar's
// MIPS-like PISA; this ISA is a minimal substitute that preserves everything
// the paper's mechanisms care about: conditional forward/backward branches,
// direct calls, indirect jumps and returns, and register/memory dataflow.
package isa

import "fmt"

// Reg names one of the 32 architectural integer registers. R0 is hardwired
// to zero; RLink (r31) is the link register written by call instructions.
type Reg uint8

// NumRegs is the architectural register count.
const NumRegs = 32

// RLink is the link register used by Call/CallR and read by Ret.
const RLink Reg = 31

// Op enumerates instruction opcodes.
type Op uint8

// Opcode space. Register-register ALU ops compute Rd = Rs1 op Rs2;
// immediate forms compute Rd = Rs1 op Imm. Loads compute Rd = Mem[Rs1+Imm];
// stores perform Mem[Rs1+Imm] = Rs2. Conditional branches compare Rs1 with
// Rs2 and jump to the absolute instruction index Target when the condition
// holds. PCs are instruction indices (word addressing).
const (
	OpNop Op = iota

	// Register-register ALU.
	OpAdd
	OpSub
	OpAnd
	OpOr
	OpXor
	OpShl
	OpShr
	OpMul
	OpDiv
	OpSlt // set if less-than (signed)

	// Register-immediate ALU.
	OpAddi
	OpAndi
	OpOri
	OpXori
	OpShli
	OpShri
	OpSlti
	OpLui // Rd = Imm << 16

	// Memory.
	OpLoad
	OpStore

	// Control transfer.
	OpBeq // branch if Rs1 == Rs2
	OpBne // branch if Rs1 != Rs2
	OpBlt // branch if Rs1 <  Rs2 (signed)
	OpBge // branch if Rs1 >= Rs2 (signed)

	OpJump  // unconditional direct jump to Target
	OpCall  // direct call: RLink = PC+1, jump to Target
	OpJr    // indirect jump to Rs1
	OpCallR // indirect call: RLink = PC+1, jump to Rs1
	OpRet   // return: jump to RLink

	OpHalt // stop the machine

	numOps
)

var opNames = [numOps]string{
	OpNop: "nop",
	OpAdd: "add", OpSub: "sub", OpAnd: "and", OpOr: "or", OpXor: "xor",
	OpShl: "shl", OpShr: "shr", OpMul: "mul", OpDiv: "div", OpSlt: "slt",
	OpAddi: "addi", OpAndi: "andi", OpOri: "ori", OpXori: "xori",
	OpShli: "shli", OpShri: "shri", OpSlti: "slti", OpLui: "lui",
	OpLoad: "load", OpStore: "store",
	OpBeq: "beq", OpBne: "bne", OpBlt: "blt", OpBge: "bge",
	OpJump: "jump", OpCall: "call", OpJr: "jr", OpCallR: "callr", OpRet: "ret",
	OpHalt: "halt",
}

// String returns the mnemonic for the opcode.
func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Inst is a decoded instruction. Target is an absolute instruction index for
// direct control transfers; Imm is the ALU/memory immediate.
type Inst struct {
	Op     Op
	Rd     Reg
	Rs1    Reg
	Rs2    Reg
	Imm    int64
	Target uint32
}

// Class is the set of static properties the machine reads from an opcode,
// one bit each. Every Op value has one, undefined opcodes the empty class,
// so decode is one index into a 256-entry table with no bounds check.
type Class uint8

const (
	ClassWritesRd   Class = 1 << iota // writes Rd (a write to R0 is discarded)
	ClassWritesLink                   // writes RLink: call, callr
	ClassCondBranch                   // conditional branch
	ClassIndirect                     // indirect jump, call or return
	ClassControl                      // redirects control flow at all
	ClassLoad                         // reads memory
	ClassStore                        // writes memory
)

var opClass = [256]Class{
	OpAdd: ClassWritesRd, OpSub: ClassWritesRd, OpAnd: ClassWritesRd, OpOr: ClassWritesRd,
	OpXor: ClassWritesRd, OpShl: ClassWritesRd, OpShr: ClassWritesRd, OpMul: ClassWritesRd,
	OpDiv: ClassWritesRd, OpSlt: ClassWritesRd,
	OpAddi: ClassWritesRd, OpAndi: ClassWritesRd, OpOri: ClassWritesRd, OpXori: ClassWritesRd,
	OpShli: ClassWritesRd, OpShri: ClassWritesRd, OpSlti: ClassWritesRd, OpLui: ClassWritesRd,
	OpLoad: ClassWritesRd | ClassLoad, OpStore: ClassStore,
	OpBeq: ClassCondBranch | ClassControl, OpBne: ClassCondBranch | ClassControl,
	OpBlt: ClassCondBranch | ClassControl, OpBge: ClassCondBranch | ClassControl,
	OpJump: ClassControl, OpCall: ClassWritesLink | ClassControl,
	OpJr: ClassIndirect | ClassControl, OpCallR: ClassWritesLink | ClassIndirect | ClassControl,
	OpRet: ClassIndirect | ClassControl, OpHalt: ClassControl,
}

// Class returns the opcode's static class.
//
//tracep:noalloc
func (o Op) Class() Class { return opClass[o] }

// IsCondBranch reports whether the instruction is a conditional branch.
//
//tracep:noalloc
func (in Inst) IsCondBranch() bool { return opClass[in.Op]&ClassCondBranch != 0 }

// IsIndirect reports whether the instruction is an indirect control transfer
// (jump indirect, call indirect, or return) — the class that terminates
// traces under the paper's default trace selection.
//
//tracep:noalloc
func (in Inst) IsIndirect() bool { return opClass[in.Op]&ClassIndirect != 0 }

// IsControl reports whether the instruction redirects control flow at all.
//
//tracep:noalloc
func (in Inst) IsControl() bool { return opClass[in.Op]&ClassControl != 0 }

// IsCall reports whether the instruction is a (direct or indirect) call.
func (in Inst) IsCall() bool { return opClass[in.Op]&ClassWritesLink != 0 }

// IsMem reports whether the instruction accesses memory.
func (in Inst) IsMem() bool { return opClass[in.Op]&(ClassLoad|ClassStore) != 0 }

// IsForwardBranch reports whether the instruction at pc is a conditional
// branch whose taken target lies forward in the static program.
//
//tracep:noalloc
func (in Inst) IsForwardBranch(pc uint32) bool {
	return in.IsCondBranch() && in.Target > pc
}

// IsBackwardBranch reports whether the instruction at pc is a conditional
// branch whose taken target lies at or before pc.
//
//tracep:noalloc
func (in Inst) IsBackwardBranch(pc uint32) bool {
	return in.IsCondBranch() && in.Target <= pc
}

// WritesReg reports whether the instruction writes an architectural register,
// and which one. Writes to R0 are discarded and reported as no-writes.
//
//tracep:noalloc
func (in Inst) WritesReg() (Reg, bool) {
	r := in.Rd
	switch c := opClass[in.Op]; {
	case c&ClassWritesLink != 0:
		r = RLink
	case c&ClassWritesRd == 0:
		return 0, false
	}
	return r, r != 0
}

// SrcRegs returns the architectural source registers the instruction reads.
// Unused slots are reported as (0,false). Reads of R0 are treated as constant
// zero and reported as unused so dependence tracking never waits on R0.
//
//tracep:noalloc
func (in Inst) SrcRegs() (s1 Reg, use1 bool, s2 Reg, use2 bool) {
	switch in.Op {
	case OpAdd, OpSub, OpAnd, OpOr, OpXor, OpShl, OpShr, OpMul, OpDiv, OpSlt,
		OpBeq, OpBne, OpBlt, OpBge:
		s1, use1 = in.Rs1, true
		s2, use2 = in.Rs2, true
	case OpAddi, OpAndi, OpOri, OpXori, OpShli, OpShri, OpSlti, OpLoad, OpJr, OpCallR:
		s1, use1 = in.Rs1, true
	case OpStore:
		s1, use1 = in.Rs1, true
		s2, use2 = in.Rs2, true
	case OpRet:
		s1, use1 = RLink, true
	case OpLui, OpJump, OpCall, OpNop, OpHalt:
	}
	if s1 == 0 {
		use1 = false
	}
	if s2 == 0 {
		use2 = false
	}
	return s1, use1, s2, use2
}

// EvalALU computes the result of an ALU opcode over operand values a, b and
// the immediate. Division by zero is defined to produce 0 so speculative
// wrong-path execution can never fault.
//
//tracep:noalloc
func EvalALU(op Op, a, b, imm int64) int64 {
	switch op {
	case OpAdd:
		return a + b
	case OpSub:
		return a - b
	case OpAnd:
		return a & b
	case OpOr:
		return a | b
	case OpXor:
		return a ^ b
	case OpShl:
		return a << (uint64(b) & 63)
	case OpShr:
		return int64(uint64(a) >> (uint64(b) & 63))
	case OpMul:
		return a * b
	case OpDiv:
		if b == 0 {
			return 0
		}
		return a / b
	case OpSlt:
		if a < b {
			return 1
		}
		return 0
	case OpAddi:
		return a + imm
	case OpAndi:
		return a & imm
	case OpOri:
		return a | imm
	case OpXori:
		return a ^ imm
	case OpShli:
		return a << (uint64(imm) & 63)
	case OpShri:
		return int64(uint64(a) >> (uint64(imm) & 63))
	case OpSlti:
		if a < imm {
			return 1
		}
		return 0
	case OpLui:
		return imm << 16
	}
	return 0
}

// BranchTaken evaluates a conditional branch opcode over operand values.
//
//tracep:noalloc
func BranchTaken(op Op, a, b int64) bool {
	switch op {
	case OpBeq:
		return a == b
	case OpBne:
		return a != b
	case OpBlt:
		return a < b
	case OpBge:
		return a >= b
	}
	return false
}

// Latency returns the execution latency in cycles for the opcode, following
// Table 1: integer ALU ops 1 cycle, complex ops at MIPS R10000 latencies
// (mul 5, div 34). Memory latency is modelled separately by the cache/ARB
// path (address generation 1 cycle + access).
//
//tracep:noalloc
func Latency(op Op) int {
	switch op {
	case OpMul:
		return 5
	case OpDiv:
		return 34
	default:
		return 1
	}
}

// Program is an executable image: instructions plus initial data memory and
// the entry PC.
type Program struct {
	Name  string
	Insts []Inst
	Entry uint32
	// Data holds initial data-memory words keyed by word address.
	Data map[uint32]int64
}

// halt stands in for every PC past the end of a program image.
var halt = Inst{Op: OpHalt}

// Ref returns a pointer to the instruction at pc, which callers must not
// modify: into the program's Insts, or to a shared halt for out-of-range
// PCs, so a wrong-path walk off the end of the image stops harmlessly. It is
// the only program accessor.
//
//tracep:noalloc
func (p *Program) Ref(pc uint32) *Inst {
	if int(pc) >= len(p.Insts) {
		return &halt
	}
	return &p.Insts[pc]
}

// Len returns the static instruction count.
func (p *Program) Len() int { return len(p.Insts) }

// String formats the instruction for disassembly listings.
func (in Inst) String() string {
	switch in.Op {
	case OpNop, OpHalt, OpRet:
		return in.Op.String()
	case OpJump, OpCall:
		return fmt.Sprintf("%s %d", in.Op, in.Target)
	case OpJr, OpCallR:
		return fmt.Sprintf("%s r%d", in.Op, in.Rs1)
	case OpBeq, OpBne, OpBlt, OpBge:
		return fmt.Sprintf("%s r%d, r%d, %d", in.Op, in.Rs1, in.Rs2, in.Target)
	case OpLoad:
		return fmt.Sprintf("load r%d, %d(r%d)", in.Rd, in.Imm, in.Rs1)
	case OpStore:
		return fmt.Sprintf("store r%d, %d(r%d)", in.Rs2, in.Imm, in.Rs1)
	case OpAddi, OpAndi, OpOri, OpXori, OpShli, OpShri, OpSlti:
		return fmt.Sprintf("%s r%d, r%d, %d", in.Op, in.Rd, in.Rs1, in.Imm)
	case OpLui:
		return fmt.Sprintf("lui r%d, %d", in.Rd, in.Imm)
	default:
		return fmt.Sprintf("%s r%d, r%d, r%d", in.Op, in.Rd, in.Rs1, in.Rs2)
	}
}
