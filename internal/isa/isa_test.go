package isa

import (
	"testing"
	"testing/quick"
)

func TestEvalALUBasics(t *testing.T) {
	cases := []struct {
		op      Op
		a, b, i int64
		want    int64
	}{
		{OpAdd, 2, 3, 0, 5},
		{OpSub, 2, 3, 0, -1},
		{OpAnd, 6, 3, 0, 2},
		{OpOr, 6, 3, 0, 7},
		{OpXor, 6, 3, 0, 5},
		{OpShl, 1, 4, 0, 16},
		{OpShr, 16, 4, 0, 1},
		{OpMul, 7, 6, 0, 42},
		{OpDiv, 42, 6, 0, 7},
		{OpDiv, 42, 0, 0, 0}, // division by zero is defined as 0
		{OpSlt, 1, 2, 0, 1},
		{OpSlt, 2, 1, 0, 0},
		{OpAddi, 2, 99, 3, 5},
		{OpAndi, 6, 99, 3, 2},
		{OpOri, 6, 99, 3, 7},
		{OpXori, 6, 99, 3, 5},
		{OpShli, 1, 99, 4, 16},
		{OpShri, 16, 99, 4, 1},
		{OpSlti, 1, 99, 2, 1},
		{OpLui, 0, 0, 3, 3 << 16},
	}
	for _, c := range cases {
		if got := EvalALU(c.op, c.a, c.b, c.i); got != c.want {
			t.Errorf("EvalALU(%v, %d, %d, %d) = %d, want %d", c.op, c.a, c.b, c.i, got, c.want)
		}
	}
}

func TestBranchTaken(t *testing.T) {
	cases := []struct {
		op   Op
		a, b int64
		want bool
	}{
		{OpBeq, 1, 1, true},
		{OpBeq, 1, 2, false},
		{OpBne, 1, 2, true},
		{OpBne, 2, 2, false},
		{OpBlt, -1, 0, true},
		{OpBlt, 0, 0, false},
		{OpBge, 0, 0, true},
		{OpBge, -1, 0, false},
	}
	for _, c := range cases {
		if got := BranchTaken(c.op, c.a, c.b); got != c.want {
			t.Errorf("BranchTaken(%v, %d, %d) = %v, want %v", c.op, c.a, c.b, got, c.want)
		}
	}
}

func TestShiftsAreTotal(t *testing.T) {
	// Shift amounts are masked, so any operand value is safe — this matters
	// for wrong-path execution where garbage values flow into shifters.
	f := func(a, b int64) bool {
		_ = EvalALU(OpShl, a, b, 0)
		_ = EvalALU(OpShr, a, b, 0)
		_ = EvalALU(OpDiv, a, b, 0)
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestInstClassification(t *testing.T) {
	beq := Inst{Op: OpBeq, Target: 10}
	if !beq.IsCondBranch() || !beq.IsControl() {
		t.Error("beq should be a conditional branch and control")
	}
	if !beq.IsForwardBranch(5) || beq.IsBackwardBranch(5) {
		t.Error("beq to 10 from 5 is forward")
	}
	if beq.IsForwardBranch(10) || !beq.IsBackwardBranch(10) {
		t.Error("beq to 10 from 10 is backward (target <= pc)")
	}
	for _, op := range []Op{OpJr, OpCallR, OpRet} {
		if !(Inst{Op: op}).IsIndirect() {
			t.Errorf("%v should be indirect", op)
		}
	}
	if (Inst{Op: OpJump}).IsIndirect() || (Inst{Op: OpCall}).IsIndirect() {
		t.Error("direct jump/call must not be classified indirect")
	}
	if !(Inst{Op: OpCall}).IsCall() || !(Inst{Op: OpCallR}).IsCall() {
		t.Error("calls should classify as calls")
	}
}

// TestOpClassTable checks all 256 Op values, defined or not, against a
// class table written out here from the ISA's definition: the class bits,
// every predicate that reads them, and WritesReg with Rd r5 and with Rd r0
// (a write to R0 is no write, but call and callr write RLink whatever Rd
// holds).
func TestOpClassTable(t *testing.T) {
	type row struct{ rd, link, cond, ind, ctl, load, store bool }
	alu := row{rd: true}
	want := map[Op]row{
		OpNop: {},
		OpAdd: alu, OpSub: alu, OpAnd: alu, OpOr: alu, OpXor: alu,
		OpShl: alu, OpShr: alu, OpMul: alu, OpDiv: alu, OpSlt: alu,
		OpAddi: alu, OpAndi: alu, OpOri: alu, OpXori: alu,
		OpShli: alu, OpShri: alu, OpSlti: alu, OpLui: alu,
		OpLoad:  {rd: true, load: true},
		OpStore: {store: true},
		OpBeq:   {cond: true, ctl: true},
		OpBne:   {cond: true, ctl: true},
		OpBlt:   {cond: true, ctl: true},
		OpBge:   {cond: true, ctl: true},
		OpJump:  {ctl: true},
		OpCall:  {link: true, ctl: true},
		OpJr:    {ind: true, ctl: true},
		OpCallR: {link: true, ind: true, ctl: true},
		OpRet:   {ind: true, ctl: true},
		OpHalt:  {ctl: true},
	}
	if len(want) != int(numOps) {
		t.Fatalf("table covers %d opcodes, the ISA defines %d", len(want), numOps)
	}
	for i := 0; i < 256; i++ {
		op := Op(i)
		w := want[op] // an undefined opcode has the empty class
		c := op.Class()
		got := row{
			rd: c&ClassWritesRd != 0, link: c&ClassWritesLink != 0,
			cond: c&ClassCondBranch != 0, ind: c&ClassIndirect != 0, ctl: c&ClassControl != 0,
			load: c&ClassLoad != 0, store: c&ClassStore != 0,
		}
		if got != w {
			t.Errorf("%v: class %+v, want %+v", op, got, w)
		}
		in := Inst{Op: op}
		if in.IsCondBranch() != w.cond || in.IsIndirect() != w.ind || in.IsControl() != w.ctl ||
			in.IsCall() != w.link || in.IsMem() != (w.load || w.store) {
			t.Errorf("%v: a predicate disagrees with %+v", op, w)
		}
		for _, rd := range []Reg{5, 0} {
			in.Rd = rd
			wantReg, wantOK := Reg(0), false
			switch {
			case w.link:
				wantReg, wantOK = RLink, true
			case w.rd && rd != 0:
				wantReg, wantOK = rd, true
			}
			if r, ok := in.WritesReg(); r != wantReg || ok != wantOK {
				t.Errorf("%v with rd r%d: WritesReg = (r%d, %v), want (r%d, %v)", op, rd, r, ok, wantReg, wantOK)
			}
		}
	}
}

func TestWritesRegAndSrcRegs(t *testing.T) {
	add := Inst{Op: OpAdd, Rd: 3, Rs1: 1, Rs2: 2}
	if r, ok := add.WritesReg(); !ok || r != 3 {
		t.Errorf("add writes r3, got (%d,%v)", r, ok)
	}
	s1, u1, s2, u2 := add.SrcRegs()
	if !u1 || s1 != 1 || !u2 || s2 != 2 {
		t.Errorf("add sources = (%d,%v,%d,%v)", s1, u1, s2, u2)
	}

	// Writes to R0 are discarded.
	zero := Inst{Op: OpAdd, Rd: 0, Rs1: 1, Rs2: 2}
	if _, ok := zero.WritesReg(); ok {
		t.Error("write to r0 must be reported as no-write")
	}

	// Reads of R0 are constant and must not create dependences.
	addz := Inst{Op: OpAdd, Rd: 3, Rs1: 0, Rs2: 2}
	_, u1, _, _ = addz.SrcRegs()
	if u1 {
		t.Error("read of r0 must be reported unused")
	}

	call := Inst{Op: OpCall, Target: 7}
	if r, ok := call.WritesReg(); !ok || r != RLink {
		t.Errorf("call writes link register, got (%d,%v)", r, ok)
	}
	ret := Inst{Op: OpRet}
	s1, u1, _, u2 = ret.SrcRegs()
	if !u1 || s1 != RLink || u2 {
		t.Error("ret reads the link register only")
	}
	st := Inst{Op: OpStore, Rs1: 4, Rs2: 5}
	s1, u1, s2, u2 = st.SrcRegs()
	if !u1 || s1 != 4 || !u2 || s2 != 5 {
		t.Error("store reads base and data registers")
	}
}

func TestProgramAtOutOfRange(t *testing.T) {
	p := &Program{Insts: []Inst{{Op: OpNop}}}
	if p.Ref(0) != &p.Insts[0] {
		t.Error("Ref(0) should point into the program's Insts")
	}
	if p.Ref(99).Op != OpHalt || p.Ref(99) != p.Ref(1000) {
		t.Error("out-of-range PCs must share the halt")
	}
}

func TestMemorySparse(t *testing.T) {
	m := NewMemory(nil)
	if m.Read(12345) != 0 {
		t.Error("untouched words read as zero")
	}
	m.Write(12345, -7)
	if m.Read(12345) != -7 {
		t.Error("write/read roundtrip failed")
	}
	// Page-boundary neighbours must be independent.
	m.Write(4095, 1)
	m.Write(4096, 2)
	if m.Read(4095) != 1 || m.Read(4096) != 2 {
		t.Error("page boundary writes interfere")
	}
}

func TestMemoryClone(t *testing.T) {
	m := NewMemory(nil)
	m.Write(10, 42)
	c := m.Clone(nil)
	c.Write(10, 43)
	if m.Read(10) != 42 || c.Read(10) != 43 {
		t.Error("clone must be independent of the original")
	}
}

func TestMemoryQuick(t *testing.T) {
	// Property: a memory behaves exactly like a map.
	type op struct {
		Addr uint32
		Val  int64
	}
	f := func(ops []op) bool {
		m := NewMemory(nil)
		ref := make(map[uint32]int64)
		for _, o := range ops {
			a := o.Addr % 100000
			m.Write(a, o.Val)
			ref[a] = o.Val
		}
		for a, v := range ref {
			if m.Read(a) != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
