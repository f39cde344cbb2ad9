package emu

import (
	"testing"

	"tracep/internal/asm"
	"tracep/internal/isa"
)

func TestStraightLine(t *testing.T) {
	p := asm.New("t").
		Addi(1, 0, 5).
		Addi(2, 0, 7).
		Add(3, 1, 2).
		Mul(4, 3, 3).
		Halt().
		MustBuild()
	e := New(p)
	e.Run(100)
	if !e.Halted {
		t.Fatal("should halt")
	}
	if e.Reg(3) != 12 || e.Reg(4) != 144 {
		t.Errorf("r3=%d r4=%d, want 12, 144", e.Reg(3), e.Reg(4))
	}
}

func TestLoop(t *testing.T) {
	// sum 1..10
	p := asm.New("t").
		Addi(1, 0, 0).  // sum
		Addi(2, 0, 1).  // i
		Addi(3, 0, 10). // limit
		Label("loop").
		Add(1, 1, 2).
		Addi(2, 2, 1).
		Bge(3, 2, "loop").
		Halt().
		MustBuild()
	e := New(p)
	e.Run(1000)
	if e.Reg(1) != 55 {
		t.Errorf("sum = %d, want 55", e.Reg(1))
	}
}

func TestCallRet(t *testing.T) {
	b := asm.New("t")
	b.Addi(1, 0, 3).
		Call("double").
		Call("double").
		Halt().
		Label("double").
		Add(1, 1, 1).
		Ret()
	e := New(b.MustBuild())
	e.Run(100)
	if e.Reg(1) != 12 {
		t.Errorf("r1 = %d, want 12", e.Reg(1))
	}
	if !e.Halted {
		t.Fatal("should halt")
	}
}

func TestNestedCallsWithStack(t *testing.T) {
	// A recursive-style call chain that saves the link register on a stack.
	b := asm.New("t")
	b.Li(29, 1000) // stack pointer
	b.Addi(1, 0, 4).
		Call("fact").
		Halt()
	// fact(n in r1) -> r2 = n! using manual stack for link + n
	b.Label("fact").
		Slti(3, 1, 2). // n < 2 ?
		Beq(3, 0, "recurse").
		Addi(2, 0, 1). // base: 1
		Ret()
	b.Label("recurse").
		Store(31, 29, 0). // push link
		Store(1, 29, 1).  // push n
		Addi(29, 29, 2).
		Addi(1, 1, -1).
		Call("fact").
		Addi(29, 29, -2).
		Load(1, 29, 1).  // pop n
		Load(31, 29, 0). // pop link
		Mul(2, 2, 1).
		Ret()
	e := New(b.MustBuild())
	e.Run(10000)
	if e.Reg(2) != 24 {
		t.Errorf("4! = %d, want 24", e.Reg(2))
	}
}

func TestMemoryOps(t *testing.T) {
	b := asm.New("t")
	b.Word(50, 11)
	b.Li(1, 50).
		Load(2, 1, 0).  // r2 = 11
		Addi(2, 2, 1).  // 12
		Store(2, 1, 5). // mem[55] = 12
		Load(3, 1, 5).  // r3 = 12
		Halt()
	e := New(b.MustBuild())
	e.Run(100)
	if e.Reg(3) != 12 {
		t.Errorf("r3 = %d, want 12", e.Reg(3))
	}
	if e.Mem.Read(55) != 12 {
		t.Errorf("mem[55] = %d, want 12", e.Mem.Read(55))
	}
}

func TestIndirectJump(t *testing.T) {
	b := asm.New("t")
	b.LabelAddr(1, "target").
		Jr(1).
		Addi(2, 0, 99). // skipped
		Label("target").
		Addi(2, 0, 7).
		Halt()
	e := New(b.MustBuild())
	e.Run(100)
	if e.Reg(2) != 7 {
		t.Errorf("r2 = %d, want 7", e.Reg(2))
	}
}

func TestCallR(t *testing.T) {
	b := asm.New("t")
	b.LabelAddr(1, "fn").
		CallR(1).
		Halt().
		Label("fn").
		Addi(2, 0, 9).
		Ret()
	e := New(b.MustBuild())
	e.Run(100)
	if e.Reg(2) != 9 {
		t.Errorf("r2 = %d, want 9", e.Reg(2))
	}
}

func TestR0AlwaysZero(t *testing.T) {
	b := asm.New("t")
	b.Addi(0, 0, 99).
		Add(1, 0, 0).
		Halt()
	e := New(b.MustBuild())
	e.Run(100)
	if e.Reg(0) != 0 || e.Reg(1) != 0 {
		t.Errorf("r0=%d r1=%d, want 0, 0", e.Reg(0), e.Reg(1))
	}
}

func TestRecordFields(t *testing.T) {
	b := asm.New("t")
	b.Addi(1, 0, 2).
		Beq(1, 1, "x").
		Nop().
		Label("x").
		Store(1, 0, 7).
		Halt()
	e := New(b.MustBuild())
	var r Record
	e.Step(&r)
	if !r.HasDest || r.Dest != 1 || r.Value != 2 {
		t.Errorf("addi record wrong: %+v", r)
	}
	e.Step(&r)
	if !r.Taken || r.NextPC != 3 {
		t.Errorf("beq record wrong: %+v", r)
	}
	e.Step(&r)
	if r.Inst.Op != isa.OpStore || r.Addr != 7 || r.StoreVal != 2 {
		t.Errorf("store record wrong: %+v", r)
	}
	e.Step(&r)
	if !r.Halted {
		t.Errorf("halt record wrong: %+v", r)
	}
	if e.Step(&r); !r.Halted {
		t.Error("stepping a halted machine should write a Halted record")
	}
	if e.Count != 4 {
		t.Errorf("count = %d, want 4", e.Count)
	}
}

func TestRunBound(t *testing.T) {
	// Infinite loop: Run must respect the max bound.
	b := asm.New("t")
	b.Label("l").Jump("l")
	e := New(b.MustBuild())
	if n := e.Run(500); n != 500 {
		t.Errorf("ran %d, want 500", n)
	}
	if e.Halted {
		t.Error("should not be halted")
	}
}
