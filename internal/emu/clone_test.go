package emu

import (
	"testing"

	"tracep/internal/asm"
)

// TestCloneIndependence: a cloned emulator resumes mid-program exactly like
// the original, with a private memory.
func TestCloneIndependence(t *testing.T) {
	b := asm.New("emuclone")
	b.Li(1, 0)
	b.Li(2, 0) // i
	b.Label("loop")
	b.Add(1, 1, 2)
	b.Store(1, 2, 100)
	b.Addi(2, 2, 1)
	b.Slti(3, 2, 40)
	b.Bne(3, 0, "loop")
	b.Halt()
	prog := b.MustBuild()

	e := New(prog)
	e.Run(50)
	c := e.Clone(nil)
	if c.PC != e.PC || c.Count != e.Count || c.Regs != e.Regs {
		t.Fatalf("clone state diverges: pc %d/%d count %d/%d", c.PC, e.PC, c.Count, e.Count)
	}

	// Run both to completion; they must agree entirely.
	e.Run(1 << 20)
	c.Run(1 << 20)
	if !e.Halted || !c.Halted || e.Regs != c.Regs || e.Count != c.Count {
		t.Fatalf("resumed runs diverged: halted %v/%v count %d/%d", e.Halted, c.Halted, e.Count, c.Count)
	}
	for addr := uint32(100); addr < 140; addr++ {
		if e.Mem.Read(addr) != c.Mem.Read(addr) {
			t.Fatalf("memory diverged at %d: %d vs %d", addr, e.Mem.Read(addr), c.Mem.Read(addr))
		}
	}

	// Memory privacy: writes after the clone must not be shared.
	e.Mem.Write(500, 1)
	if c.Mem.Read(500) != 0 {
		t.Error("original's memory write reached the clone")
	}
}
