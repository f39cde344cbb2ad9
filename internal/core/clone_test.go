package core

import (
	"testing"

	"tracep/internal/asm"
)

// TestBITCloneIndependence: the clone carries the warmed timing array,
// memoised analyses and counters, then the two tables evolve independently.
func TestBITCloneIndependence(t *testing.T) {
	b := asm.New("hammock")
	b.Li(1, 5)
	branchPC := b.PC()
	b.Beq(1, 0, "else") // forward branch heading a small region
	b.Addi(2, 0, 1)
	b.Jump("join")
	b.Label("else")
	b.Addi(2, 0, 2)
	b.Label("join")
	b.Addi(3, 2, 1)
	b.Halt()
	prog := b.MustBuild()

	bit := NewBIT(prog, BITConfig{Entries: 16, Assoc: 2, Analyze: DefaultAnalyzeConfig()})
	reg, cycles := bit.Lookup(branchPC) // miss: pays the scan
	if !reg.Found || cycles == 0 {
		t.Fatalf("expected a found region with a miss cost, got %+v/%d", reg, cycles)
	}

	c := bit.Clone(nil)
	if c.Lookups != bit.Lookups || c.MissCycles != bit.MissCycles || c.Misses() != bit.Misses() {
		t.Fatal("clone counters diverge from original")
	}
	// The clone inherits the warmed entry: a hit, zero cycles.
	if _, cy := c.Lookup(branchPC); cy != 0 {
		t.Errorf("clone missed a warmed entry (cost %d)", cy)
	}

	// Counter independence.
	before := bit.Lookups
	c.Lookup(branchPC)
	if bit.Lookups != before {
		t.Error("clone lookups counted on the original")
	}

	// ResetStats keeps the warmed entry but zeroes the counters.
	c.ResetStats()
	if c.Lookups != 0 || c.MissCycles != 0 || c.Misses() != 0 {
		t.Error("ResetStats left counters non-zero")
	}
	if _, cy := c.Lookup(branchPC); cy != 0 {
		t.Error("ResetStats dropped the warmed entry")
	}
}
