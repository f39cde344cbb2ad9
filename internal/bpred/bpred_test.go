package bpred

import (
	"testing"

	"tracep/internal/isa"
)

func TestCounterTraining(t *testing.T) {
	p := New(Config{Entries: 64, RASDepth: 4}, 0)
	pc := uint32(5)
	if p.PredictDirection(pc) {
		t.Error("fresh counter should predict not-taken (weakly)")
	}
	p.UpdateDirection(pc, true)
	if !p.PredictDirection(pc) {
		t.Error("after one taken update should predict taken")
	}
	p.UpdateDirection(pc, true)
	p.UpdateDirection(pc, false)
	if !p.PredictDirection(pc) {
		t.Error("strongly-taken survives one not-taken (hysteresis)")
	}
	p.UpdateDirection(pc, false)
	p.UpdateDirection(pc, false)
	if p.PredictDirection(pc) {
		t.Error("after repeated not-taken should predict not-taken")
	}
}

func TestCounterSaturation(t *testing.T) {
	p := New(Config{Entries: 64, RASDepth: 4}, 0)
	for i := 0; i < 10; i++ {
		p.UpdateDirection(1, true)
	}
	// Needs exactly two not-taken to flip, no matter how many taken updates.
	p.UpdateDirection(1, false)
	p.UpdateDirection(1, false)
	if p.PredictDirection(1) {
		t.Error("saturating counter must flip after two opposite updates")
	}
	for i := 0; i < 10; i++ {
		p.UpdateDirection(1, false)
	}
	p.UpdateDirection(1, true)
	p.UpdateDirection(1, true)
	if !p.PredictDirection(1) {
		t.Error("saturation must be bounded at 0 as well")
	}
}

func TestTaglessAliasing(t *testing.T) {
	p := New(Config{Entries: 16, RASDepth: 4}, 0)
	p.UpdateDirection(3, true)
	p.UpdateDirection(3, true)
	// PC 19 aliases PC 3 in a 16-entry tagless table.
	if !p.PredictDirection(19) {
		t.Error("tagless table must alias (19 mod 16 == 3)")
	}
}

func TestIndirectTargets(t *testing.T) {
	p := New(Config{Entries: 64, RASDepth: 4}, 0)
	if p.PredictIndirect(9) != 0 {
		t.Error("unknown indirect target should be 0")
	}
	p.UpdateIndirect(9, 1234)
	if p.PredictIndirect(9) != 1234 {
		t.Error("indirect target not remembered")
	}
}

func TestRAS(t *testing.T) {
	p := New(Config{Entries: 64, RASDepth: 2}, 0)
	p.PushRAS(10)
	p.PushRAS(20)
	if v, ok := p.PopRAS(); !ok || v != 20 {
		t.Errorf("pop = (%d,%v), want (20,true)", v, ok)
	}
	if v, ok := p.PopRAS(); !ok || v != 10 {
		t.Errorf("pop = (%d,%v), want (10,true)", v, ok)
	}
	if _, ok := p.PopRAS(); ok {
		t.Error("empty RAS must report not-ok")
	}
	// Overflow drops the oldest entry.
	p.PushRAS(1)
	p.PushRAS(2)
	p.PushRAS(3)
	if v, _ := p.PopRAS(); v != 3 {
		t.Error("overflowed RAS should keep newest")
	}
	if v, _ := p.PopRAS(); v != 2 {
		t.Error("overflowed RAS should have dropped the oldest entry")
	}
}

// predictInst predicts both direction and next PC for the instruction at pc
// from p's direction table, RAS and indirect targets, maintaining the RAS
// for calls and returns.
func predictInst(p *Predictor, pc uint32, in isa.Inst) (taken bool, next uint32) {
	switch {
	case in.IsCondBranch():
		taken = p.PredictDirection(pc)
		if taken {
			return true, in.Target
		}
		return false, pc + 1
	case in.Op == isa.OpJump:
		return true, in.Target
	case in.Op == isa.OpCall:
		p.PushRAS(pc + 1)
		return true, in.Target
	case in.Op == isa.OpRet:
		if t, ok := p.PopRAS(); ok {
			return true, t
		}
		return true, p.PredictIndirect(pc)
	case in.Op == isa.OpCallR:
		p.PushRAS(pc + 1)
		return true, p.PredictIndirect(pc)
	case in.Op == isa.OpJr:
		return true, p.PredictIndirect(pc)
	default:
		return false, pc + 1
	}
}

func TestPredictInst(t *testing.T) {
	p := New(Config{Entries: 64, RASDepth: 4}, 0)

	// Conditional branch: follows the direction table.
	br := isa.Inst{Op: isa.OpBne, Target: 50}
	taken, next := predictInst(p, 4, br)
	if taken || next != 5 {
		t.Errorf("cold branch = (%v,%d), want (false,5)", taken, next)
	}
	p.UpdateDirection(4, true)
	p.UpdateDirection(4, true)
	if taken, next = predictInst(p, 4, br); !taken || next != 50 {
		t.Errorf("trained branch = (%v,%d), want (true,50)", taken, next)
	}

	// Direct jump and call.
	if _, next = predictInst(p, 7, isa.Inst{Op: isa.OpJump, Target: 99}); next != 99 {
		t.Errorf("jump next = %d, want 99", next)
	}
	if _, next = predictInst(p, 8, isa.Inst{Op: isa.OpCall, Target: 200}); next != 200 {
		t.Errorf("call next = %d, want 200", next)
	}
	// Return pops the RAS entry pushed by the call.
	if _, next = predictInst(p, 201, isa.Inst{Op: isa.OpRet}); next != 9 {
		t.Errorf("ret next = %d, want 9 (pushed by call at 8)", next)
	}
	// Non-control instructions fall through.
	if taken, next = predictInst(p, 3, isa.Inst{Op: isa.OpAdd}); taken || next != 4 {
		t.Errorf("add = (%v,%d), want (false,4)", taken, next)
	}
}

func TestBadConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("non-power-of-two entries must panic")
		}
	}()
	New(Config{Entries: 100}, 0)
}

// TestSeededTargets: a nonzero seed scrambles a sparse subset of BTB
// indirect targets (modelling aliased leftovers from a prior context) in a
// way that is deterministic per seed and leaves seed 0 with the clean
// no-prediction reset.
func TestSeededTargets(t *testing.T) {
	clean := New(Config{Entries: 1024, RASDepth: 4}, 0)
	for pc := uint32(0); pc < 1024; pc++ {
		if got := clean.PredictIndirect(pc); got != 0 {
			t.Fatalf("unseeded BTB predicts target %d at pc %d; want none", got, pc)
		}
	}

	a := New(Config{Entries: 1024, RASDepth: 4}, 7)
	b := New(Config{Entries: 1024, RASDepth: 4}, 7)
	c := New(Config{Entries: 1024, RASDepth: 4}, 8)
	scrambled, differ := 0, false
	for pc := uint32(0); pc < 1024; pc++ {
		ta, tb, tc := a.PredictIndirect(pc), b.PredictIndirect(pc), c.PredictIndirect(pc)
		if ta != tb {
			t.Fatalf("same-seed BTBs disagree at pc %d: %d vs %d", pc, ta, tb)
		}
		if ta != 0 {
			scrambled++
		}
		if ta != tc {
			differ = true
		}
	}
	if scrambled == 0 {
		t.Fatal("seeded BTB scrambled no targets")
	}
	if scrambled > 1024/4 {
		t.Fatalf("seeded BTB scrambled %d/1024 targets; want a sparse subset", scrambled)
	}
	if !differ {
		t.Fatal("different seeds produced identical target state")
	}
}
