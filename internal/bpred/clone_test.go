package bpred

import "testing"

// TestCloneIndependence: counters, indirect targets and the RAS survive the
// copy exactly, and training either predictor afterwards never reaches the
// other.
func TestCloneIndependence(t *testing.T) {
	p := New(Config{Entries: 64, RASDepth: 4})
	for i := 0; i < 10; i++ {
		p.UpdateDirection(7, true)
	}
	p.UpdateIndirect(9, 1234)
	p.PushRAS(55)
	p.PushRAS(66)
	p.PredictDirection(7)

	c := p.Clone(nil)
	if c.Lookups != p.Lookups {
		t.Errorf("clone Lookups = %d, want %d", c.Lookups, p.Lookups)
	}
	if got := c.PredictDirection(7); !got {
		t.Error("clone lost trained direction state")
	}
	if got := c.PredictIndirect(9); got != 1234 {
		t.Errorf("clone indirect target = %d, want 1234", got)
	}

	// Push the original strongly not-taken; the clone must stay taken.
	for i := 0; i < 10; i++ {
		p.UpdateDirection(7, false)
	}
	if !c.PredictDirection(7) {
		t.Error("original's training leaked into the clone")
	}

	// RAS independence: pop both and compare, then diverge.
	if r, ok := c.PopRAS(); !ok || r != 66 {
		t.Errorf("clone RAS top = %d/%v, want 66", r, ok)
	}
	if r, ok := p.PopRAS(); !ok || r != 66 {
		t.Errorf("original RAS top = %d/%v, want 66 (clone's pop must not consume it)", r, ok)
	}
}

func TestResetStats(t *testing.T) {
	p := New(Config{Entries: 64, RASDepth: 4})
	p.PredictDirection(3)
	p.ResetStats()
	if p.Lookups != 0 {
		t.Errorf("Lookups = %d after ResetStats", p.Lookups)
	}
}

// TestCloneCopiesStamps: a clone of a trained, seeded predictor reads every
// entry as the original does — both the entries training wrote and the ones
// still pristine — and a Reset of the clone returns it to pristine.
func TestCloneCopiesStamps(t *testing.T) {
	cfg := Config{Entries: 128, RASDepth: 4, Seed: 7}
	p := New(cfg)
	train(p, 40)
	dst := New(Config{Entries: 128, RASDepth: 4})
	train(dst, 90)
	c := p.Clone(dst)
	wantCtr, wantTarget := logicalState(p)
	ctr, target := logicalState(c)
	sameState(t, "clone", ctr, target, wantCtr, wantTarget)
	c.Reset(cfg)
	ctr, target = logicalState(c)
	wantCtr, wantTarget = eagerReset(cfg)
	sameState(t, "Reset of the clone", ctr, target, wantCtr, wantTarget)
}
