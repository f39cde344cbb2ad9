package tpred

import (
	"testing"

	"tracep/internal/trace"
)

func desc(pc uint32, n uint8) trace.Descriptor {
	return trace.Descriptor{StartPC: pc, Len: 10, NumBr: n}
}

func TestColdPredictorHasNoOpinion(t *testing.T) {
	p := New(Config{PathEntries: 256, SimpleEntries: 256, HistLen: 4}, 0)
	if _, ok := p.Predict(); ok {
		t.Error("cold predictor must not predict")
	}
}

func TestLearnsRepeatingSequence(t *testing.T) {
	p := New(Config{PathEntries: 1 << 10, SimpleEntries: 1 << 10, HistLen: 4}, 0)
	seq := []trace.Descriptor{desc(0, 1), desc(40, 2), desc(80, 0), desc(120, 3)}
	// Warm up: walk the sequence several times, training with the history
	// checkpoint of each trace.
	for lap := 0; lap < 4; lap++ {
		for _, d := range seq {
			pos := p.SpecUpdate(d)
			p.Train(pos, d)
		}
	}
	// Now predictions should follow the sequence.
	correct := 0
	for _, d := range seq {
		got, ok := p.Predict()
		if ok && got == d {
			correct++
		}
		p.SpecUpdate(d)
	}
	if correct != len(seq) {
		t.Errorf("predicted %d/%d of a learned sequence", correct, len(seq))
	}
}

func TestPathBeatsSimpleOnContext(t *testing.T) {
	// Sequence where the successor of B depends on what preceded it:
	// A B C ... D B E ... — a last-trace (simple) predictor can't separate
	// the two B contexts, the path predictor can.
	p := New(Config{PathEntries: 1 << 12, SimpleEntries: 1 << 12, HistLen: 4}, 0)
	a, bb, cc, dd, ee := desc(0, 0), desc(10, 0), desc(20, 0), desc(30, 0), desc(40, 0)
	seq := []trace.Descriptor{a, bb, cc, dd, bb, ee}
	for lap := 0; lap < 8; lap++ {
		for _, d := range seq {
			pos := p.SpecUpdate(d)
			p.Train(pos, d)
		}
	}
	correct := 0
	for _, d := range seq {
		got, ok := p.Predict()
		if ok && got == d {
			correct++
		}
		p.SpecUpdate(d)
	}
	// The path component must disambiguate both B successors; allow the
	// first element to miss (it depends on the tail context, which is also
	// periodic here, so in practice all 6 hit).
	if correct < 5 {
		t.Errorf("predicted %d/6 of a context-dependent sequence", correct)
	}
	if p.PathPredictions == 0 {
		t.Error("path component never used")
	}
}

func TestRewindAndReplace(t *testing.T) {
	p := New(Config{PathEntries: 256, SimpleEntries: 256, HistLen: 4}, 0)
	p.SpecUpdate(desc(0, 0))
	pos1 := p.SpecUpdate(desc(10, 0))
	p.SpecUpdate(desc(20, 0))
	if p.HistoryPos() != 3 {
		t.Fatalf("history pos = %d, want 3", p.HistoryPos())
	}
	// Rewind to before trace 1: only trace 0 remains.
	p.Rewind(pos1)
	if p.HistoryPos() != 1 {
		t.Errorf("after rewind pos = %d, want 1", p.HistoryPos())
	}
	// Replace in place.
	p.SpecUpdate(desc(10, 0))
	p.SpecUpdate(desc(20, 0))
	p.ReplaceAt(pos1, desc(99, 0))
	if p.hist[1] != desc(99, 0).ID() {
		t.Error("ReplaceAt did not overwrite the history element")
	}
	// Out-of-range operations are no-ops.
	p.ReplaceAt(-1, desc(1, 0))
	p.ReplaceAt(100, desc(1, 0))
	p.Rewind(-5)
	if p.HistoryPos() != 0 {
		t.Errorf("Rewind(-5) should clear history, pos = %d", p.HistoryPos())
	}
}

func TestHysteresisResistsNoise(t *testing.T) {
	p := New(Config{PathEntries: 256, SimpleEntries: 256, HistLen: 2}, 0)
	good := desc(10, 0)
	noise := desc(20, 0)
	// Train good strongly at empty history.
	for i := 0; i < 4; i++ {
		p.Train(0, good)
	}
	// One noisy observation must not evict it.
	p.Train(0, noise)
	got, ok := p.Predict()
	if !ok || got != good {
		t.Errorf("prediction after noise = %v (ok=%v), want the trained descriptor", got, ok)
	}
	// Repeated noise eventually replaces it.
	for i := 0; i < 8; i++ {
		p.Train(0, noise)
	}
	got, ok = p.Predict()
	if !ok || got != noise {
		t.Errorf("prediction after retraining = %v (ok=%v), want the new descriptor", got, ok)
	}
}

func TestReset(t *testing.T) {
	p := New(Config{PathEntries: 256, SimpleEntries: 256, HistLen: 2}, 0)
	p.SpecUpdate(desc(1, 0))
	p.Reset(p.cfg, 0)
	if p.HistoryPos() != 0 {
		t.Error("Reset must clear speculative history")
	}
}

func TestBadConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("non-power-of-two table must panic")
		}
	}()
	New(Config{PathEntries: 100, SimpleEntries: 256, HistLen: 2}, 0)
}

// TestSeededHysteresis: a nonzero seed scrambles initial confidence
// counters, so first installations are dithered — the predictor may need
// several trainings before an entry installs — while seed 0 keeps the
// canonical install-on-first-training reset. Seeded behaviour must be
// deterministic per seed.
func TestSeededHysteresis(t *testing.T) {
	cfg := Config{PathEntries: 64, SimpleEntries: 64, HistLen: 4}
	d := trace.Descriptor{StartPC: 12, Len: 5, NumBr: 1}

	// Canonical reset: one training (at the current history position, so
	// Predict indexes the same entries) installs.
	p0 := New(cfg, 0)
	p0.Train(p0.HistoryPos(), d)
	if got, ok := p0.Predict(); !ok || got != d {
		t.Fatalf("unseeded predictor did not install on first training: %v %v", got, ok)
	}

	// Seeded: same-seed predictors agree with each other; the counter
	// scramble differs from the zero reset somewhere in the tables.
	a, b := New(cfg, 99), New(cfg, 99)
	step := func(p *Predictor) (trace.Descriptor, bool) {
		p.Train(p.HistoryPos(), d)
		return p.Predict()
	}
	for n := 1; n <= 4; n++ {
		ga, oka := step(a)
		gb, okb := step(b)
		if ga != gb || oka != okb {
			t.Fatalf("same-seed predictors diverged after %d trainings", n)
		}
	}
}
