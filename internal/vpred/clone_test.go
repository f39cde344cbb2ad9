package vpred

import "testing"

// TestCloneIndependence: the table and counters copy exactly, and training
// either predictor afterwards never reaches the other.
func TestCloneIndependence(t *testing.T) {
	p := New(Config{Entries: 64, Stride: true, ConfidenceThreshold: 3})
	const key = 0xBEEF
	for v := int64(10); v <= 50; v += 10 {
		p.Train(key, v)
	}

	c := p.Clone(nil)
	pv, pok := p.Predict(key)
	cv, cok := c.Predict(key)
	if pok != cok || pv != cv {
		t.Fatalf("clone predicts %d/%v, original %d/%v", cv, cok, pv, pok)
	}
	if c.Trains != p.Trains || c.Correct != p.Correct {
		t.Fatalf("clone counters diverge: %d/%d vs %d/%d", c.Trains, c.Correct, p.Trains, p.Correct)
	}

	// Break the original's stride pattern; the clone must keep predicting.
	for i := 0; i < 8; i++ {
		p.Train(key, 7)
	}
	if _, ok := c.Predict(key); !ok {
		t.Error("original's retraining leaked into the clone")
	}
}

func TestCloneResetStats(t *testing.T) {
	p := New(Config{Entries: 64, ConfidenceThreshold: 0})
	p.Train(1, 5)
	p.Predict(1)
	p.ResetStats()
	if p.Trains != 0 || p.Predictions != 0 || p.Correct != 0 {
		t.Errorf("counters not reset: %d/%d/%d", p.Trains, p.Predictions, p.Correct)
	}
}
