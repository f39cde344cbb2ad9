package vpred

import (
	"testing"
	"testing/quick"
)

func TestColdNoPrediction(t *testing.T) {
	p := New(Config{Entries: 64, ConfidenceThreshold: 3})
	if _, ok := p.Predict(42); ok {
		t.Error("cold predictor must not predict")
	}
}

func TestLastValueLearning(t *testing.T) {
	p := New(Config{Entries: 64, Stride: false, ConfidenceThreshold: 3})
	for i := 0; i < 5; i++ {
		p.Train(7, 99)
	}
	v, ok := p.Predict(7)
	if !ok || v != 99 {
		t.Errorf("prediction = (%d,%v), want (99,true)", v, ok)
	}
}

func TestStrideLearning(t *testing.T) {
	p := New(Config{Entries: 64, Stride: true, ConfidenceThreshold: 3})
	for i := int64(0); i < 8; i++ {
		p.Train(7, 100+4*i)
	}
	v, ok := p.Predict(7)
	if !ok || v != 100+4*8 {
		t.Errorf("stride prediction = (%d,%v), want (132,true)", v, ok)
	}
}

func TestConfidenceGating(t *testing.T) {
	p := New(Config{Entries: 64, Stride: false, ConfidenceThreshold: 3})
	p.Train(7, 1)
	p.Train(7, 1)
	if _, ok := p.Predict(7); ok {
		t.Error("two confirmations are below threshold 3")
	}
	p.Train(7, 1)
	p.Train(7, 1)
	if _, ok := p.Predict(7); !ok {
		t.Error("confidence should be reached")
	}
	// Noise drops confidence back below threshold.
	p.Train(7, 2)
	if _, ok := p.Predict(7); ok {
		t.Error("one wrong value should drop below full confidence")
	}
}

func TestTagMismatchReplaces(t *testing.T) {
	p := New(Config{Entries: 1, Stride: false, ConfidenceThreshold: 1})
	p.Train(1, 10)
	p.Train(1, 10)
	p.Train(2, 20) // aliases into the single slot, replaces
	if _, ok := p.Predict(1); ok {
		t.Error("key 1 was evicted by key 2")
	}
	p.Train(2, 20)
	if v, ok := p.Predict(2); !ok || v != 20 {
		t.Errorf("key 2 = (%d,%v), want (20,true)", v, ok)
	}
}

func TestAccuracyCounter(t *testing.T) {
	p := New(Config{Entries: 64, Stride: false, ConfidenceThreshold: 1})
	p.Train(5, 1) // allocation, not counted correct
	p.Train(5, 1) // correct
	p.Train(5, 2) // wrong
	if p.Correct != 1 || p.Trains != 3 {
		t.Errorf("correct/trains = %d/%d, want 1/3", p.Correct, p.Trains)
	}
}

func TestConstantSequenceAlwaysLearnable(t *testing.T) {
	f := func(key uint64, v int64) bool {
		p := New(Config{Entries: 256, Stride: true, ConfidenceThreshold: 3})
		for i := 0; i < 6; i++ {
			p.Train(key, v)
		}
		got, ok := p.Predict(key)
		return ok && got == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestBadConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("non-power-of-two must panic")
		}
	}()
	New(Config{Entries: 100})
}
