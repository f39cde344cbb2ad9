package tpred

import (
	"reflect"
	"testing"

	"tracep/internal/trace"
)

// TestCloneIndependence: tables, speculative history and counters copy
// exactly and then evolve independently.
func TestCloneIndependence(t *testing.T) {
	p := New(Config{PathEntries: 256, SimpleEntries: 256, HistLen: 4})
	d2 := trace.Descriptor{StartPC: 20, NumBr: 2, Outcomes: 2}

	// Train the empty-history slot until it predicts d2 confidently.
	for i := 0; i < 4; i++ {
		p.Train(0, d2)
	}
	pd, ok := p.Predict()
	if !ok || pd != d2 {
		t.Fatalf("setup: predict %v/%v, want %v", pd, ok, d2)
	}

	c := p.Clone(nil)
	if c.HistoryPos() != p.HistoryPos() || c.Trains != p.Trains {
		t.Fatalf("clone metadata: hist %d/%d, trains %d/%d",
			c.HistoryPos(), p.HistoryPos(), c.Trains, p.Trains)
	}
	if cd, cok := c.Predict(); !cok || cd != d2 {
		t.Fatalf("clone predicts %v/%v, want %v", cd, cok, d2)
	}

	// Push speculative history on the clone only.
	c.SpecUpdate(d2)
	if p.HistoryPos() != 0 {
		t.Error("clone's SpecUpdate reached the original's history")
	}
	c.Rewind(0)

	// Retrain the clone's empty-history slot toward a different descriptor;
	// the original's prediction must not move.
	d3 := trace.Descriptor{StartPC: 30, NumBr: 1}
	for i := 0; i < 8; i++ {
		c.Train(0, d3)
	}
	if got, ok := p.Predict(); !ok || got != d2 {
		t.Errorf("clone's training leaked into the original: %v/%v", got, ok)
	}
}

// TestResetAndCloneReuseStorage: Reset of a trained predictor equals a new
// one, seed scramble included, and Clone into a used predictor equals Clone
// into nothing — both without reallocating the tables.
func TestResetAndCloneReuseStorage(t *testing.T) {
	cfg := Config{PathEntries: 256, SimpleEntries: 128, HistLen: 4, Seed: 7}
	used := New(Config{PathEntries: 256, SimpleEntries: 256, HistLen: 2})
	for i := 0; i < 20; i++ {
		used.Train(used.SpecUpdate(desc(uint32(i), 1)), desc(uint32(i+1), 2))
	}
	path := &used.path[0]
	used.Reset(cfg)
	if fresh := New(cfg); !reflect.DeepEqual(used, fresh) {
		t.Error("Reset of a trained predictor differs from New")
	}
	if &used.path[0] != path {
		t.Error("Reset reallocated a table that was large enough")
	}

	src := New(cfg)
	for i := 0; i < 20; i++ {
		src.Train(src.SpecUpdate(desc(uint32(i), 0)), desc(uint32(i+2), 1))
	}
	if got, want := src.Clone(used), src.Clone(nil); got != used || !reflect.DeepEqual(got, want) {
		t.Error("Clone into a used predictor differs from Clone into nil")
	}
}
