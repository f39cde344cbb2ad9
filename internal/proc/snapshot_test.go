package proc

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"tracep/internal/asm"
	"tracep/internal/isa"
)

// snapProgram is a warm-up-worthy workload: an LCG-driven hammock with
// memory traffic and calls, so warm-up touches the branch predictor, RAS,
// BIT, and both caches.
func snapProgram(iters int64) *isa.Program {
	b := asm.New("snapwork")
	b.Li(1, 987654321) // LCG state
	b.Li(2, 1103515245)
	b.Li(3, 12345)
	b.Addi(4, 0, 0) // i
	b.Li(5, iters)  // limit
	b.Addi(6, 0, 0) // acc
	b.Label("loop")
	b.Call("step")
	b.Addi(4, 4, 1)
	b.Blt(4, 5, "loop")
	b.Store(6, 0, 900)
	b.Halt()
	b.Label("step")
	b.Mul(1, 1, 2)
	b.Add(1, 1, 3)
	b.Shri(7, 1, 16)
	b.Andi(8, 7, 63) // pseudo-random word offset
	b.Andi(7, 7, 1)  // pseudo-random bit
	b.Beq(7, 0, "else")
	b.Add(9, 0, 8)
	b.Store(6, 9, 100) // scatter into mem[100..163]
	b.Addi(6, 6, 3)
	b.Jump("join")
	b.Label("else")
	b.Load(10, 8, 100)
	b.Add(6, 6, 10)
	b.Label("join")
	b.Ret()
	return b.MustBuild()
}

// runFromSnapshot restores snap under model and runs to halt.
func runFromSnapshot(t *testing.T, snap *Snapshot, model Model, cfg Config) *Stats {
	t.Helper()
	p, err := NewFromSnapshot(snap, model, cfg)
	if err != nil {
		t.Fatalf("NewFromSnapshot: %v", err)
	}
	stats, err := p.Run(5_000_000)
	if err != nil {
		t.Fatalf("restored %s: %v", model.Name, err)
	}
	if !p.Halted() {
		t.Fatalf("restored %s: did not halt", model.Name)
	}
	return stats
}

// TestSnapshotZeroWarmupMatchesCold proves the restore path introduces zero
// perturbation: a snapshot captured before any instruction executes restores
// into a processor whose entire run is identical to a cold New, for every
// model.
func TestSnapshotZeroWarmupMatchesCold(t *testing.T) {
	prog := snapProgram(150)
	cfg := testConfig()
	snap, err := CaptureSnapshot(context.Background(), prog, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range allModels {
		cold := runProgram(t, prog, m)
		restored := runFromSnapshot(t, snap, m, cfg)
		if !reflect.DeepEqual(cold, restored) {
			t.Errorf("%s: zero-warm-up restored stats differ from cold run\ncold:     %+v\nrestored: %+v",
				m.Name, cold, restored)
		}
	}
}

// TestCaptureDeterminism: two independent captures of the same warm-up are
// interchangeable — runs restored from either produce identical statistics.
func TestCaptureDeterminism(t *testing.T) {
	prog := snapProgram(200)
	cfg := testConfig()
	a, err := CaptureSnapshot(context.Background(), prog, cfg, 1000)
	if err != nil {
		t.Fatal(err)
	}
	b, err := CaptureSnapshot(context.Background(), prog, cfg, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if a.PC() != b.PC() || a.WarmupInsts() != b.WarmupInsts() {
		t.Fatalf("capture metadata diverged: pc %d/%d, warm-up %d/%d",
			a.PC(), b.PC(), a.WarmupInsts(), b.WarmupInsts())
	}
	for _, m := range allModels {
		sa := runFromSnapshot(t, a, m, cfg)
		sb := runFromSnapshot(t, b, m, cfg)
		if !reflect.DeepEqual(sa, sb) {
			t.Errorf("%s: runs from two identical captures diverged", m.Name)
		}
	}
}

// TestRestoreIsolation is the aliasing gate for every Clone method: many
// processors forked from one snapshot, run back to back (each run mutating
// everything a restore touches — memory, caches, predictors, the rename
// file), must all produce identical statistics. Any state shared by accident
// between the snapshot and a restored processor fails this.
func TestRestoreIsolation(t *testing.T) {
	prog := snapProgram(200)
	cfg := testConfig()
	snap, err := CaptureSnapshot(context.Background(), prog, cfg, 2000)
	if err != nil {
		t.Fatal(err)
	}
	var first *Stats
	for round := 0; round < 3; round++ {
		for _, m := range allModels {
			stats := runFromSnapshot(t, snap, m, cfg)
			if m == ModelBase {
				if first == nil {
					first = stats
				} else if !reflect.DeepEqual(first, stats) {
					t.Fatalf("round %d: base-model run diverged from the first restore — snapshot state was mutated", round)
				}
			}
		}
	}
}

// TestWarmupSkipsMeasuredRegion: the measured region is exactly the program
// minus the warm-up prefix, and warm-up metadata lands in Stats.
func TestWarmupSkipsMeasuredRegion(t *testing.T) {
	prog := snapProgram(150)
	cfg := testConfig()
	total := runProgram(t, prog, ModelBase).RetiredInsts

	const warm = 777
	snap, err := CaptureSnapshot(context.Background(), prog, cfg, warm)
	if err != nil {
		t.Fatal(err)
	}
	stats := runFromSnapshot(t, snap, ModelBase, cfg)
	if stats.WarmupInsts != warm {
		t.Errorf("WarmupInsts = %d, want %d", stats.WarmupInsts, warm)
	}
	if got, want := stats.RetiredInsts, total-warm; got != want {
		t.Errorf("measured region retired %d insts, want %d (total %d - warm-up %d)", got, want, total, warm)
	}
}

// TestWarmupPastHaltErrors: fast-forwarding into (or beyond) the halt
// instruction leaves nothing to measure and must fail loudly.
func TestWarmupPastHaltErrors(t *testing.T) {
	b := asm.New("tiny")
	b.Addi(1, 0, 1).Addi(2, 0, 2).Add(3, 1, 2).Halt()
	prog := b.MustBuild()
	if _, err := CaptureSnapshot(context.Background(), prog, testConfig(), 4); err == nil {
		t.Error("warm-up running into halt: want error, got nil")
	}
	if _, err := CaptureSnapshot(context.Background(), prog, testConfig(), 1000); err == nil {
		t.Error("warm-up past program end: want error, got nil")
	}
	if _, err := CaptureSnapshot(context.Background(), prog, testConfig(), 3); err != nil {
		t.Errorf("warm-up stopping just before halt: %v", err)
	}
}

// TestSnapshotCompatibility: restoring under a configuration that re-sizes
// or re-seeds any snapshotted structure is refused with
// ErrIncompatibleSnapshot; purely measured-side fields may change freely.
func TestSnapshotCompatibility(t *testing.T) {
	prog := snapProgram(100)
	cfg := testConfig()
	snap, err := CaptureSnapshot(context.Background(), prog, cfg, 500)
	if err != nil {
		t.Fatal(err)
	}

	reject := []struct {
		name string
		edit func(*Config)
	}{
		{"ICache", func(c *Config) { c.ICache.SizeInsts = 8192 }},
		{"DCache", func(c *Config) { c.DCache.MissPenalty = 99 }},
		{"TCache", func(c *Config) { c.TCache.Sets = 128 }},
		{"BPred", func(c *Config) { c.BPred.Entries = 8192 }},
		{"TPred", func(c *Config) { c.TPred.HistLen = 4 }},
		{"BIT", func(c *Config) { c.BIT.Entries = 4096 }},
		{"MaxTraceLen", func(c *Config) { c.MaxTraceLen = 16 }},
		{"Seed", func(c *Config) { c.Seed = 42 }},
		{"ValuePredict", func(c *Config) { c.ValuePredict = true }},
	}
	for _, tc := range reject {
		bad := cfg
		tc.edit(&bad)
		if _, err := NewFromSnapshot(snap, ModelBase, bad); !errors.Is(err, ErrIncompatibleSnapshot) {
			t.Errorf("%s change: want ErrIncompatibleSnapshot, got %v", tc.name, err)
		}
	}

	// Measured-side fields are free: a window-sizing sweep can share one
	// warm-up.
	loose := cfg
	loose.NumPEs = 8
	loose.PEIssueWidth = 2
	loose.Verify = false
	loose.WatchdogCycles = 50000
	if _, err := NewFromSnapshot(snap, ModelFGMLBRET, loose); err != nil {
		t.Errorf("measured-side config change: %v", err)
	}
}

// TestWarmupIsObservable is the methodology check: a warmed run must not
// look like a cold machine — the warmed instruction cache should miss less
// over the measured region than the cold run does over the whole program.
func TestWarmupIsObservable(t *testing.T) {
	prog := snapProgram(400)
	cfg := testConfig()
	snap, err := CaptureSnapshot(context.Background(), prog, cfg, 5000)
	if err != nil {
		t.Fatal(err)
	}
	warm := runFromSnapshot(t, snap, ModelBase, cfg)
	cold := runProgram(t, prog, ModelBase)
	if warm.RetiredInsts >= cold.RetiredInsts {
		t.Fatalf("measured region (%d insts) should be smaller than the whole program (%d)",
			warm.RetiredInsts, cold.RetiredInsts)
	}
	if warm.ICMisses >= cold.ICMisses {
		t.Errorf("warmed I-cache should miss less: warm %d, cold %d", warm.ICMisses, cold.ICMisses)
	}
}

// TestResetMatchesNew runs a mixed sequence of cells — different programs,
// models and window shapes, value prediction, a snapshot restore and a run
// abandoned part-way — on one reused engine, and requires each cell's Stats
// to equal a freshly built processor's. Nothing of one run may leak into
// the next through the storage Reset keeps.
func TestResetMatchesNew(t *testing.T) {
	small := testConfig()
	small.NumPEs, small.MaxTraceLen = 6, 16
	vp := testConfig()
	vp.ValuePredict = true
	noVerify := testConfig()
	noVerify.Verify = false
	warmProg := lcgProgram(300)
	snap, err := CaptureSnapshot(context.Background(), warmProg, testConfig(), 1500)
	if err != nil {
		t.Fatal(err)
	}
	cells := []struct {
		prog     *isa.Program
		model    Model
		cfg      Config
		snap     *Snapshot
		maxInsts uint64
	}{
		{prog: lcgProgram(200), model: ModelFGMLBRET, cfg: testConfig()},
		{prog: unpredictableLoop(60), model: ModelRET, cfg: testConfig(), maxInsts: 1500}, // abandoned mid-run
		{prog: unpredictableLoop(60), model: ModelBase, cfg: small},
		{prog: lcgProgram(200), model: ModelFG, cfg: vp},
		{prog: warmProg, model: ModelMLBRET, cfg: testConfig(), snap: snap},
		{prog: lcgProgram(200), model: ModelFGMLBRET, cfg: noVerify},
		{prog: warmProg, model: ModelFGMLBRET, cfg: testConfig(), snap: snap},
	}
	engine := &Processor{}
	for i, c := range cells {
		fresh := New(c.prog, c.model, c.cfg)
		engine.Reset(c.prog, c.model, c.cfg)
		if c.snap != nil {
			if fresh, err = NewFromSnapshot(c.snap, c.model, c.cfg); err != nil {
				t.Fatal(err)
			}
			if err := engine.ResetFromSnapshot(c.snap, c.model, c.cfg); err != nil {
				t.Fatal(err)
			}
		}
		want, err := fresh.Run(c.maxInsts)
		if err != nil {
			t.Fatalf("cell %d (%s/%s) fresh: %v", i, c.prog.Name, c.model.Name, err)
		}
		got, err := engine.Run(c.maxInsts)
		if err != nil {
			t.Fatalf("cell %d (%s/%s) reused: %v", i, c.prog.Name, c.model.Name, err)
		}
		if *got != *want {
			t.Errorf("cell %d (%s/%s): reused engine diverges from a new one:\n got %+v\nwant %+v",
				i, c.prog.Name, c.model.Name, *got, *want)
		}
	}
}
