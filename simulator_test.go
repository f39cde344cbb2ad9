package tracep_test

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"tracep"
	"tracep/internal/arb"
	"tracep/internal/trace"
)

func mustBench(t testing.TB, name string) tracep.Benchmark {
	t.Helper()
	bm, err := tracep.BenchmarkByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return bm
}

func TestSimulatorSessionRun(t *testing.T) {
	b := tracep.NewProgram("session")
	b.Addi(1, 0, 1)
	for i := 0; i < 50; i++ {
		b.Add(2, 2, 1)
	}
	b.Store(2, 0, 10)
	b.Halt()
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}

	sim := tracep.New(prog, tracep.WithModel(tracep.ModelFG))
	res, err := sim.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.RetiredInsts != 53 {
		t.Errorf("retired %d, want 53", res.Stats.RetiredInsts)
	}
	if res.Benchmark != "session" || res.Model != "FG" {
		t.Errorf("result labels: %q %q", res.Benchmark, res.Model)
	}
	if res.Err() != nil {
		t.Errorf("successful run must have nil Err, got %v", res.Err())
	}

	// Sessions are reusable: a second Run starts from reset and reproduces
	// the first bit-for-bit.
	res2, err := sim.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Stats, res2.Stats) {
		t.Error("re-running a session must reproduce identical statistics")
	}
}

func TestConfigValidationTypedErrors(t *testing.T) {
	cfg := tracep.DefaultConfig()
	cfg.NumPEs = 0
	cfg.BPred.Entries = 1000 // not a power of two
	bm := mustBench(t, "compress")
	_, err := tracep.NewBenchmark(bm, 1_000, tracep.WithConfig(cfg)).Run(context.Background())
	if err == nil {
		t.Fatal("invalid config must fail Run")
	}
	if !errors.Is(err, tracep.ErrInvalidConfig) {
		t.Errorf("error %v must wrap ErrInvalidConfig", err)
	}
	var ce *tracep.ConfigError
	if !errors.As(err, &ce) {
		t.Fatalf("error %v must expose a *ConfigError", err)
	}
	if ce.Field != "NumPEs" && ce.Field != "BPred.Entries" {
		t.Errorf("ConfigError.Field = %q", ce.Field)
	}

	// Plain-program sessions go through the same validation.
	prog := mustProg(t)
	if _, err := tracep.New(prog, tracep.WithConfig(cfg)).Run(context.Background()); !errors.Is(err, tracep.ErrInvalidConfig) {
		t.Errorf("program session must validate too, got %v", err)
	}
}

// TestConfigLimits: a Config that Validate accepts runs without a panic up
// to the engine's representation limits, and one past them is a
// ConfigError. The program is straight-line code in which every
// instruction after the first reads two values produced earlier in its
// trace, so an n-instruction trace fills its int16 consumer arena to
// 3n-1 entries: at trace.MaxLen it fits and passes the oracle, one
// instruction longer it would wrap, and Run must return ErrInvalidConfig
// instead of simulating. The NumPEs bound is checked through Validate
// alone: a processor that size is not worth building.
func TestConfigLimits(t *testing.T) {
	rejects := func(err error, field string) bool {
		var ce *tracep.ConfigError
		return errors.Is(err, tracep.ErrInvalidConfig) && errors.As(err, &ce) && ce.Field == field
	}
	b := tracep.NewProgram("fan-in")
	b.Li(1, 3).Add(2, 1, 1)
	for i := 0; i < trace.MaxLen; i++ {
		b.Add(1, 1, 2).Add(2, 2, 1)
	}
	b.Halt()
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		maxLen int
		valid  bool
	}{{trace.MaxLen, true}, {trace.MaxLen + 1, false}} {
		cfg := tracep.DefaultConfig()
		cfg.NumPEs, cfg.MaxTraceLen = 2, tc.maxLen
		res, err := tracep.New(prog, tracep.WithModel(tracep.ModelFGMLBRET), tracep.WithConfig(cfg)).Run(context.Background())
		switch {
		case !tc.valid:
			if !rejects(err, "MaxTraceLen") {
				t.Errorf("MaxTraceLen %d: err = %v, want a MaxTraceLen ConfigError", tc.maxLen, err)
			}
		case err != nil:
			t.Fatalf("MaxTraceLen %d: %v", tc.maxLen, err)
		case res.Stats.AvgTraceLen() < trace.MaxLen/2:
			t.Errorf("MaxTraceLen %d: average trace length %.1f, want traces near the limit", tc.maxLen, res.Stats.AvgTraceLen())
		}
	}

	cfg := tracep.DefaultConfig()
	cfg.NumPEs = arb.MaxPEs
	if err := cfg.Validate(); err != nil {
		t.Errorf("NumPEs %d: %v", cfg.NumPEs, err)
	}
	cfg.NumPEs++
	if err := cfg.Validate(); !rejects(err, "NumPEs") {
		t.Errorf("NumPEs %d: err = %v, want a NumPEs ConfigError", cfg.NumPEs, err)
	}
}

// TestZeroValueBenchmarkErrors pins the fix for zero-value Benchmark
// crashes: NewBenchmark used to call a nil Build (panic) and ScaleFor used
// to divide by a zero InstsPerIter (panic). Both now surface as typed
// errors from Run.
func TestZeroValueBenchmarkErrors(t *testing.T) {
	_, err := tracep.NewBenchmark(tracep.Benchmark{}, 1_000).Run(context.Background())
	if err == nil {
		t.Fatal("zero-value benchmark must fail Run")
	}
	if !errors.Is(err, tracep.ErrInvalidBenchmark) {
		t.Errorf("error %v must wrap ErrInvalidBenchmark", err)
	}

	// A Build function alone is not enough: without InstsPerIter the
	// workload cannot be sized.
	bad := mustBench(t, "compress")
	bad.InstsPerIter = 0
	if _, err := tracep.NewBenchmark(bad, 1_000).Run(context.Background()); !errors.Is(err, tracep.ErrInvalidBenchmark) {
		t.Errorf("InstsPerIter=0 error = %v, want ErrInvalidBenchmark", err)
	}

	// ScaleFor itself must not panic on the zero value (Table 2 renders
	// scales before any simulation runs).
	if s := (tracep.Benchmark{}).ScaleFor(1_000); s != 1 {
		t.Errorf("zero-value ScaleFor = %d, want floor 1", s)
	}
}

func mustProg(t testing.TB) *tracep.Program {
	t.Helper()
	b := tracep.NewProgram("tiny")
	b.Addi(1, 0, 1)
	b.Halt()
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

func TestSimulatorCancellation(t *testing.T) {
	// A budget far beyond what can finish instantly, cancelled immediately:
	// Run must return promptly with an error wrapping context.Canceled.
	bm := mustBench(t, "gcc")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	_, err := tracep.NewBenchmark(bm, 50_000_000).Run(ctx)
	if err == nil {
		t.Fatal("cancelled run must fail")
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("error %v must wrap context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Errorf("cancelled run took %v, want prompt stop", elapsed)
	}
}

// withSeed configures a session with the default configuration under a
// predictor seed.
func withSeed(seed int64) tracep.Option {
	cfg := tracep.DefaultConfig()
	cfg.Seed = seed
	return tracep.WithConfig(cfg)
}

func TestWithSeedIsDeterministicAndDistinct(t *testing.T) {
	bm := mustBench(t, "compress")
	run := func(seed int64) *tracep.Stats {
		res, err := tracep.NewBenchmark(bm, 20_000, withSeed(seed)).Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return res.Stats
	}
	a1, a2, b1 := run(42), run(42), run(43)
	if !reflect.DeepEqual(a1, a2) {
		t.Error("same seed must reproduce identical statistics")
	}
	if reflect.DeepEqual(a1, b1) {
		t.Error("different predictor-state seeds should perturb the run")
	}
}

func TestModelByName(t *testing.T) {
	for _, m := range tracep.Models() {
		got, ok := tracep.ModelByName(m.Name)
		if !ok || got.Name != m.Name {
			t.Errorf("ModelByName(%q) = %v, %v", m.Name, got, ok)
		}
	}
	if _, ok := tracep.ModelByName("nope"); ok {
		t.Error("unknown model name must not resolve")
	}
}
