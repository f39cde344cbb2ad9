package tracep_test

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"testing"

	"tracep"
)

// ciBaselineSweep reproduces exactly the sweep CI's regression job runs
// (cmd/experiments -bench compress,vortex -n 5000): the grid whose JSON is
// committed as testdata/ci-baseline.json.
func ciBaselineSweep(t *testing.T) tracep.Sweep {
	t.Helper()
	var benches []tracep.Benchmark
	for _, name := range []string{"compress", "vortex"} {
		bm, err := tracep.BenchmarkByName(name)
		if err != nil {
			t.Fatal(err)
		}
		benches = append(benches, bm)
	}
	return tracep.Sweep{
		Benchmarks:  benches,
		Models:      tracep.Models(),
		TargetInsts: 5000,
	}
}

func mustRunJSON(t *testing.T, sw tracep.Sweep) []byte {
	t.Helper()
	rs, err := sw.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := rs.Err(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rs); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestPooledEngineByteIdentity is the determinism gate for the pooled
// cycle engine: the engine reuses instruction-slot arenas, event-ring
// buckets, subscriber/load-record storage and rename entries across traces,
// squashes and recoveries, and none of that reuse may leak state between
// runs or cells. Running the CI baseline grid twice must produce
// byte-identical ResultSet JSON, and both must match the committed
// testdata/ci-baseline.json at zero tolerance — the grid covers all eight
// models, so FGCI repairs, CGCI insertion/reconvergence and full squashes
// all exercise pool reuse on the way.
func TestPooledEngineByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates the full baseline grid twice")
	}
	first := mustRunJSON(t, ciBaselineSweep(t))
	second := mustRunJSON(t, ciBaselineSweep(t))
	if !bytes.Equal(first, second) {
		t.Fatal("pooled engine is not run-to-run deterministic: two identical sweeps produced different JSON")
	}
	want, err := os.ReadFile("testdata/ci-baseline.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, want) {
		t.Fatal("sweep over the CI grid is not byte-identical to testdata/ci-baseline.json; if the change is intentional, refresh the baseline ([refresh-baseline])")
	}
}

// ciSeededSweep is the CI grid over two predictor seeds, with one row
// restored from a warm-up snapshot: the grid whose JSON is committed as
// testdata/ci-baseline-seeded.json. The seed-0 baseline never scrambles a
// predictor table, so only this grid pins the seeded reset state (direction
// counters, BTB targets and next-trace confidence counters) and a seeded
// snapshot restore.
func ciSeededSweep(t *testing.T) tracep.Sweep {
	sw := ciBaselineSweep(t)
	sw.Seeds = []int64{1, 7}
	sw.WarmupFor = map[string]uint64{"vortex": 1500}
	return sw
}

// TestSeededByteIdentity holds the seeded grid to its committed JSON at zero
// tolerance.
func TestSeededByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates the seeded baseline grid")
	}
	got := mustRunJSON(t, ciSeededSweep(t))
	want, err := os.ReadFile("testdata/ci-baseline-seeded.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("seeded sweep over the CI grid is not byte-identical to testdata/ci-baseline-seeded.json")
	}
}

// TestPooledEngineSnapshotRestoreIdentity exercises pool reuse across the
// snapshot boundary: a processor restored from a warm-up checkpoint builds
// fresh pools over cloned state, so two restores from one snapshot — and a
// restore from a second capture of the same warm-up — must agree byte for
// byte, run after run.
func TestPooledEngineSnapshotRestoreIdentity(t *testing.T) {
	bm, err := tracep.BenchmarkByName("compress")
	if err != nil {
		t.Fatal(err)
	}
	const target, warm = 40_000, 20_000
	ctx := context.Background()

	base := tracep.NewBenchmark(bm, target)
	snap, err := base.CaptureSnapshot(ctx, warm)
	if err != nil {
		t.Fatal(err)
	}

	run := func(s *tracep.Simulator) []byte {
		t.Helper()
		res, err := s.Run(ctx)
		if err != nil {
			t.Fatal(err)
		}
		j, err := json.Marshal(res.Stats)
		if err != nil {
			t.Fatal(err)
		}
		return j
	}

	restored := tracep.NewFromSnapshot(snap, tracep.WithModel(tracep.ModelFGMLBRET))
	first := run(restored)
	second := run(restored) // same session: pools rebuilt per Run
	other := run(tracep.NewFromSnapshot(snap, tracep.WithModel(tracep.ModelFGMLBRET)))
	if !bytes.Equal(first, second) || !bytes.Equal(first, other) {
		t.Fatal("restored runs from one snapshot diverged")
	}

	recaptured, err := tracep.NewBenchmark(bm, target).CaptureSnapshot(ctx, warm)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, run(tracep.NewFromSnapshot(recaptured, tracep.WithModel(tracep.ModelFGMLBRET)))) {
		t.Fatal("restores from two captures of the same warm-up diverged")
	}
}

// TestSweepWarmupFor checks the per-benchmark warm-up override: each row
// warms by its own length (recorded in Stats.WarmupInsts), a missing key
// falls back to Sweep.Warmup, an explicit zero forces a cold row, and the
// per-row results are byte-identical to a per-cell capture and restore of
// the same warm-up.
func TestSweepWarmupFor(t *testing.T) {
	var benches []tracep.Benchmark
	for _, name := range []string{"compress", "vortex", "perl"} {
		bm, err := tracep.BenchmarkByName(name)
		if err != nil {
			t.Fatal(err)
		}
		benches = append(benches, bm)
	}
	const target = 30_000
	sw := tracep.Sweep{
		Benchmarks:  benches,
		Models:      []tracep.Model{tracep.ModelBase, tracep.ModelFGMLBRET},
		TargetInsts: target,
		Warmup:      10_000,
		WarmupFor:   map[string]uint64{"vortex": 15_000, "perl": 0},
	}
	rs, err := sw.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := rs.Err(); err != nil {
		t.Fatal(err)
	}
	wantWarm := map[string]uint64{"compress": 10_000, "vortex": 15_000, "perl": 0}
	for _, res := range rs.Results() {
		if got := res.Stats.WarmupInsts; got != wantWarm[res.Benchmark] {
			t.Errorf("%s/%s: WarmupInsts = %d, want %d", res.Benchmark, res.Model, got, wantWarm[res.Benchmark])
		}
	}

	// Cross-check one overridden row against a per-cell session.
	bm, _ := tracep.BenchmarkByName("vortex")
	solo := warmRun(t, bm, target, tracep.ModelFGMLBRET, 15_000)
	cell, ok := rs.Lookup("vortex", tracep.ModelFGMLBRET.Name)
	if !ok {
		t.Fatal("vortex cell missing")
	}
	a, _ := json.Marshal(solo.Stats)
	b, _ := json.Marshal(cell.Stats)
	if !bytes.Equal(a, b) {
		t.Fatalf("WarmupFor row diverged from per-cell warm-up:\n%s\n%s", a, b)
	}
}

// TestSeededPredictorsAndGeneratedWorkloads covers the extended seed
// plumbing: Config.Seed perturbs trace-predictor hysteresis and BTB
// indirect targets alongside branch-direction counters, and Generated
// wraps GenConfig as a sweepable Benchmark. Seeded runs must be
// reproducible, differ from the canonical reset, and differ between
// program seeds.
func TestSeededPredictorsAndGeneratedWorkloads(t *testing.T) {
	ctx := context.Background()
	run := func(bm tracep.Benchmark, seed int64) *tracep.Stats {
		t.Helper()
		res, err := tracep.NewBenchmark(bm, 20_000,
			tracep.WithModel(tracep.ModelFGMLBRET), withSeed(seed)).Run(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return res.Stats
	}
	bm, err := tracep.BenchmarkByName("li") // call-heavy: exercises BTB targets
	if err != nil {
		t.Fatal(err)
	}
	s1 := run(bm, 41)
	s1again := run(bm, 41)
	s0 := run(bm, 0)
	a, _ := json.Marshal(s1)
	b, _ := json.Marshal(s1again)
	if !bytes.Equal(a, b) {
		t.Fatal("seeded run is not reproducible")
	}
	if s1.Cycles == s0.Cycles && s1.TraceMispPer1000() == s0.TraceMispPer1000() && s1.BranchMispPer1000() == s0.BranchMispPer1000() {
		t.Error("seed 41 run is indistinguishable from the canonical reset; seed plumbing appears dead")
	}

	gen1 := tracep.Generated(tracep.DefaultGenConfig(1))
	gen2 := tracep.Generated(tracep.DefaultGenConfig(2))
	if gen1.Name != "gen-1" || gen2.Name != "gen-2" {
		t.Fatalf("generated benchmark names: %q, %q", gen1.Name, gen2.Name)
	}
	g1 := run(gen1, 0)
	g1again := run(gen1, 0)
	g2 := run(gen2, 0)
	a, _ = json.Marshal(g1)
	b, _ = json.Marshal(g1again)
	if !bytes.Equal(a, b) {
		t.Fatal("generated workload run is not reproducible")
	}
	if g1.RetiredInsts == 0 || g2.RetiredInsts == 0 {
		t.Fatal("generated workloads retired nothing")
	}
	// Scaling calibration should land the budget within a factor of two.
	if g1.RetiredInsts < 10_000 || g1.RetiredInsts > 40_000 {
		t.Errorf("gen-1 retired %d insts for a 20k budget; calibration is off", g1.RetiredInsts)
	}
	if g1.Cycles == g2.Cycles && g1.TraceMispPer1000() == g2.TraceMispPer1000() {
		t.Error("program seeds 1 and 2 produced indistinguishable runs")
	}
}
