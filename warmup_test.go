package tracep_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"testing"

	"tracep"
)

// baselineGrid loads the CI baseline's (benchmark × model) axes — the grid
// the regression gate runs — and resolves them against the suite.
func baselineGrid(t *testing.T) ([]tracep.Benchmark, []tracep.Model) {
	t.Helper()
	data, err := os.ReadFile("testdata/ci-baseline.json")
	if err != nil {
		t.Fatal(err)
	}
	var rs tracep.ResultSet
	if err := json.Unmarshal(data, &rs); err != nil {
		t.Fatal(err)
	}
	var benches []tracep.Benchmark
	for _, name := range rs.Benches() {
		bm, err := tracep.BenchmarkByName(name)
		if err != nil {
			t.Fatal(err)
		}
		benches = append(benches, bm)
	}
	var models []tracep.Model
	for _, name := range rs.Models() {
		m, ok := tracep.ModelByName(name)
		if !ok {
			t.Fatalf("unknown model %q in baseline", name)
		}
		models = append(models, m)
	}
	if len(benches) == 0 || len(models) == 0 {
		t.Fatal("baseline grid is empty")
	}
	return benches, models
}

// TestSweepWarmupByteIdenticalToColdWarmups is the acceptance gate for
// snapshot sharing: over the CI baseline grid, a sweep that captures one
// warm-up snapshot per benchmark and forks every model cell from it must
// produce ResultSet JSON byte-identical to per-cell sessions that each
// simulate the same warm-up from cold. Any state aliased between restored
// cells, any capture nondeterminism, or any restore drift breaks the bytes.
func TestSweepWarmupByteIdenticalToColdWarmups(t *testing.T) {
	const targetInsts, warm = 5000, 1500
	ctx := context.Background()
	benches, models := baselineGrid(t)

	sw := tracep.Sweep{
		Benchmarks:  benches,
		Models:      models,
		TargetInsts: targetInsts,
		Warmup:      warm,
	}
	shared, err := sw.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := shared.Err(); err != nil {
		t.Fatal(err)
	}

	benchNames := make([]string, len(benches))
	for i, bm := range benches {
		benchNames[i] = bm.Name
	}
	modelNames := make([]string, len(models))
	for i, m := range models {
		modelNames[i] = m.Name
	}
	cold := tracep.NewResultSetGrid(benchNames, modelNames, nil)
	for _, bm := range benches {
		for _, m := range models {
			res, err := tracep.NewBenchmark(bm, targetInsts,
				tracep.WithModel(m), tracep.WithWarmup(warm)).Run(ctx)
			if err != nil {
				t.Fatalf("%s/%s: %v", bm.Name, m.Name, err)
			}
			cold.Add(res)
		}
	}

	a, err := json.Marshal(shared)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(cold)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("snapshot-shared sweep and per-cell cold warm-ups disagree\nshared: %s\ncold:   %s", a, b)
	}

	// Every cell carries the warm-up metadata.
	for _, res := range shared.Results() {
		if res.Warmup() != warm {
			t.Errorf("%s/%s: Warmup() = %d, want %d", res.Benchmark, res.Model, res.Warmup(), warm)
		}
	}
}

// TestSnapshotSharedAcrossModels: one explicit capture seeds restored runs
// under several models, each identical to the session that warms up itself.
func TestSnapshotSharedAcrossModels(t *testing.T) {
	const targetInsts, warm = 4000, 1000
	ctx := context.Background()
	bm, err := tracep.BenchmarkByName("compress")
	if err != nil {
		t.Fatal(err)
	}
	snap, err := tracep.NewBenchmark(bm, targetInsts).CaptureSnapshot(context.Background(), warm)
	if err != nil {
		t.Fatal(err)
	}
	if snap.WarmupInsts() != warm {
		t.Fatalf("snapshot WarmupInsts = %d, want %d", snap.WarmupInsts(), warm)
	}

	for _, m := range []tracep.Model{tracep.ModelBase, tracep.ModelBaseNTB, tracep.ModelFG, tracep.ModelFGMLBRET} {
		restored, err := tracep.NewFromSnapshot(snap, tracep.WithModel(m), tracep.WithLabel(bm.Name)).Run(ctx)
		if err != nil {
			t.Fatalf("restored %s: %v", m.Name, err)
		}
		cold, err := tracep.NewBenchmark(bm, targetInsts,
			tracep.WithModel(m), tracep.WithWarmup(warm)).Run(ctx)
		if err != nil {
			t.Fatalf("cold %s: %v", m.Name, err)
		}
		a, _ := json.Marshal(restored.Stats)
		b, _ := json.Marshal(cold.Stats)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: restored stats differ from cold warm-up\nrestored: %s\ncold:     %s", m.Name, a, b)
		}
	}
}

// TestWithSnapshotProgramMismatch: a snapshot only restores over the exact
// program it was captured from.
func TestWithSnapshotProgramMismatch(t *testing.T) {
	bm, err := tracep.BenchmarkByName("compress")
	if err != nil {
		t.Fatal(err)
	}
	snap, err := tracep.NewBenchmark(bm, 3000).CaptureSnapshot(context.Background(), 500)
	if err != nil {
		t.Fatal(err)
	}
	other, err := tracep.BenchmarkByName("vortex")
	if err != nil {
		t.Fatal(err)
	}
	_, err = tracep.NewBenchmark(other, 3000, tracep.WithSnapshot(snap)).Run(context.Background())
	if !errors.Is(err, tracep.ErrIncompatibleSnapshot) {
		t.Fatalf("want ErrIncompatibleSnapshot for a foreign program, got %v", err)
	}
}

// TestZeroValueSnapshotErrors: a zero-value Snapshot (exported type, so
// constructible) is rejected with the typed sentinel, not a panic.
func TestZeroValueSnapshotErrors(t *testing.T) {
	bm, err := tracep.BenchmarkByName("compress")
	if err != nil {
		t.Fatal(err)
	}
	_, err = tracep.NewBenchmark(bm, 2000, tracep.WithSnapshot(&tracep.Snapshot{})).Run(context.Background())
	if !errors.Is(err, tracep.ErrIncompatibleSnapshot) {
		t.Fatalf("zero-value snapshot: want ErrIncompatibleSnapshot, got %v", err)
	}
}

// TestWarmupPastHaltFailsCell: a warm-up longer than the program fails the
// run (and, under Sweep, the whole row) with a clear error.
func TestWarmupPastHaltFailsCell(t *testing.T) {
	bm, err := tracep.BenchmarkByName("compress")
	if err != nil {
		t.Fatal(err)
	}
	_, err = tracep.NewBenchmark(bm, 2000, tracep.WithWarmup(1_000_000)).Run(context.Background())
	if err == nil {
		t.Fatal("warm-up past halt: want error, got nil")
	}

	sw := tracep.Sweep{
		Benchmarks:  []tracep.Benchmark{bm},
		Models:      []tracep.Model{tracep.ModelBase, tracep.ModelFG},
		TargetInsts: 2000,
		Warmup:      1_000_000,
	}
	rs, err := sw.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rs.Err() == nil {
		t.Fatal("sweep with impossible warm-up: every cell should fail")
	}
	if rs.Len() != 2 {
		t.Fatalf("failed row delivered %d cells, want 2", rs.Len())
	}
}

// TestWarmupSeedCompatibility: the sweep's snapshot capture follows the
// sweep's seed, so seeded sweeps share snapshots too.
func TestWarmupSeedCompatibility(t *testing.T) {
	bm, err := tracep.BenchmarkByName("compress")
	if err != nil {
		t.Fatal(err)
	}
	sw := tracep.Sweep{
		Benchmarks:  []tracep.Benchmark{bm},
		Models:      []tracep.Model{tracep.ModelBase},
		TargetInsts: 3000,
		Warmup:      800,
		Seed:        12345,
	}
	rs, err := sw.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := rs.Err(); err != nil {
		t.Fatalf("seeded warm sweep failed: %v", err)
	}
}
