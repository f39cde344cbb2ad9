package tracep_test

import (
	"bytes"
	"context"
	"encoding/json"
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

// warmRun runs one cell from a private warm-up snapshot: it captures the
// first warm instructions of bm's program and restores the capture under m.
func warmRun(t testing.TB, bm tracep.Benchmark, targetInsts uint64, m tracep.Model, warm uint64) *tracep.Result {
	t.Helper()
	ctx := context.Background()
	snap, err := tracep.NewBenchmark(bm, targetInsts).CaptureSnapshot(ctx, warm)
	if err != nil {
		t.Fatalf("%s: capture: %v", bm.Name, err)
	}
	res, err := tracep.NewFromSnapshot(snap, tracep.WithModel(m)).Run(ctx)
	if err != nil {
		t.Fatalf("%s/%s: %v", bm.Name, m.Name, err)
	}
	return res
}

// TestSweepSharedSnapshotMatchesPerCellSnapshots is the acceptance gate for
// snapshot sharing: over the CI baseline grid, a sweep that captures one
// warm-up snapshot per benchmark row and forks every model cell from it
// must produce ResultSet JSON byte-identical to cells that each capture and
// restore a private snapshot of the same warm-up. Any state aliased between
// restored cells or any capture nondeterminism breaks the bytes. Restore
// against a cold run is checked in internal/proc.
func TestSweepSharedSnapshotMatchesPerCellSnapshots(t *testing.T) {
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
	perCell := tracep.NewResultSetGrid(benchNames, modelNames, nil)
	for _, bm := range benches {
		for _, m := range models {
			perCell.Add(warmRun(t, bm, targetInsts, m, warm))
		}
	}

	a, err := json.Marshal(shared)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(perCell)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("row-shared snapshots and per-cell snapshots disagree\nshared:   %s\nper-cell: %s", a, b)
	}

	// Every cell carries the warm-up metadata.
	for _, res := range shared.Results() {
		if res.Warmup() != warm {
			t.Errorf("%s/%s: Warmup() = %d, want %d", res.Benchmark, res.Model, res.Warmup(), warm)
		}
	}
}

// TestSharedSnapshotMatchesPrivateSnapshots: one explicit capture seeds
// restored runs under several models, each identical to a run restored from
// its own private capture of the same warm-up.
func TestSharedSnapshotMatchesPrivateSnapshots(t *testing.T) {
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
		shared, err := tracep.NewFromSnapshot(snap, tracep.WithModel(m)).Run(ctx)
		if err != nil {
			t.Fatalf("shared %s: %v", m.Name, err)
		}
		private := warmRun(t, bm, targetInsts, m, warm)
		a, _ := json.Marshal(shared.Stats)
		b, _ := json.Marshal(private.Stats)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: shared-snapshot stats differ from a private snapshot's\nshared:  %s\nprivate: %s", m.Name, a, b)
		}
	}
}

// TestZeroValueSnapshotErrors: a zero-value Snapshot (exported type, so
// constructible) fails Run with an error, not a panic.
func TestZeroValueSnapshotErrors(t *testing.T) {
	res, err := tracep.NewFromSnapshot(&tracep.Snapshot{}).Run(context.Background())
	if err == nil {
		t.Fatalf("zero-value snapshot: want an error, got result %+v", res)
	}
}

// TestWarmupPastHaltFailsCell: a warm-up longer than the program fails the
// capture (and, under Sweep, the whole row) with a clear error.
func TestWarmupPastHaltFailsCell(t *testing.T) {
	bm, err := tracep.BenchmarkByName("compress")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tracep.NewBenchmark(bm, 2000).CaptureSnapshot(context.Background(), 1_000_000); err == nil {
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
