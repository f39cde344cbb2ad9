package tracep_test

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"

	"tracep"
)

// repCell builds one seed replicate of a cell with the given IPC.
func repCell(bench, model string, seed int64, ipc float64) *tracep.Result {
	r := cell(bench, model, ipc)
	r.Seed = seed
	return r
}

// TestSweepSeedsSerialVsParallel extends the core determinism guarantee to
// the seed axis: the same Seeds list at j=1 and j=4 must serialise to
// byte-identical aggregated ResultSets.
func TestSweepSeedsSerialVsParallel(t *testing.T) {
	benches, models := sweepFixture(t)
	var outs [][]byte
	for _, j := range []int{1, 4} {
		sw := tracep.Sweep{
			Benchmarks:  benches,
			Models:      models,
			TargetInsts: 5_000,
			Seeds:       []int64{11, 12, 13},
			Parallelism: j,
		}
		rs, err := sw.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if err := rs.Err(); err != nil {
			t.Fatal(err)
		}
		if got, want := rs.Len(), len(benches)*len(models)*3; got != want {
			t.Fatalf("j=%d: %d replicates, want %d", j, got, want)
		}
		if got := rs.Seeds(); !reflect.DeepEqual(got, []int64{11, 12, 13}) {
			t.Fatalf("j=%d: seeds axis = %v", j, got)
		}
		out, err := json.Marshal(rs)
		if err != nil {
			t.Fatal(err)
		}
		outs = append(outs, out)
	}
	if !bytes.Equal(outs[0], outs[1]) {
		t.Error("seeded sweeps at j=1 and j=4 must serialise identically")
	}
}

// TestSweepSeedsZeroAxisMatchesLegacy: Seeds {0} is the canonical
// single-replicate axis, so its JSON must be byte-identical to a sweep with
// no Seeds at all — the compatibility contract for saved baselines.
func TestSweepSeedsZeroAxisMatchesLegacy(t *testing.T) {
	benches, models := sweepFixture(t)
	run := func(seeds []int64) []byte {
		sw := tracep.Sweep{Benchmarks: benches, Models: models, TargetInsts: 5_000, Seeds: seeds}
		rs, err := sw.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		out, err := json.Marshal(rs)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	legacy := run(nil)
	seeded := run([]int64{0})
	if !bytes.Equal(legacy, seeded) {
		t.Error("Seeds {0} must serialise byte-identically to the legacy two-axis sweep")
	}
	if bytes.Contains(legacy, []byte(`"seeds"`)) || bytes.Contains(legacy, []byte(`"seed"`)) {
		t.Error("single-replicate JSON must not mention seeds at all")
	}
}

// TestSweepSeedsDuplicatesCollapse: the seed axis deduplicates in order,
// first occurrence wins.
func TestSweepSeedsDuplicatesCollapse(t *testing.T) {
	benches, models := sweepFixture(t)
	sw := tracep.Sweep{
		Benchmarks:  benches[:1],
		Models:      models[:1],
		TargetInsts: 3_000,
		Seeds:       []int64{5, 5, 7, 5},
	}
	rs, err := sw.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := rs.Seeds(); !reflect.DeepEqual(got, []int64{5, 7}) {
		t.Errorf("seeds axis = %v, want [5 7]", got)
	}
	if rs.Len() != 2 {
		t.Errorf("Len = %d, want 2", rs.Len())
	}
}

// TestResultSetReplicateAccessors covers the replicate-aware API on a
// hand-built three-seed set: Lookup/Get keep first-replicate point
// semantics, Replicates exposes all of them, and Cell aggregates to the
// hand-computed distribution (IPCs {1,2,3}: mean 2, CI half 4.303/√3).
func TestResultSetReplicateAccessors(t *testing.T) {
	rs := tracep.NewResultSetGrid([]string{"bm"}, []string{"m"}, []int64{1, 2, 3})
	rs.Add(repCell("bm", "m", 2, 2))
	rs.Add(repCell("bm", "m", 3, 3))
	rs.Add(repCell("bm", "m", 1, 1))

	if res, ok := rs.Lookup("bm", "m"); !ok || res.Seed != 1 {
		t.Fatalf("Lookup = %+v, %v; want the seed-1 replicate", res, ok)
	}
	if s, ok := rs.Get("bm", "m"); !ok || s.IPC() != 1 {
		t.Fatalf("Get IPC = %v, want the first replicate's point 1", s.IPC())
	}
	reps := rs.Replicates("bm", "m")
	if len(reps) != 3 || reps[0].Seed != 1 || reps[1].Seed != 2 || reps[2].Seed != 3 {
		t.Fatalf("Replicates = %v", reps)
	}
	if !rs.HasReplicate("bm", "m", 3) || rs.HasReplicate("bm", "m", 4) {
		t.Error("HasReplicate misreported the seed axis")
	}

	c, ok := rs.Cell("bm", "m")
	if !ok || c.N != 3 {
		t.Fatalf("Cell = %+v, %v", c, ok)
	}
	wantHalf := 4.303 / math.Sqrt(3)
	if c.IPC.Mean != 2 || math.Abs(c.IPC.CIHalf-wantHalf) > 1e-9 {
		t.Errorf("IPC dist = %+v, want mean 2 half %v", c.IPC, wantHalf)
	}
	row := rs.Row("bm")
	if len(row) != 1 || row[0].IPC.Mean != 2 {
		t.Errorf("Row = %+v", row)
	}
}

// TestResultSetSeedsJSONRoundTrip: a multi-seed set carries its seeds axis
// through JSON and re-marshals byte-identically; failed replicates survive
// with their seed.
func TestResultSetSeedsJSONRoundTrip(t *testing.T) {
	rs := tracep.NewResultSetGrid([]string{"bm"}, []string{"m1", "m2"}, []int64{1, 2})
	rs.Add(repCell("bm", "m1", 1, 1.5))
	rs.Add(repCell("bm", "m1", 2, 1.7))
	rs.Add(&tracep.Result{Benchmark: "bm", Model: "m2", Seed: 1, Error: "boom"})

	out, err := json.Marshal(rs)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(out), `"seeds":[1,2]`) {
		t.Fatalf("multi-seed JSON missing seeds axis: %s", out)
	}

	var back tracep.ResultSet
	if err := json.Unmarshal(out, &back); err != nil {
		t.Fatal(err)
	}
	if got := back.Seeds(); !reflect.DeepEqual(got, []int64{1, 2}) {
		t.Errorf("seeds after round trip = %v", got)
	}
	if len(back.Replicates("bm", "m1")) != 2 {
		t.Error("round trip lost replicates")
	}
	if res, ok := back.Lookup("bm", "m2"); !ok || res.Seed != 1 || res.Error != "boom" {
		t.Errorf("failed replicate after round trip = %+v, %v", res, ok)
	}
	again, err := json.Marshal(&back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, again) {
		t.Errorf("round trip not byte-stable:\n%s\n%s", out, again)
	}
}

// TestDiffIntervalGate: with replicates on both sides, a mean drift beyond
// tolerance regresses only when the 95% CIs are disjoint.
func TestDiffIntervalGate(t *testing.T) {
	mk := func(ipcs ...float64) *tracep.ResultSet {
		rs := tracep.NewResultSetGrid([]string{"bm"}, []string{"m"}, []int64{1, 2, 3})
		for i, ipc := range ipcs {
			rs.Add(repCell("bm", "m", int64(i+1), ipc))
		}
		return rs
	}
	baseline := mk(1.9, 2.0, 2.1) // mean 2.0, CI half ≈ 0.248

	// 5% mean drop, far beyond the 2% tolerance, but the intervals overlap:
	// noise, not a regression.
	overlap := mk(1.8, 1.9, 2.0).Diff(baseline, tracep.Tolerances{IPCPct: 2})
	if !overlap.OK() {
		t.Errorf("overlapping CIs must pass the gate: %+v", overlap.Regressions())
	}
	c := overlap.Cells[0]
	if c.BaselineN != 3 || c.CurrentN != 3 || c.BaselineIPCCI == 0 || c.CurrentIPCCI == 0 {
		t.Errorf("interval cell missing N/CI fields: %+v", c)
	}
	if math.Abs(c.BaselineIPC-2.0) > 1e-9 || math.Abs(c.CurrentIPC-1.9) > 1e-9 {
		t.Errorf("interval cell means = %v -> %v", c.BaselineIPC, c.CurrentIPC)
	}

	// Halved IPC with a tight interval: credibly below, regression.
	disjoint := mk(1.00, 1.05, 1.10).Diff(baseline, tracep.Tolerances{IPCPct: 2})
	if disjoint.OK() {
		t.Error("disjoint CIs beyond tolerance must regress")
	}
	reg := disjoint.Regressions()
	if len(reg) != 1 || !strings.Contains(reg[0].Detail, "95% CIs disjoint") {
		t.Errorf("regression detail = %+v", reg)
	}

	// A missing cell reports the baseline's mean, not its first replicate.
	gone := tracep.NewResultSet().Diff(baseline, tracep.Tolerances{AllowMissing: true}).Cells[0]
	if gone.Kind != tracep.DiffMissing || math.Abs(gone.BaselineIPC-2.0) > 1e-9 {
		t.Errorf("missing cell = %+v, want baseline mean IPC 2.0", gone)
	}

	// A set diffed against itself always passes: identical intervals overlap.
	self := mk(1.9, 2.0, 2.1).Diff(baseline, tracep.Tolerances{})
	if !self.OK() {
		t.Errorf("identical replicate sets must pass the strict gate: %+v", self.Regressions())
	}

	// The text rendering uses error-bar notation for replicated sides.
	var buf bytes.Buffer
	overlap.WriteText(&buf)
	if !strings.Contains(buf.String(), "±") {
		t.Errorf("WriteText without error bars:\n%s", buf.String())
	}
}

// TestDiffPointVsReplicates: one replicated side against a point baseline
// still takes the interval path — the point side is a zero-width interval.
func TestDiffPointVsReplicates(t *testing.T) {
	baseline := tracep.NewResultSetGrid([]string{"bm"}, []string{"m"}, nil)
	baseline.Add(cell("bm", "m", 2.0))

	cur := tracep.NewResultSetGrid([]string{"bm"}, []string{"m"}, []int64{1, 2, 3})
	cur.Add(repCell("bm", "m", 1, 1.8))
	cur.Add(repCell("bm", "m", 2, 1.9))
	cur.Add(repCell("bm", "m", 3, 2.0))

	// Mean 1.9 is 5% below, but the current interval reaches back up to the
	// baseline point: overlapping, tolerated.
	d := cur.Diff(baseline, tracep.Tolerances{IPCPct: 2})
	if !d.OK() {
		t.Errorf("point-vs-interval overlap must pass: %+v", d.Regressions())
	}
	c := d.Cells[0]
	if c.BaselineN != 1 || c.CurrentN != 3 {
		t.Errorf("Ns = %d/%d, want 1/3", c.BaselineN, c.CurrentN)
	}

	// A tight interval credibly below the point regresses.
	low := tracep.NewResultSetGrid([]string{"bm"}, []string{"m"}, []int64{1, 2, 3})
	for i, ipc := range []float64{1.50, 1.51, 1.52} {
		low.Add(repCell("bm", "m", int64(i+1), ipc))
	}
	if low.Diff(baseline, tracep.Tolerances{IPCPct: 2}).OK() {
		t.Error("tight interval far below the baseline point must regress")
	}
}

// TestParseTolerances covers both encodings and the error paths of the
// consolidated -tolerances flag.
func TestParseTolerances(t *testing.T) {
	cases := []struct {
		spec string
		want tracep.Tolerances
	}{
		{"", tracep.Tolerances{}},
		{"ipc=2", tracep.Tolerances{IPCPct: 2}},
		{"ipc=2, tmisp=0.5, recoveries=10, miss=1.5", tracep.Tolerances{
			IPCPct: 2, TraceMispPer1000: 0.5, RecoveriesPct: 10, CacheMissPer1000: 1.5}},
		{"allow-missing", tracep.Tolerances{AllowMissing: true}},
		{"allow-missing=false", tracep.Tolerances{}},
		{"ipc=1,allow-missing=true", tracep.Tolerances{IPCPct: 1, AllowMissing: true}},
		{`{"ipc_pct":2,"allow_missing":true}`, tracep.Tolerances{IPCPct: 2, AllowMissing: true}},
		{`{"trace_misp_per_1000":0.5}`, tracep.Tolerances{TraceMispPer1000: 0.5}},
		// +Inf switches a gate off; it is a valid bound.
		{"ipc=+Inf,miss=inf", tracep.Tolerances{IPCPct: math.Inf(1), CacheMissPer1000: math.Inf(1)}},
	}
	for _, c := range cases {
		got, err := tracep.ParseTolerances(c.spec)
		if err != nil {
			t.Errorf("ParseTolerances(%q): %v", c.spec, err)
			continue
		}
		if got != c.want {
			t.Errorf("ParseTolerances(%q) = %+v, want %+v", c.spec, got, c.want)
		}
	}

	for _, bad := range []string{
		"bogus=1",
		"ipc",
		"ipc=abc",
		"allow-missing=maybe",
		`{"ipc_pct":2,"unknown":1}`,
		`{"ipc_pct":`,
		// NaN fails every comparison, so it would pass any drop; a negative
		// bound flags an unchanged cell.
		"ipc=NaN",
		"tmisp=nan",
		"ipc=-1",
		"recoveries=-0.5",
		"miss=-Inf",
		`{"ipc_pct":-1}`,
		`{"cache_miss_per_1000":-2}`,
	} {
		if _, err := tracep.ParseTolerances(bad); err == nil {
			t.Errorf("ParseTolerances(%q) accepted bad spec", bad)
		}
	}
}

// TestScenarios: the family list is fixed and name-addressable, instances
// are named "<family>-<seed>", and instantiation is deterministic.
func TestScenarios(t *testing.T) {
	fams := tracep.Scenarios()
	wantNames := []string{"ptr-chase", "dense-branch", "long-dep", "mixed"}
	if len(fams) != len(wantNames) {
		t.Fatalf("Scenarios() returned %d families", len(fams))
	}
	for i, sc := range fams {
		if sc.Name != wantNames[i] {
			t.Errorf("family %d = %q, want %q", i, sc.Name, wantNames[i])
		}
		if sc.Description == "" {
			t.Errorf("family %q has no description", sc.Name)
		}
		byName, err := tracep.ScenarioByName(sc.Name)
		if err != nil || byName.Name != sc.Name {
			t.Errorf("ScenarioByName(%q) = %v, %v", sc.Name, byName.Name, err)
		}
		if !reflect.DeepEqual(sc.GenConfig(7), sc.GenConfig(7)) {
			t.Errorf("family %q GenConfig not deterministic", sc.Name)
		}
		bm := sc.Benchmark(7)
		if want := sc.Name + "-7"; bm.Name != want {
			t.Errorf("instance name = %q, want %q", bm.Name, want)
		}
	}

	if _, err := tracep.ScenarioByName("nope"); err == nil ||
		!strings.Contains(err.Error(), "unknown scenario") {
		t.Errorf("ScenarioByName(nope) err = %v", err)
	}

	// BenchmarkByName resolves an instance by its name, and only by the
	// canonical spelling of its seed.
	for _, name := range []string{"ptr-chase-1", "dense-branch-2", "long-dep--3", "mixed-0"} {
		if bm, err := tracep.BenchmarkByName(name); err != nil || bm.Name != name {
			t.Errorf("BenchmarkByName(%q) = %q, %v", name, bm.Name, err)
		}
	}
	for _, name := range []string{"mixed-01", "mixed-+1", "mixed-", "mixed-1x", "nope-1", "mixed"} {
		if _, err := tracep.BenchmarkByName(name); err == nil {
			t.Errorf("BenchmarkByName(%q) resolved, want an error", name)
		}
	}
}

// TestScenarioInstancesRun: every family's seed-1 instance builds and
// simulates, and distinct seeds give distinct programs (different retired
// work under the same budget is allowed, but the run must at least differ
// in generated structure or predictor outcome for some family).
func TestScenarioInstancesRun(t *testing.T) {
	for _, sc := range tracep.Scenarios() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			t.Parallel()
			sw := tracep.Sweep{
				Benchmarks:  []tracep.Benchmark{sc.Benchmark(1)},
				Models:      []tracep.Model{tracep.ModelBase},
				TargetInsts: 5_000,
			}
			rs, err := sw.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if err := rs.Err(); err != nil {
				t.Fatal(err)
			}
			if s, ok := rs.Get(sc.Name+"-1", "base"); !ok || s.RetiredInsts == 0 {
				t.Errorf("instance retired nothing: %+v ok=%v", s, ok)
			}
		})
	}
}
