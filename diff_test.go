package tracep_test

import (
	"encoding/json"
	"strings"
	"testing"

	"tracep"
)

// diffFixture builds a 2×2 baseline: IPCs 2.0, 3.0, 1.5, 2.5.
func diffBaseline() *tracep.ResultSet {
	rs := tracep.NewResultSetGrid([]string{"compress", "vortex"}, []string{"base", "FG"}, nil)
	rs.Add(cell("compress", "base", 2.0))
	rs.Add(cell("compress", "FG", 3.0))
	rs.Add(cell("vortex", "base", 1.5))
	rs.Add(cell("vortex", "FG", 2.5))
	return rs
}

func TestDiffIdenticalSetsOK(t *testing.T) {
	d := diffBaseline().Diff(diffBaseline(), tracep.Tolerances{})
	if !d.OK() {
		t.Fatalf("identical sets must pass the strictest gate: %+v", d.Regressions())
	}
	if len(d.Cells) != 4 {
		t.Errorf("diff has %d cells, want 4", len(d.Cells))
	}
	for _, c := range d.Cells {
		if c.Kind != tracep.DiffOK || c.DeltaPct != 0 {
			t.Errorf("cell %s/%s = %+v, want ok with zero delta", c.Benchmark, c.Model, c)
		}
	}
}

func TestDiffDetectsRegressionWithinTolerance(t *testing.T) {
	cur := diffBaseline()
	cur.Add(cell("compress", "base", 1.9)) // -5% vs baseline 2.0
	cur.Add(cell("vortex", "FG", 2.48))    // -0.8%

	// 5% drop regresses under a 2% gate; the 0.8% drop does not.
	d := cur.Diff(diffBaseline(), tracep.Tolerances{IPCPct: 2})
	reg := d.Regressions()
	if len(reg) != 1 || reg[0].Benchmark != "compress" || reg[0].Model != "base" {
		t.Fatalf("regressions = %+v, want exactly compress/base", reg)
	}
	if reg[0].Kind != tracep.DiffRegression || reg[0].DeltaPct > -4.9 || reg[0].DeltaPct < -5.1 {
		t.Errorf("regression cell = %+v, want ~-5%%", reg[0])
	}

	// A 10% gate tolerates both.
	if d := cur.Diff(diffBaseline(), tracep.Tolerances{IPCPct: 10}); !d.OK() {
		t.Errorf("10%% gate must pass: %+v", d.Regressions())
	}
	// Improvements are never regressions, even under a zero gate.
	up := diffBaseline()
	up.Add(cell("compress", "base", 4.0))
	if d := up.Diff(diffBaseline(), tracep.Tolerances{}); !d.OK() {
		t.Errorf("improvement flagged as regression: %+v", d.Regressions())
	}
}

func TestDiffMissingAndNewCells(t *testing.T) {
	cur := tracep.NewResultSetGrid([]string{"compress", "gcc"}, []string{"base", "FG"}, nil)
	cur.Add(cell("compress", "base", 2.0))
	cur.Add(cell("compress", "FG", 3.0))
	cur.Add(cell("gcc", "base", 1.0)) // not in baseline
	cur.Add(&tracep.Result{Benchmark: "gcc", Model: "FG", Error: "boom"})

	d := cur.Diff(diffBaseline(), tracep.Tolerances{})
	kinds := map[string]tracep.DiffKind{}
	for _, c := range d.Cells {
		kinds[c.Benchmark+"/"+c.Model] = c.Kind
	}
	if kinds["vortex/base"] != tracep.DiffMissing || kinds["vortex/FG"] != tracep.DiffMissing {
		t.Errorf("vortex row kinds = %v, want missing", kinds)
	}
	if kinds["gcc/base"] != tracep.DiffNew {
		t.Errorf("gcc/base kind = %v, want new", kinds["gcc/base"])
	}
	if _, ok := kinds["gcc/FG"]; ok {
		t.Error("a cell with statistics on neither side must not appear in the diff")
	}
	if d.OK() {
		t.Error("missing baseline cells must regress by default")
	}
	if d := cur.Diff(diffBaseline(), tracep.Tolerances{AllowMissing: true}); !d.OK() {
		t.Errorf("AllowMissing must tolerate the smaller sweep: %+v", d.Regressions())
	}

	// A baseline success that now fails carries the error text.
	failed := diffBaseline()
	failed.Add(&tracep.Result{Benchmark: "compress", Model: "base", Error: "watchdog: stuck"})
	d = failed.Diff(diffBaseline(), tracep.Tolerances{})
	for _, c := range d.Cells {
		if c.Benchmark == "compress" && c.Model == "base" {
			if c.Kind != tracep.DiffMissing || !c.Regression || !strings.Contains(c.Detail, "watchdog") {
				t.Errorf("failed cell delta = %+v, want missing regression with error detail", c)
			}
		}
	}
}

// statsCell builds a result whose cell carries recovery counts alongside
// IPC, for the extended-tolerance checks.
func statsCell(bench, model string, insts, cycles, recoveries uint64) *tracep.Result {
	return &tracep.Result{
		Benchmark: bench,
		Model:     model,
		Stats:     &tracep.Stats{RetiredInsts: insts, Cycles: cycles, Recoveries: recoveries},
	}
}

// TestDiffTraceMispAndRecoveryGate: the gate watches more than IPC — a
// cell whose IPC holds steady but whose trace mispredictions (== recovery
// count, normalised per 1000 insts) rise beyond tolerance regresses, and
// the tolerances loosen each dimension independently.
func TestDiffTraceMispAndRecoveryGate(t *testing.T) {
	base := tracep.NewResultSetGrid([]string{"compress"}, []string{"base"}, nil)
	base.Add(statsCell("compress", "base", 10_000, 5_000, 100)) // 10 misp/1000

	worse := tracep.NewResultSetGrid([]string{"compress"}, []string{"base"}, nil)
	worse.Add(statsCell("compress", "base", 10_000, 5_000, 130)) // 13 misp/1000, +30% recoveries

	// Zero-value tolerances: any rise regresses (in both dimensions; the
	// reasons are joined in Detail).
	d := worse.Diff(base, tracep.Tolerances{})
	if d.OK() {
		t.Fatal("recovery rise with flat IPC must regress under the strict gate")
	}
	reg := d.Regressions()
	if len(reg) != 1 {
		t.Fatalf("regressions = %+v, want exactly one cell", reg)
	}
	for _, want := range []string{"trace mispredictions rose 3.00/1000", "recoveries rose 100 -> 130"} {
		if !strings.Contains(reg[0].Detail, want) {
			t.Errorf("detail %q missing %q", reg[0].Detail, want)
		}
	}
	if reg[0].BaselineRecoveries != 100 || reg[0].CurrentRecoveries != 130 {
		t.Errorf("cell recovery counts = %d -> %d, want 100 -> 130",
			reg[0].BaselineRecoveries, reg[0].CurrentRecoveries)
	}

	// Loosening only one dimension is not enough...
	if d := worse.Diff(base, tracep.Tolerances{TraceMispPer1000: 5}); d.OK() {
		t.Error("recovery-count rise must still regress when only trace misp is tolerated")
	}
	if d := worse.Diff(base, tracep.Tolerances{RecoveriesPct: 50}); d.OK() {
		t.Error("trace-misp rise must still regress when only recoveries are tolerated")
	}
	// ...both together pass.
	if d := worse.Diff(base, tracep.Tolerances{TraceMispPer1000: 5, RecoveriesPct: 50}); !d.OK() {
		t.Errorf("loosened gate must pass: %+v", d.Regressions())
	}

	// Improvements are never regressions.
	better := tracep.NewResultSetGrid([]string{"compress"}, []string{"base"}, nil)
	better.Add(statsCell("compress", "base", 10_000, 5_000, 40))
	if d := better.Diff(base, tracep.Tolerances{}); !d.OK() {
		t.Errorf("fewer recoveries flagged as regression: %+v", d.Regressions())
	}

	// A zero-recovery baseline regresses on any rise at all, whatever the
	// percentage tolerance (there is no base to scale it by).
	zero := tracep.NewResultSetGrid([]string{"compress"}, []string{"base"}, nil)
	zero.Add(statsCell("compress", "base", 10_000, 5_000, 0))
	one := tracep.NewResultSetGrid([]string{"compress"}, []string{"base"}, nil)
	one.Add(statsCell("compress", "base", 10_000, 5_000, 1))
	if d := one.Diff(zero, tracep.Tolerances{TraceMispPer1000: 5, RecoveriesPct: 1000}); d.OK() {
		t.Error("rise from a zero-recovery baseline must regress regardless of RecoveriesPct")
	}
}

// TestDiffNonOverlappingBaselineFails pins the vacuous-pass guard: a
// baseline that shares no cells with the current set (empty file, renamed
// benchmarks) compares nothing and must FAIL the gate, not pass it.
func TestDiffNonOverlappingBaselineFails(t *testing.T) {
	empty := tracep.NewResultSet()
	d := diffBaseline().Diff(empty, tracep.Tolerances{IPCPct: 100})
	if d.OK() {
		t.Error("empty baseline must fail the gate, not pass vacuously")
	}
	if d.Compared() != 0 {
		t.Errorf("Compared() = %d, want 0", d.Compared())
	}

	renamed := tracep.NewResultSetGrid([]string{"other"}, []string{"base"}, nil)
	renamed.Add(cell("other", "base", 2.0))
	d = diffBaseline().Diff(renamed, tracep.Tolerances{AllowMissing: true})
	if d.OK() {
		t.Error("non-overlapping baseline must fail even with AllowMissing")
	}

	var text strings.Builder
	d.WriteText(&text)
	if !strings.Contains(text.String(), "FAIL: no cells compared") {
		t.Errorf("rendering must flag the empty comparison:\n%s", text.String())
	}
}

func TestDiffDeterministicOrderAndRenderings(t *testing.T) {
	cur := diffBaseline()
	cur.Add(cell("compress", "base", 1.0)) // -50%
	d := cur.Diff(diffBaseline(), tracep.Tolerances{IPCPct: 2})

	var order []string
	for _, c := range d.Cells {
		order = append(order, c.Benchmark+"/"+c.Model)
	}
	want := "compress/base,compress/FG,vortex/base,vortex/FG"
	if got := strings.Join(order, ","); got != want {
		t.Errorf("cell order = %s, want %s (baseline grid order)", got, want)
	}

	var text strings.Builder
	d.WriteText(&text)
	for _, want := range []string{"RESULTSET DIFF", "REGRESSION", "IPC dropped 50.00%", "FAIL: 1 of 4 cells regressed"} {
		if !strings.Contains(text.String(), want) {
			t.Errorf("text rendering missing %q:\n%s", want, text.String())
		}
	}

	out, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	var back tracep.Diff
	if err := json.Unmarshal(out, &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Cells) != len(d.Cells) || back.Tolerances != d.Tolerances {
		t.Errorf("JSON round trip lost data: %+v", back)
	}
	if back.OK() {
		t.Error("round-tripped diff must still report the regression")
	}
}

// warmCell builds a cell whose stats carry warm-up metadata and cache-miss
// counts.
func warmCell(bench, model string, ipc float64, warmup, icMisses, dcMisses uint64) *tracep.Result {
	res := cell(bench, model, ipc)
	res.Stats.WarmupInsts = warmup
	res.Stats.ICMisses = icMisses
	res.Stats.DCMisses = dcMisses
	return res
}

// TestDiffWarmupMismatchIsIncomparable: cells measured after different
// warm-ups must never be numerically compared — they are flagged as
// incomparable regressions regardless of how good the numbers look.
func TestDiffWarmupMismatchIsIncomparable(t *testing.T) {
	cur := tracep.NewResultSetGrid([]string{"compress"}, []string{"base"}, nil)
	// Higher IPC than baseline, but over a different measured region.
	cur.Add(warmCell("compress", "base", 9.9, 5000, 0, 0))
	base := tracep.NewResultSetGrid([]string{"compress"}, []string{"base"}, nil)
	base.Add(cell("compress", "base", 2.0))

	d := cur.Diff(base, tracep.Tolerances{IPCPct: 100})
	if d.OK() {
		t.Fatal("warm-vs-cold comparison must fail the gate")
	}
	c := d.Cells[0]
	if c.Kind != tracep.DiffIncomparable || !c.Regression {
		t.Fatalf("cell = %+v, want incomparable regression", c)
	}
	if c.BaselineWarmup != 0 || c.CurrentWarmup != 5000 {
		t.Errorf("warm-up metadata = %d/%d, want 0/5000", c.BaselineWarmup, c.CurrentWarmup)
	}
	if !strings.Contains(c.Detail, "warm-up mismatch") {
		t.Errorf("detail = %q, want warm-up mismatch explanation", c.Detail)
	}

	// The rendered verdict names the warm-up mismatch, not a grid overlap
	// problem (nothing compared, but only because every cell was
	// incomparable).
	if d.Compared() != 0 || d.Incomparable() != 1 {
		t.Errorf("Compared/Incomparable = %d/%d, want 0/1", d.Compared(), d.Incomparable())
	}
	var text strings.Builder
	d.WriteText(&text)
	if !strings.Contains(text.String(), "incomparable (warm-up mismatch)") {
		t.Errorf("verdict missing incomparable explanation:\n%s", text.String())
	}

	// Matching warm-ups on both sides compare normally.
	warmBase := tracep.NewResultSetGrid([]string{"compress"}, []string{"base"}, nil)
	warmBase.Add(warmCell("compress", "base", 2.0, 5000, 0, 0))
	if d := cur.Diff(warmBase, tracep.Tolerances{}); !d.OK() {
		t.Errorf("matching warm-ups must compare: %+v", d.Regressions())
	}
}

// TestDiffCacheMissGate: rises in I-/D-cache misses per 1000 instructions
// regress beyond Tolerances.CacheMissPer1000; drops never do.
func TestDiffCacheMissGate(t *testing.T) {
	mk := func(ic, dc uint64) *tracep.ResultSet {
		rs := tracep.NewResultSetGrid([]string{"compress"}, []string{"base"}, nil)
		rs.Add(warmCell("compress", "base", 2.0, 0, ic, dc)) // 2000 retired insts
		return rs
	}
	base := mk(10, 20)

	// D-cache misses rise 20 -> 30: +5/1000 insts over 2000 retired insts.
	d := mk(10, 30).Diff(base, tracep.Tolerances{})
	if d.OK() {
		t.Fatal("D-cache miss rise must regress under a zero gate")
	}
	if c := d.Regressions()[0]; !strings.Contains(c.Detail, "D-cache") {
		t.Errorf("detail = %q, want D-cache reason", c.Detail)
	}
	// The same rise passes a 5/1000 gate.
	if d := mk(10, 30).Diff(base, tracep.Tolerances{CacheMissPer1000: 5}); !d.OK() {
		t.Errorf("rise within tolerance regressed: %+v", d.Regressions())
	}
	// I-cache rises are gated independently.
	d = mk(14, 20).Diff(base, tracep.Tolerances{CacheMissPer1000: 1})
	if d.OK() {
		t.Fatal("I-cache miss rise must regress beyond the gate")
	}
	if c := d.Regressions()[0]; !strings.Contains(c.Detail, "I-cache") {
		t.Errorf("detail = %q, want I-cache reason", c.Detail)
	}
	// Drops are never regressions.
	if d := mk(0, 0).Diff(base, tracep.Tolerances{}); !d.OK() {
		t.Errorf("miss-rate drop regressed: %+v", d.Regressions())
	}
	// Metadata lands in the cell.
	c := mk(10, 30).Diff(base, tracep.Tolerances{}).Cells[0]
	if c.BaselineDCacheMiss != 10 || c.CurrentDCacheMiss != 15 {
		t.Errorf("D-cache miss rates = %.1f/%.1f, want 10/15 per 1000", c.BaselineDCacheMiss, c.CurrentDCacheMiss)
	}
}

// TestDiffUnchangedSetNeverRegresses: a set diffed against itself passes
// whatever the bounds, even ones Validate rejects — an unchanged cell is
// never credibly worse.
func TestDiffUnchangedSetNeverRegresses(t *testing.T) {
	neg := tracep.Tolerances{IPCPct: -1, TraceMispPer1000: -1, RecoveriesPct: -1, CacheMissPer1000: -1}
	if err := neg.Validate(); err == nil {
		t.Error("Validate accepted negative tolerances")
	}
	d := loadCIBaseline(t).Diff(loadCIBaseline(t), neg)
	if !d.OK() || d.Compared() != 16 {
		t.Errorf("identical CI baseline under negative tolerances: %d compared, %d regressed",
			d.Compared(), len(d.Regressions()))
	}
}
