package main

import (
	"bytes"
	"context"
	"maps"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"

	"tracep"
)

// TestDeclarationMatchesCode holds BENCHMARK.json and the code to one list
// of workloads and metrics, within the declaration format's limits.
func TestDeclarationMatchesCode(t *testing.T) {
	d, err := readDeclaration("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q does not match %s", n, name)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}

	if len(d.Paths) != 1 || d.Paths[0] != "cmd/tracepbench" {
		t.Errorf("paths = %q, want [cmd/tracepbench]", d.Paths)
	}
	if d.RunSeconds < 1 || d.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", d.RunSeconds)
	}
	if len(d.Workloads) < 2 || len(d.Workloads) > 8 || len(d.Workloads) != len(workloads) {
		t.Fatalf("%d declared workloads, %d in code (want 2..8, equal)", len(d.Workloads), len(workloads))
	}
	for i, w := range d.Workloads {
		checkName(w.Name)
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: declared %q (%q), code has %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}

	check := func(kind string, decl []declMetric, code []metricDef, limit int, endToEnd bool) {
		if len(decl) < 1 || len(decl) > limit {
			t.Errorf("%d %s metrics, want 1..%d", len(decl), kind, limit)
		}
		if len(decl) != len(code) {
			t.Errorf("%d declared %s metrics, %d emitted", len(decl), kind, len(code))
		}
		for i, m := range decl {
			checkName(m.Name)
			if !unit.MatchString(m.Unit) {
				t.Errorf("%s: unit %q", m.Name, m.Unit)
			}
			if i < len(code) && (m.Name != code[i].name || m.Unit != code[i].unit) {
				t.Errorf("%s metric %d: declared %s (%s), emitted %s (%s)", kind, i, m.Name, m.Unit, code[i].name, code[i].unit)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s: better = %q", m.Name, m.Better)
			}
			if endToEnd && (m.Bound <= 0 || m.Bound > 0.25) {
				t.Errorf("%s: bound %v, want (0, 0.25]", m.Name, m.Bound)
			}
		}
	}
	check("end-to-end", d.EndToEnd, endToEnd, 16, true)
	check("per-layer", d.PerLayer, perLayer, 128, false)
	if d.EndToEnd[0] != (declMetric{Name: "setup_s", Unit: "s", Better: "lower", Bound: largestBound(d.EndToEnd)}) {
		t.Errorf("setup_s must come first, in s, lower is better, with the largest bound: %+v", d.EndToEnd[0])
	}
}

func largestBound(ms []declMetric) float64 {
	b := 0.0
	for _, m := range ms {
		b = math.Max(b, m.Bound)
	}
	return b
}

// TestStats checks the helpers against hand-computed values; the quartiles
// are those of Python's statistics.quantiles(xs, n=4).
func TestStats(t *testing.T) {
	for _, c := range []struct {
		xs          []float64
		med, q1, q3 float64
	}{
		{[]float64{1, 2}, 1.5, 0.75, 2.25},
		{[]float64{1, 2, 3}, 2, 1, 3},
		{[]float64{3, 1, 4, 1, 5}, 3, 1, 4.5},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 5.5, 2.75, 8.25},
		{[]float64{2.5, 0.5, 7, 9}, 4.75, 1, 8.5},
	} {
		q1, q3 := quartiles(c.xs)
		if m := median(c.xs); m != c.med || q1 != c.q1 || q3 != c.q3 {
			t.Errorf("%v: median %v quartiles %v %v, want %v %v %v", c.xs, m, q1, q3, c.med, c.q1, c.q3)
		}
	}
	if s := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); s != (8.25-2.75)/5.5 {
		t.Errorf("spread = %v", s)
	}

	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted order
	}
	for q, want := range map[float64]float64{50: 50, 90: 90, 99: 99, 100: 100, 1: 1} { //tracep:orderinvariant independent cases
		if got := percentile(xs, q); got != want {
			t.Errorf("p%v = %v, want %v", q, got, want)
		}
	}
	if !tailResolved(100, 90) || tailResolved(99, 90) || tailResolved(100, 99) || !tailResolved(1000, 99) {
		t.Error("tailResolved: want exactly the percentiles with at least ten samples beyond them")
	}
	if !math.IsNaN(median(nil)) || !math.IsNaN(percentile(nil, 50)) {
		t.Error("no samples must give NaN")
	}
}

// TestJudge checks the -compare verdicts.
func TestJudge(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 100}
	for _, c := range []struct {
		name   string
		a, b   []float64
		better string
		want   string
	}{
		{"same", steady, steady, "lower", verdictNoWorse},
		{"within bound", steady, scale(steady, 1.05), "lower", verdictNoWorse},
		{"slower", steady, scale(steady, 1.2), "lower", verdictWorse},
		{"faster", steady, scale(steady, 0.8), "lower", verdictBetter},
		{"throughput down", steady, scale(steady, 0.8), "higher", verdictWorse},
		{"throughput up", steady, scale(steady, 1.2), "higher", verdictBetter},
		{"noisy", []float64{50, 100, 150, 100, 60}, steady, "lower", verdictUnresolved},
		{"noisy but every run better", []float64{150, 200, 300, 160, 250}, steady, "lower", verdictBetter},
	} {
		if _, got := judge(c.a, c.b, c.better, 0.1); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func scale(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

// TestCompareExitCodes checks runCompare end to end on saved reports.
func TestCompareExitCodes(t *testing.T) {
	dir := t.TempDir()
	base := report{Workload: "paper-grid", Seed: 1, Correct: true, Digest: "d", Counts: map[string]uint64{"proc.cycles": 7},
		Metrics: map[string]metric{}}
	for _, m := range endToEnd {
		base.Metrics[m.name] = metric{Value: 1, Unit: m.unit, Samples: []float64{1, 1, 1}}
	}
	write := func(name string, mutate func(*report)) string {
		r := base
		r.Metrics = maps.Clone(base.Metrics)
		r.Counts = map[string]uint64{"proc.cycles": 7}
		mutate(&r)
		path := dir + "/" + name
		if err := appendReports(path, []report{r}); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a := write("a.json", func(*report) {})
	same := write("same.json", func(*report) {})
	slow := write("slow.json", func(r *report) { r.Metrics["wall_s"] = metric{Value: 2, Samples: []float64{2, 2, 2}} })
	counts := write("counts.json", func(r *report) { r.Counts["proc.cycles"] = 8 })

	decl := dir + "/BENCHMARK.json"
	if err := os.WriteFile(decl, []byte(`{"workloads":[{"name":"paper-grid","why":"w"}],"end_to_end":[`+
		`{"name":"wall_s","unit":"s","better":"lower","bound":0.1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	for path, want := range map[string]int{same: 0, slow: 2, counts: 2} { //tracep:orderinvariant independent cases
		if got := runCompare(&out, decl, a, path); got != want {
			t.Errorf("compare a %s = %d, want %d\n%s", path, got, want, out.String())
		}
	}
}

// TestParseTop reads a go tool pprof -top -cum listing.
func TestParseTop(t *testing.T) {
	out := `File: tracepbench
Type: cpu
Duration: 1.20s, Total samples = 2s (166.67%)
Showing nodes accounting for 1.90s, 95.00% of 2s total
      flat  flat%   sum%        cum   cum%
         0     0%     0%      1.50s 75.00%  tracep/internal/proc.(*Processor).RunContext
     0.40s 20.00% 20.00%      0.60s 30.00%  tracep/internal/proc.(*Processor).issueAll
         0     0% 20.00%      100ms  5.00%  tracep/internal/proc.New (inline)
`
	p, err := parseTop([]byte(out))
	if err != nil {
		t.Fatal(err)
	}
	if got := p.pct("tracep/internal/proc.(*Processor).issueAll"); got != 30 {
		t.Errorf("issueAll share %v, want 30", got)
	}
	if got := p.ms("tracep/internal/proc.New"); got != 100 {
		t.Errorf("proc.New %v ms, want 100", got)
	}
	if got := p.pct("runtime.mallocgc"); got != 0 {
		t.Errorf("absent function share %v, want 0", got)
	}
}

// TestSmoke runs every workload's code path, untraced and traced, on small
// inputs built here, and checks that every metric is emitted and no
// operation fails.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates")
	}
	small := func(benches []tracep.Benchmark, target uint64) *tracep.Sweep {
		return &tracep.Sweep{Benchmarks: benches, Models: tracep.Models()[:2], TargetInsts: target, Seed: 1}
	}
	suite := tracep.Benchmarks()[:2]
	cases := []workload{
		{name: "smoke-grid", setup: func(context.Context, int64, string) (harness, error) {
			return newSweepHarness(small(suite, 2_000)), nil
		}},
		{name: "smoke-seeds", setup: func(context.Context, int64, string) (harness, error) {
			sw := small([]tracep.Benchmark{tracep.Scenarios()[0].Benchmark(1)}, 2_000)
			sw.Seeds = []int64{1, 2}
			h := newSweepHarness(sw)
			h.aggregate = true
			return h, nil
		}},
		{name: "smoke-fork", setup: func(ctx context.Context, _ int64, _ string) (harness, error) {
			sw := small(suite, 20_000)
			if err := warmUpTo(ctx, sw, 2_000); err != nil {
				return nil, err
			}
			return newSweepHarness(sw), nil
		}},
		{name: "smoke-service", setup: func(ctx context.Context, seed int64, workDir string) (harness, error) {
			return newServiceHarness(ctx, serviceSpec{writes: 3, reads: 2, shapes: 4, insts: 1_000}, seed, workDir)
		}},
	}
	for _, w := range cases {
		for _, traced := range []bool{false, true} {
			dir := t.TempDir()
			r, err := measure(context.Background(), w, options{seed: 1, seconds: 1, trace: traced,
				traceDir: dir + "/trace", workDir: dir})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if r.Failed != 0 || !r.Correct || r.Attempted == 0 {
				t.Errorf("%s traced=%v: %d of %d operations failed: %q", w.name, traced, r.Failed, r.Attempted, r.Failures)
			}
			want, got := endToEnd, r.Metrics
			if traced {
				want, got = perLayer, r.Layers
			}
			if len(got) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.name, traced, len(got), len(want))
			}
			for _, m := range want {
				v, ok := got[m.name]
				if !ok || v.Unit != m.unit || math.IsNaN(v.Value) {
					t.Errorf("%s traced=%v: metric %s = %+v", w.name, traced, m.name, v)
				}
			}
			if r.Counts["proc.retired_insts"] == 0 {
				t.Errorf("%s: no modelled counts", w.name)
			}
		}
	}
}
