package main

import (
	"fmt"
	"slices"
	"strings"
	"testing"
)

// oldRun mimics real `go test -json` bench output: the name and the
// metrics of a result line arrive as separate Output events.
const oldRun = `{"Action":"output","Package":"tracep","Output":"BenchmarkSweepParallelism/j=1-4 \t"}
{"Action":"output","Package":"tracep","Output":"       1\t1000000 ns/op\t2048 B/op\t10 allocs/op\n"}
{"Action":"output","Package":"tracep/internal/proc","Output":"BenchmarkCycleLoop-4 \t  200000\t5000 ns/op\t0 B/op\t0 allocs/op\n"}
{"Action":"run","Test":"ignored"}
`

func parseString(t *testing.T, s string) map[string]result {
	t.Helper()
	m, err := parseBench(strings.NewReader(s))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestParseBench(t *testing.T) {
	m := parseString(t, oldRun)
	if len(m) != 2 {
		t.Fatalf("parsed %d benchmarks, want 2: %v", len(m), m)
	}
	sw := m["BenchmarkSweepParallelism/j=1-4"]
	if !slices.Equal(sw.ns, []float64{1_000_000}) || !slices.Equal(sw.allocs, []float64{10}) {
		t.Errorf("sweep = %+v, want ns/op 1000000 allocs 10", sw)
	}
	cl := m["BenchmarkCycleLoop-4"]
	if !slices.Equal(cl.ns, []float64{5000}) || !slices.Equal(cl.allocs, []float64{0}) {
		t.Errorf("cycle loop = %+v, want ns/op 5000 allocs 0", cl)
	}

	// Plain (non -json) bench output parses too.
	plain := parseString(t, "BenchmarkCycleLoop-4 \t 200000\t5000 ns/op\n")
	if !slices.Equal(plain["BenchmarkCycleLoop-4"].ns, []float64{5000}) {
		t.Errorf("plain line: %+v", plain)
	}
	if len(plain["BenchmarkCycleLoop-4"].allocs) != 0 {
		t.Errorf("plain line without -benchmem should carry no alloc count: %+v", plain)
	}
}

func TestRegressions(t *testing.T) {
	old := parseString(t, oldRun)

	within := `{"Action":"output","Output":"BenchmarkSweepParallelism/j=1-4 \t1\t1050000 ns/op\t2048 B/op\t10 allocs/op\n"}
{"Action":"output","Output":"BenchmarkCycleLoop-4 \t200000\t5200 ns/op\t0 B/op\t0 allocs/op\n"}`
	if fails := regressions(old, parseString(t, within), 10); len(fails) != 0 {
		t.Errorf("+5%% ns/op failed the 10%% gate: %v", fails)
	}

	slow := `{"Action":"output","Output":"BenchmarkSweepParallelism/j=1-4 \t1\t1200000 ns/op\t2048 B/op\t10 allocs/op\n"}
{"Action":"output","Output":"BenchmarkCycleLoop-4 \t200000\t5000 ns/op\t0 B/op\t0 allocs/op\n"}`
	if fails := regressions(old, parseString(t, slow), 10); len(fails) != 1 {
		t.Errorf("+20%% ns/op passed the 10%% gate: %v", fails)
	}

	// A new allocation on a zero-alloc benchmark regresses even though the
	// percentage is degenerate.
	leak := `{"Action":"output","Output":"BenchmarkSweepParallelism/j=1-4 \t1\t1000000 ns/op\t2048 B/op\t10 allocs/op\n"}
{"Action":"output","Output":"BenchmarkCycleLoop-4 \t200000\t5000 ns/op\t64 B/op\t2 allocs/op\n"}`
	if fails := regressions(old, parseString(t, leak), 10); len(fails) != 1 {
		t.Errorf("0 -> 2 allocs/op passed the gate: %v", fails)
	}

	// Disappearing or new benchmarks never fail the gate.
	if fails := regressions(old, parseString(t, `{"Action":"output","Output":"BenchmarkNew-4 \t1\t10 ns/op\n"}`), 10); len(fails) != 0 {
		t.Errorf("renamed benchmarks failed the gate: %v", fails)
	}
}

// TestGateArithmeticBothDirections pins the >10% threshold on both sides: a
// rise is a regression and the equivalent fall is an improvement, and
// deltas at or inside the tolerance are neither.
func TestGateArithmeticBothDirections(t *testing.T) {
	one := func(ns, allocs float64) map[string]result {
		return map[string]result{"BenchmarkX-4": {ns: []float64{ns}, allocs: []float64{allocs}}}
	}
	base, run := one(1000, 100), one

	cases := []struct {
		name       string
		ns, allocs float64
		fails      int
		wins       int
	}{
		{"exactly +10% is within tolerance", 1100, 110, 0, 0},
		{"exactly -10% is within tolerance", 900, 90, 0, 0},
		{"+10.1% ns/op regresses", 1101, 100, 1, 0},
		{"-10.1% ns/op improves", 899, 100, 0, 1},
		{"+10.1% on both metrics regresses twice", 1101, 111, 2, 0},
		{"-10.1% on both metrics improves twice", 899, 89, 0, 2},
		{"unchanged is neither", 1000, 100, 0, 0},
	}
	for _, tc := range cases {
		cur := run(tc.ns, tc.allocs)
		if fails := regressions(base, cur, 10); len(fails) != tc.fails {
			t.Errorf("%s: %d regression(s), want %d: %v", tc.name, len(fails), tc.fails, fails)
		}
		if wins := improvements(base, cur, 10); len(wins) != tc.wins {
			t.Errorf("%s: %d improvement(s), want %d: %v", tc.name, len(wins), tc.wins, wins)
		}
	}

	// The tiny-count alloc rule mirrors: 2 -> 1 is a whole-allocation drop
	// (reported), but a sub-allocation percentage wobble on a tiny base is
	// not, in either direction.
	tiny := one(1000, 2)
	if wins := improvements(tiny, run(1000, 1), 10); len(wins) != 1 {
		t.Errorf("2 -> 1 allocs/op not reported as an improvement: %v", wins)
	}
	frac := one(1000, 0.5)
	if wins := improvements(frac, run(1000, 0.4), 10); len(wins) != 0 {
		t.Errorf("0.5 -> 0.4 allocs/op reported as an improvement: %v", wins)
	}
	if fails := regressions(frac, run(1000, 0.6), 10); len(fails) != 0 {
		t.Errorf("0.4 -> 0.5 allocs/op reported as a regression: %v", fails)
	}
}

// repeated renders a -count N run of BenchmarkX as go test -json output, one
// result line per ns/op sample.
func repeated(ns ...float64) string {
	var b strings.Builder
	for _, v := range ns {
		fmt.Fprintf(&b, `{"Action":"output","Package":"tracep","Output":"BenchmarkX-4 \t1000\t%g ns/op\t0 B/op\t0 allocs/op\n"}`+"\n", v)
	}
	return b.String()
}

// TestRepeatedSamples: every repetition of a -count N run is kept, and a
// rise beyond the tolerance whose intervals are disjoint regresses (and the
// reverse improves).
func TestRepeatedSamples(t *testing.T) {
	old := parseString(t, repeated(1000, 1010, 990, 1005, 995))
	if got := old["BenchmarkX-4"]; len(got.ns) != 5 || len(got.allocs) != 5 || got.ns[1] != 1010 {
		t.Fatalf("parsed %+v, want all five samples in output order", got)
	}
	slow := parseString(t, repeated(1200, 1210, 1190, 1205, 1195))
	if fails := regressions(old, slow, 10); len(fails) != 1 {
		t.Errorf("+20%% with disjoint intervals passed the gate: %v", fails)
	}
	if wins := improvements(slow, old, 10); len(wins) != 1 {
		t.Errorf("-17%% with disjoint intervals not reported as an improvement: %v", wins)
	}
	if fails := regressions(old, parseString(t, repeated(1050, 1060, 1040, 1055, 1045)), 10); len(fails) != 0 {
		t.Errorf("+5%% failed the 10%% gate: %v", fails)
	}
}

// TestOverlappingIntervalsPass: a mean rise beyond the tolerance is not a
// regression while the two sides' intervals overlap — the samples are too
// noisy to tell the runs apart.
func TestOverlappingIntervalsPass(t *testing.T) {
	old := parseString(t, repeated(600, 1400, 800, 1200, 1000))
	noisy := parseString(t, repeated(700, 1700, 900, 1500, 1200))
	if fails := regressions(old, noisy, 10); len(fails) != 0 {
		t.Errorf("+20%% mean rise with overlapping intervals failed the gate: %v", fails)
	}
	if wins := improvements(noisy, old, 10); len(wins) != 0 {
		t.Errorf("a fall with overlapping intervals was reported as an improvement: %v", wins)
	}
}

// TestSingleSampleAgainstRepeated: an artifact from before repeated runs
// (one sample per benchmark) still parses and gates — its interval is a
// point, so against a repeated run the regression must clear both the
// tolerance and the new run's interval.
func TestSingleSampleAgainstRepeated(t *testing.T) {
	old := parseString(t, oldRun)
	cl := func(ns ...float64) map[string]result {
		var b strings.Builder
		for _, v := range ns {
			fmt.Fprintf(&b, "BenchmarkCycleLoop-4 \t200000\t%g ns/op\t0 B/op\t0 allocs/op\n", v)
		}
		return parseString(t, b.String())
	}
	if fails := regressions(old, cl(6000, 6100, 5900, 6050, 5950), 10); len(fails) != 1 {
		t.Errorf("+20%% against a one-sample artifact passed the gate: %v", fails)
	}
	if fails := regressions(old, cl(4000, 8000, 5000, 7000, 6000), 10); len(fails) != 0 {
		t.Errorf("+20%% whose interval covers the old sample failed the gate: %v", fails)
	}
	if wins := improvements(old, cl(4000, 4100, 3900, 4050, 3950), 10); len(wins) != 1 {
		t.Errorf("-20%% against a one-sample artifact not reported as an improvement: %v", wins)
	}
}
