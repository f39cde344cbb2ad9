// Command benchdiff turns CI's per-commit benchmark artifact into a trend
// gate: it compares two `go test -json -bench` outputs (the previous
// commit's BENCH_ci.json artifact vs the current run's) and exits non-zero
// when any benchmark's ns/op or allocs/op regressed by more than the
// tolerance.
//
// Usage:
//
//	benchdiff -old prev/BENCH_ci.json -new BENCH_ci.json -tol 10
//
// Semantics are tuned for CI rather than for microbenchmark rigor:
//
//   - A missing -old file is a clean skip (exit 0) — the first run of the
//     gate, or an expired artifact, must not fail the build.
//   - Benchmarks present on only one side are reported but never fail the
//     gate: adding or renaming a benchmark is not a regression.
//   - Every sample of a repeated benchmark (go test -count N) is kept. A
//     metric regresses only when its mean rises by more than the percent
//     tolerance (-tol) AND the 95% Student-t intervals of the two sides'
//     means (internal/report.DistOf) are disjoint, so run-to-run noise
//     inside overlapping intervals never fails the gate. A one-sample side
//     has a zero-width interval, so two one-sample runs gate on the
//     tolerance alone.
//   - allocs/op uses the same rule, but tiny counts (old mean < 10
//     allocs/op) must also rise by at least one whole allocation — a 0→1
//     jump on a noisy metric should fail only when it is a real new
//     allocation, and 2→3 on a deliberately tiny count is flagged because
//     the engine's steady state is supposed to be allocation-free.
//
// Exit codes: 0 ok (or skipped), 1 bad input, 2 regression.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"

	"tracep/internal/report"
)

// result is one benchmark's samples, one per repetition in output order.
// allocs holds only the benchmem-instrumented repetitions, so it is empty
// when the run was not instrumented.
type result struct {
	ns     []float64
	allocs []float64
}

// parseBench extracts benchmark result lines from `go test -json` output.
// The testing package splits one logical result line across Output events
// (the padded name first, the metrics after the timing run finishes):
//
//	{"Action":"output","Output":"BenchmarkCycleLoop \t"}
//	{"Action":"output","Output":"   20000\t  2650 ns/op\t  4 B/op\t  0 allocs/op\n"}
//
// so events are concatenated per package and split on newlines before
// matching. Plain (non -json) bench output is tolerated too.
func parseBench(r io.Reader) (map[string]result, error) {
	type event struct {
		Action  string `json:"Action"`
		Package string `json:"Package"`
		Output  string `json:"Output"`
	}
	text := make(map[string]*strings.Builder)
	appendOut := func(pkg, s string) {
		b := text[pkg]
		if b == nil {
			b = new(strings.Builder)
			text[pkg] = b
		}
		b.WriteString(s)
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var ev event
		if err := json.Unmarshal(line, &ev); err != nil {
			appendOut("", string(line)+"\n")
			continue
		}
		if ev.Action == "output" {
			appendOut(ev.Package, ev.Output)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	out := make(map[string]result)
	//tracep:orderinvariant samples only feed a mean and an interval, which ignore their order
	for _, b := range text {
		for _, line := range strings.Split(b.String(), "\n") {
			name, ns, allocs, ok := parseLine(line)
			if !ok {
				continue
			}
			res := out[name]
			res.ns = append(res.ns, ns)
			if allocs >= 0 {
				res.allocs = append(res.allocs, allocs)
			}
			out[name] = res
		}
	}
	return out, nil
}

// parseLine parses one benchmark result line into its name, ns/op and
// allocs/op (-1 when the line carries no allocation count). The testing
// package formats them as name, iteration count, then value/unit pairs.
func parseLine(line string) (name string, ns, allocs float64, ok bool) {
	if !strings.HasPrefix(line, "Benchmark") || !strings.Contains(line, "ns/op") {
		return "", 0, 0, false
	}
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return "", 0, 0, false
	}
	allocs = -1
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return "", 0, 0, false
		}
		switch fields[i+1] {
		case "ns/op":
			ns = v
		case "allocs/op":
			allocs = v
		}
	}
	return fields[0], ns, allocs, true
}

// change compares one metric's old and new samples: the percent change of
// the mean, and whether the 95% intervals on the two means are disjoint.
func change(old, cur []float64) (o, n report.Dist, pct float64, disjoint bool) {
	o, n = report.DistOf(old), report.DistOf(cur)
	return o, n, pctRise(o.Mean, n.Mean), n.Above(o) || o.Above(n)
}

// fmtDist renders a metric as its mean, with the interval half-width when
// there is more than one sample.
func fmtDist(d report.Dist) string {
	if d.N <= 1 {
		return fmt.Sprintf("%.0f", d.Mean)
	}
	return fmt.Sprintf("%.0f±%.0f", d.Mean, d.CIHalf)
}

// regressions compares new against old and returns human-readable failure
// lines, one per metric whose mean rose beyond the tolerance with disjoint
// intervals.
func regressions(old, cur map[string]result, tolPct float64) []string {
	var fails []string
	names := make([]string, 0, len(old))
	for name := range old { //tracep:orderinvariant sorted below
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		o := old[name]
		n, ok := cur[name]
		if !ok {
			fmt.Printf("skip %-50s not in the new run\n", name)
			continue
		}
		od, nd, nsDelta, disjoint := change(o.ns, n.ns)
		status := "ok  "
		if nsDelta > tolPct && disjoint {
			status = "FAIL"
			fails = append(fails, fmt.Sprintf("%s: ns/op %s -> %s (+%.1f%%, tolerance %.0f%%, 95%% intervals disjoint)",
				name, fmtDist(od), fmtDist(nd), nsDelta, tolPct))
		}
		fmt.Printf("%s %-50s ns/op %14s -> %14s (%+.1f%%)\n", status, name, fmtDist(od), fmtDist(nd), nsDelta)
		if len(o.allocs) > 0 && len(n.allocs) > 0 {
			od, nd, aDelta, disjoint := change(o.allocs, n.allocs)
			// Tiny counts: a percentage on a near-zero base is meaningless
			// in both directions, so demand a whole-allocation rise too.
			if aDelta > tolPct && disjoint && (od.Mean >= 10 || nd.Mean-od.Mean >= 1) {
				fails = append(fails, fmt.Sprintf("%s: allocs/op %s -> %s (+%.1f%%, tolerance %.0f%%, 95%% intervals disjoint)",
					name, fmtDist(od), fmtDist(nd), aDelta, tolPct))
			}
		}
	}
	added := make([]string, 0, len(cur))
	for name := range cur { //tracep:orderinvariant sorted below
		if _, ok := old[name]; !ok {
			added = append(added, name)
		}
	}
	sort.Strings(added)
	for _, name := range added {
		fmt.Printf("new  %-50s (no previous measurement)\n", name)
	}
	return fails
}

// improvements is the mirror image of regressions: benchmarks whose ns/op or
// allocs/op mean fell by more than the tolerance with disjoint intervals, one
// line per metric. CI prints these (under -improvements) so a deliberate
// optimisation is visible in the log and its new baseline gets committed
// rather than silently absorbed into the old one's tolerance band.
func improvements(old, cur map[string]result, tolPct float64) []string {
	var wins []string
	names := make([]string, 0, len(old))
	for name := range old { //tracep:orderinvariant sorted below
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		o := old[name]
		n, ok := cur[name]
		if !ok {
			continue
		}
		if od, nd, rise, disjoint := change(o.ns, n.ns); -rise > tolPct && disjoint {
			wins = append(wins, fmt.Sprintf("%s: ns/op %s -> %s (-%.1f%%)",
				name, fmtDist(od), fmtDist(nd), -rise))
		}
		if len(o.allocs) > 0 && len(n.allocs) > 0 {
			// Mirror the regression gate's tiny-count rule: a percentage on a
			// near-zero base only counts with a whole-allocation change.
			od, nd, rise, disjoint := change(o.allocs, n.allocs)
			if -rise > tolPct && disjoint && (od.Mean >= 10 || od.Mean-nd.Mean >= 1) {
				wins = append(wins, fmt.Sprintf("%s: allocs/op %s -> %s (-%.1f%%)",
					name, fmtDist(od), fmtDist(nd), -rise))
			}
		}
	}
	return wins
}

func pctRise(old, cur float64) float64 {
	if old <= 0 {
		if cur <= 0 {
			return 0
		}
		return 100
	}
	return (cur - old) / old * 100
}

func main() {
	oldPath := flag.String("old", "", "previous run's go test -json bench output; missing file = clean skip")
	newPath := flag.String("new", "", "current run's go test -json bench output")
	tol := flag.Float64("tol", 10, "allowed rise in ns/op and allocs/op, percent")
	showImprovements := flag.Bool("improvements", false, "also summarise benchmarks that improved beyond the tolerance")
	flag.Parse()

	if *oldPath == "" || *newPath == "" {
		fmt.Fprintln(os.Stderr, "benchdiff: -old and -new are required")
		os.Exit(1)
	}
	oldFile, err := os.Open(*oldPath)
	if err != nil {
		if os.IsNotExist(err) {
			fmt.Printf("benchdiff: no previous results at %s; skipping trend gate\n", *oldPath)
			return
		}
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(1)
	}
	defer oldFile.Close()
	newFile, err := os.Open(*newPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(1)
	}
	defer newFile.Close()

	old, err := parseBench(oldFile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: parsing %s: %v\n", *oldPath, err)
		os.Exit(1)
	}
	cur, err := parseBench(newFile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: parsing %s: %v\n", *newPath, err)
		os.Exit(1)
	}
	if len(old) == 0 {
		fmt.Printf("benchdiff: %s holds no benchmark results; skipping trend gate\n", *oldPath)
		return
	}
	if len(cur) == 0 {
		fmt.Fprintf(os.Stderr, "benchdiff: %s holds no benchmark results\n", *newPath)
		os.Exit(1)
	}

	fails := regressions(old, cur, *tol)
	if *showImprovements {
		wins := improvements(old, cur, *tol)
		fmt.Printf("\nbenchdiff: %d improvement(s) beyond %.0f%%\n", len(wins), *tol)
		for _, w := range wins {
			fmt.Println("  " + w)
		}
	}
	if len(fails) > 0 {
		fmt.Fprintf(os.Stderr, "\nbenchdiff: %d regression(s) beyond %.0f%%:\n", len(fails), *tol)
		for _, f := range fails {
			fmt.Fprintln(os.Stderr, "  "+f)
		}
		os.Exit(2)
	}
	fmt.Printf("benchdiff: %d benchmark(s) within %.0f%% of the previous run\n", len(cur), *tol)
}
