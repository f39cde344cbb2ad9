package main

import (
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"os"
)

// declaration is BENCHMARK.json: the benchmark's command, workloads and
// metrics, with each end-to-end metric's direction and regression bound.
type declaration struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []declMetric `json:"end_to_end"`
	PerLayer []declMetric `json:"per_layer"`
}

type declMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func readDeclaration(path string) (*declaration, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d declaration
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &d, nil
}

// Verdicts of one (workload, metric) comparison.
const (
	verdictWorse      = "worse"
	verdictNoWorse    = "no worse"
	verdictBetter     = "better"
	verdictUnresolved = "unresolved"
)

// judge compares B's samples of one metric against A's. The change is the
// relative move of the median in the metric's worse direction. When either
// side's interquartile spread exceeds the bound the comparison cannot
// resolve a move of that size — unless every B sample beats every A sample.
func judge(a, b []float64, better string, bound float64) (change float64, verdict string) {
	ma, mb := median(a), median(b)
	change = (mb - ma) / ma
	if better == "higher" {
		change = -change
	}
	if spread(a) > bound || spread(b) > bound {
		if beatsAll(a, b, better) {
			return change, verdictBetter
		}
		return change, verdictUnresolved
	}
	switch {
	case change > bound:
		return change, verdictWorse
	case change < -bound:
		return change, verdictBetter
	}
	return change, verdictNoWorse
}

// beatsAll reports whether every sample of b is better than every sample
// of a.
func beatsAll(a, b []float64, better string) bool {
	sa, sb := sorted(a), sorted(b)
	if better == "higher" {
		return sb[0] > sa[len(sa)-1]
	}
	return sb[len(sb)-1] < sa[0]
}

// samplesOf gathers one metric's samples for one workload from a set of
// reports: the per-report values when there are several runs, otherwise
// the single run's per-repetition samples.
func samplesOf(rs []report, name string) []float64 {
	if len(rs) == 1 {
		m := rs[0].Metrics[name]
		if len(m.Samples) > 0 {
			return m.Samples
		}
		return []float64{m.Value}
	}
	var out []float64
	for _, r := range rs {
		out = append(out, r.Metrics[name].Value)
	}
	return out
}

// runCompare compares two -out files metric by metric and returns the exit
// code: 2 when a metric is worse or a deterministic count or digest
// differs, 1 on bad input, 0 otherwise.
func runCompare(w io.Writer, declPath, pathA, pathB string) int {
	decl, err := readDeclaration(declPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tracepbench:", err)
		return 1
	}
	a, err := readReports(pathA)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tracepbench:", err)
		return 1
	}
	b, err := readReports(pathB)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tracepbench:", err)
		return 1
	}
	code := 0
	fmt.Fprintf(w, "%-15s %-18s %12s %12s %8s  %s\n", "workload", "metric", "A median", "B median", "change", "verdict")
	for _, wl := range decl.Workloads {
		ra, rb := untraced(a, wl.Name), untraced(b, wl.Name)
		if len(ra) == 0 || len(rb) == 0 {
			missing := pathA
			if len(ra) > 0 {
				missing = pathB
			}
			fmt.Fprintf(w, "%-15s no untraced run in %s\n", wl.Name, missing)
			code = max(code, 1)
			continue
		}
		for _, m := range decl.EndToEnd {
			sa, sb := samplesOf(ra, m.Name), samplesOf(rb, m.Name)
			change, verdict := judge(sa, sb, m.Better, m.Bound)
			if verdict == verdictWorse {
				code = 2
			}
			fmt.Fprintf(w, "%-15s %-18s %12.4f %12.4f %+7.1f%%  %s\n", wl.Name, m.Name, median(sa), median(sb), 100*change, verdict)
		}
		for _, msg := range deterministicDiffs(ra, rb) {
			fmt.Fprintf(w, "%-15s %s\n", wl.Name, msg)
			code = 2
		}
	}
	return code
}

// untraced selects the untraced reports of one workload.
func untraced(rs []report, name string) []report {
	var out []report
	for _, r := range rs {
		if r.Workload == name && !r.Traced {
			out = append(out, r)
		}
	}
	return out
}

// deterministicDiffs lists the digests and counts that differ between two
// sets of runs of one workload at the same seed, and any failed operation.
func deterministicDiffs(a, b []report) []string {
	var diffs []string
	for _, r := range append(append([]report(nil), a...), b...) {
		if r.Failed > 0 || !r.Correct {
			diffs = append(diffs, fmt.Sprintf("seed %d: %d of %d operations failed", r.Seed, r.Failed, r.Attempted))
		}
	}
	for _, ra := range a {
		for _, rb := range b {
			if ra.Seed != rb.Seed {
				continue
			}
			if ra.Digest != rb.Digest {
				diffs = append(diffs, fmt.Sprintf("seed %d: resultset_sha256 differs", ra.Seed))
			}
			if !maps.Equal(ra.Counts, rb.Counts) {
				diffs = append(diffs, fmt.Sprintf("seed %d: deterministic counts differ", ra.Seed))
			}
		}
	}
	return diffs
}
