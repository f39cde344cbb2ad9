package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metricDef names one emitted metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd lists the metrics a user of the simulator sees, measured with
// tracing off. Every workload emits every one of them; BENCHMARK.json
// declares the same names with a direction and a regression bound.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"sim_minsts_per_s", "M/s"},
	{"live_heap_mb", "MB"},
	{"first_result_s", "s"},
	{"op_p50_ms", "ms"},
	{"op_p90_ms", "ms"},
}

// perLayer lists the metrics of single layers, emitted by a traced run.
// Layers are named after the repository's packages.
var perLayer = []metricDef{
	// internal/proc cycle loop.
	{"proc.run_ms", "ms"},
	{"proc.ns_per_cycle", "ns"},
	{"proc.ns_per_inst", "ns"},
	{"step.deliverEvents_pct", "%"},
	{"step.processMispredictions_pct", "%"},
	{"step.issueAll_pct", "%"},
	{"step.grantResultBuses_pct", "%"},
	{"step.frontendStep_pct", "%"},
	{"step.retireStep_pct", "%"},
	{"step.collectGarbage_pct", "%"},
	// internal/proc modelled counts, summed over cells.
	{"proc.cycles", "count"},
	{"proc.retired_insts", "count"},
	{"proc.squashed_insts", "count"},
	{"proc.useful_frac", "ratio"},
	{"proc.recoveries_fgci", "count"},
	{"proc.recoveries_cgci", "count"},
	{"proc.recoveries_base", "count"},
	{"proc.reissues", "count"},
	{"proc.tc_misses", "count"},
	{"proc.ic_misses", "count"},
	{"proc.dc_misses", "count"},
	// internal/proc construction.
	{"proc.new_ms", "ms"},
	{"proc.restore_ms", "ms"},
	{"proc.construct_us_per_cell", "us"},
	// Go runtime.
	{"runtime.peak_rss_mb", "MB"},
	{"gc.alloc_mb", "MB"},
	{"gc.alloc_kb_per_cell", "KB"},
	{"gc.cycles", "count"},
	{"gc.cpu_frac", "ratio"},
	{"runtime.mallocgc_pct", "%"},
	// internal/proc snapshot.
	{"snapshot.capture_ms", "ms"},
	{"snapshot.captures", "count"},
	{"snapshot.capture_minsts_per_s", "M/s"},
	// internal/bench.
	{"bench.build_ms", "ms"},
	{"bench.builds", "count"},
	// tracep Sweep and ResultSet.
	{"sweep.cell_wait_ms_p50", "ms"},
	{"sweep.worker_busy_frac", "ratio"},
	{"sweep.resultset_encode_ms", "ms"},
	// server and client.
	{"server.post_sweeps_ms_p50", "ms"},
	{"server.stream_ms_p50", "ms"},
	{"server.get_sweep_ms_p50", "ms"},
	{"client.overhead_ms_p50", "ms"},
	{"client.write_p50_ms", "ms"},
	{"client.write_p90_ms", "ms"},
	{"client.read_p50_ms", "ms"},
	{"client.read_p90_ms", "ms"},
	{"server.cells_completed", "count"},
	{"server.cells_failed", "count"},
	// server/store.
	{"store.append_us_p50", "us"},
	{"store.append_us_p90", "us"},
	{"store.journal_kb", "KB"},
	// The tracer itself.
	{"trace.overhead_frac", "ratio"},
}

// metric is one reported value. Samples holds the per-rep values it
// summarises (for a pooled percentile, each rep's own percentile), which
// -compare uses to judge run-to-run spread.
type metric struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	Samples []float64 `json:"samples,omitempty"`
}

// provenance records where and how a report was measured.
type provenance struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GitHead    string `json:"git_head,omitempty"`
	// Slots is the number of simulation slots the workload uses (the
	// Sweep's Parallelism and its Gate). Undersubscribed marks a run whose
	// slots exceed GOMAXPROCS, so parallel speed was never measured.
	Slots           int  `json:"slots"`
	Undersubscribed bool `json:"undersubscribed"`
}

// report is one workload run: the full record a child process hands its
// parent, written by -out and read by -compare.
type report struct {
	Workload   string     `json:"workload"`
	Seed       int64      `json:"seed"`
	Seconds    int        `json:"seconds"`
	Traced     bool       `json:"traced"`
	Reps       int        `json:"reps"`
	Provenance provenance `json:"provenance"`

	Correct   bool     `json:"correct"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"`
	// Digest is the SHA-256 of the workload's canonical output: its
	// ResultSet JSON (for service, every reference ResultSet in shape order).
	Digest string `json:"resultset_sha256"`

	Metrics map[string]metric `json:"metrics"`
	Layers  map[string]metric `json:"layers,omitempty"`
	// Counts are deterministic for a given seed: a change that only speeds
	// up the simulator must leave them identical.
	Counts map[string]uint64 `json:"counts"`
	Notes  []string          `json:"notes,omitempty"`
}

// fail counts n failed operations and records why.
func (r *report) fail(n int, format string, args ...any) {
	r.Failed += n
	r.addFailure(fmt.Sprintf(format, args...))
}

// addFailure keeps the first few failure messages.
func (r *report) addFailure(msg string) {
	if len(r.Failures) < 20 {
		r.Failures = append(r.Failures, msg)
	}
}

// summary is the one-line result the benchmark prints last on stdout: the
// end-to-end metrics of an untraced run, or the per-layer metrics of a
// traced one.
type summary struct {
	Correct   bool                      `json:"correct"`
	Attempted int                       `json:"attempted"`
	Failed    int                       `json:"failed"`
	Metrics   map[string]map[string]any `json:"metrics"`
}

func (r *report) summary() summary {
	src := r.Metrics
	if r.Traced {
		src = r.Layers
	}
	out := summary{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed,
		Metrics: make(map[string]map[string]any, len(src))}
	for _, name := range sortedNames(src) {
		m := src[name]
		out.Metrics[name] = map[string]any{"value": m.Value, "unit": m.Unit}
	}
	return out
}

// sortedNames returns a map's keys in sorted order.
func sortedNames[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for k := range m { //tracep:orderinvariant sorted below
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// writeTable prints a report's metrics as an aligned table.
func (r *report) writeTable(w io.Writer) {
	p := r.Provenance
	fmt.Fprintf(w, "# %s seed=%d reps=%d traced=%v correct=%v ops=%d failed=%d\n",
		r.Workload, r.Seed, r.Reps, r.Traced, r.Correct, r.Attempted, r.Failed)
	fmt.Fprintf(w, "# host: %s, %d CPUs, GOMAXPROCS=%d, %s %s/%s, slots=%d undersubscribed=%v, git=%s\n",
		p.CPU, p.NumCPU, p.GOMAXPROCS, p.GoVersion, p.GOOS, p.GOARCH, p.Slots, p.Undersubscribed, orNone(p.GitHead))
	fmt.Fprintf(w, "# resultset_sha256 %s\n", r.Digest)
	for _, set := range []map[string]metric{r.Metrics, r.Layers} {
		for _, name := range sortedNames(set) {
			m := set[name]
			fmt.Fprintf(w, "%-34s %14.4f %s\n", name, m.Value, m.Unit)
		}
	}
	for _, f := range r.Failures {
		fmt.Fprintf(w, "FAIL: %s\n", f)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
}

func orNone(s string) string {
	if s == "" {
		return "n/a"
	}
	return s
}

// hostProvenance describes the host and the build.
func hostProvenance() provenance {
	p := provenance{
		CPU:        cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GitHead:    gitHead(),
		Slots:      slots,
	}
	p.Undersubscribed = slots > p.GOMAXPROCS
	return p
}

// cpuModel reads the CPU model name from /proc/cpuinfo ("unknown" where
// that file does not exist).
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitHead returns the checked-out commit, or "" outside a git work tree.
func gitHead() string {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	out, err := exec.CommandContext(ctx, "git", "rev-parse", "HEAD").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}

// readReports loads a -out file: a JSON array of reports.
func readReports(path string) ([]report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rs []report
	if err := json.Unmarshal(data, &rs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rs, nil
}
