// Command tracepbench is the repository's benchmark: it measures the
// simulator end to end and layer by layer on four workloads — the paper's
// grid, a seed-replicated scenario sweep, snapshot forks after a long
// warm-up, and the tracepd service — and checks that every output is
// correct while it does.
//
// Usage (from the repository root):
//
//	bash cmd/tracepbench/run.sh [-workload W|all] [-seed N] [-seconds S] [-trace 0|1] [-out FILE]
//	bash cmd/tracepbench/run.sh -compare A.json B.json
//
// Each workload runs in its own child process, so its peak RSS and GC
// state are its own. A child sets up setupIters times (set-up plus one
// cold repetition each; setup_s is the median), then repeats the workload
// until -seconds have passed. The end-to-end metrics are printed as a
// table on stderr and, last on stdout, as one JSON object per workload.
// -trace 1 instead runs a few untraced repetitions and one traced one,
// writes spans (Chrome trace-event JSON) and a CPU profile under
// -tracedir, and prints the per-layer metrics. -out appends every full
// report, with raw samples and provenance, to a JSON file that -compare
// reads. See README.md.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"syscall"
	"time"
)

// childTimeout bounds one workload's child process.
const childTimeout = 170 * time.Second

func main() {
	name := flag.String("workload", "all", "workload to run, or all")
	seed := flag.Int64("seed", 1, "input seed: the same seed gives the same inputs")
	seconds := flag.Int("seconds", 15, "how long the timed repetitions of one workload run")
	trace := flag.Int("trace", 0, "1 runs one traced repetition per workload and prints per-layer metrics")
	traceDir := flag.String("tracedir", "", "where -trace 1 writes spans and CPU profiles (default <workdir>/trace)")
	workDir := flag.String("workdir", os.TempDir(), "scratch directory for service journals")
	out := flag.String("out", "", "append every full report to this JSON file")
	compare := flag.Bool("compare", false, "compare two -out files: -compare A.json B.json")
	benchmark := flag.String("benchmark", "BENCHMARK.json", "the benchmark declaration -compare takes bounds from")
	child := flag.Bool("child", false, "measure one workload in this process (used by the parent)")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatalf("usage: tracepbench -compare A.json B.json")
		}
		os.Exit(runCompare(os.Stdout, *benchmark, flag.Arg(0), flag.Arg(1)))
	}
	if flag.NArg() != 0 {
		fatalf("unexpected arguments %q", flag.Args())
	}
	if *trace != 0 && *trace != 1 {
		fatalf("-trace must be 0 or 1")
	}
	if *seconds < 1 || *seconds > 120 {
		fatalf("-seconds must be between 1 and 120")
	}
	names := []string{*name}
	if *name == "all" {
		names = nil
		for _, w := range workloads {
			names = append(names, w.name)
		}
	}
	for _, n := range names {
		if _, ok := workloadByName(n); !ok {
			fatalf("unknown workload %q", n)
		}
	}
	o := options{seed: *seed, seconds: *seconds, trace: *trace == 1, traceDir: *traceDir, workDir: *workDir}
	if o.traceDir == "" {
		o.traceDir = filepath.Join(o.workDir, "trace")
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *child {
		w, _ := workloadByName(names[0])
		r, err := measure(ctx, w, o)
		if err != nil {
			fatalf("%v", err)
		}
		if err := json.NewEncoder(os.Stdout).Encode(r); err != nil {
			fatalf("%v", err)
		}
		return
	}

	if err := os.MkdirAll(o.workDir, 0o755); err != nil {
		fatalf("%v", err)
	}
	runDir, err := os.MkdirTemp(o.workDir, "run-")
	if err != nil {
		fatalf("%v", err)
	}
	var reports []report
	for _, n := range names {
		r, err := runChild(ctx, n, o, runDir)
		if err != nil {
			os.RemoveAll(runDir)
			fatalf("%s: %v", n, err)
		}
		r.writeTable(os.Stderr)
		reports = append(reports, *r)
	}
	if err := os.RemoveAll(runDir); err != nil {
		fmt.Fprintln(os.Stderr, "tracepbench:", err)
	}
	if *out != "" {
		if err := appendReports(*out, reports); err != nil {
			fatalf("%v", err)
		}
	}
	for _, r := range reports {
		line, err := json.Marshal(r.summary())
		if err != nil {
			fatalf("%v", err)
		}
		fmt.Println(string(line))
	}
}

// runChild measures one workload in a child process of this binary, with a
// private scratch directory under runDir.
func runChild(ctx context.Context, name string, o options, runDir string) (*report, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(runDir, name+"-")
	if err != nil {
		return nil, err
	}
	traceFlag := "0"
	if o.trace {
		traceFlag = "1"
	}
	ctx, cancel := context.WithTimeout(ctx, childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, "-child",
		"-workload", name,
		"-seed", strconv.FormatInt(o.seed, 10),
		"-seconds", strconv.Itoa(o.seconds),
		"-trace", traceFlag,
		"-tracedir", o.traceDir,
		"-workdir", dir)
	cmd.Stderr = os.Stderr
	cmd.WaitDelay = 5 * time.Second
	stdout, err := cmd.Output()
	if err != nil {
		if ctx.Err() != nil {
			return nil, fmt.Errorf("child: %w", errors.Join(err, ctx.Err()))
		}
		return nil, fmt.Errorf("child: %w", err)
	}
	var r report
	if err := json.Unmarshal(stdout, &r); err != nil {
		return nil, fmt.Errorf("child report: %w", err)
	}
	return &r, nil
}

// appendReports adds reports to the JSON array in path, creating it.
func appendReports(path string, reports []report) error {
	var all []report
	if _, err := os.Stat(path); err == nil {
		prev, err := readReports(path)
		if err != nil {
			return err
		}
		all = prev
	}
	all = append(all, reports...)
	data, err := json.MarshalIndent(all, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "tracepbench: "+format+"\n", args...)
	os.Exit(1)
}
