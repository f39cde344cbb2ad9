// Command experiments regenerates every table and figure of the paper's
// evaluation section (§6): Table 3 (IPC without control independence),
// Table 4 (trace selection impact), Table 5 (conditional branch statistics),
// Figure 9 (selection-only IPC deltas) and Figure 10 (control independence
// performance), plus the configuration and benchmark tables (1-2).
//
// The (benchmark × model) cross-product runs through tracep.Sweep on a
// bounded worker pool; -j controls the parallelism and Ctrl-C cancels the
// sweep cleanly mid-run. Each benchmark program is built once and shared
// across all model cells.
//
// A saved -json ResultSet doubles as a replay input and a regression
// baseline: -results renders the paper tables from the file with zero
// simulation, and -baseline diffs the current results (live or replayed)
// against a saved set, exiting non-zero on out-of-tolerance IPC drift —
// the CI regression gate.
//
// Usage:
//
//	experiments                        # everything, default instruction budget
//	experiments -table 5               # one table
//	experiments -figure 10             # one figure
//	experiments -n 1000000             # larger runs
//	experiments -warmup 100000         # measure after a functional warm-up; one
//	                                   # snapshot per benchmark, shared by all models
//	experiments -j 4                   # four simulations in flight
//	experiments -bench compress,vortex # benchmark subset
//	experiments -corpus traces/        # sweep the directory's .tptrace
//	                                   # recordings instead of (or, with
//	                                   # -bench, alongside) the generated suite
//	experiments -seeds 1,2,3           # three replicates per cell; tables
//	                                   # report mean±95% CI error bars
//	experiments -json > rs.json        # machine-readable ResultSet
//	experiments -results rs.json       # re-render tables from saved JSON (no simulation)
//	experiments -results rs.json -baseline old.json -tolerances ipc=2
//	                                   # regression gate: exit 2 on >2% IPC drop
//	experiments -server http://localhost:8089
//	                                   # run the sweep on a remote tracepd, stream
//	                                   # cells back, render the same tables
//
// With -server the grid is submitted to a tracepd instance (see
// cmd/tracepd) and cells stream back over NDJSON as they complete; the
// collected ResultSet is byte-identical to a local run, so -json, -baseline
// and the tables behave the same either way. -j then has no effect — the
// server's own pool bounds parallelism. Ctrl-C cancels the remote sweep.
// Combining -server with -corpus submits the recordings by name
// (SweepRequest.Corpus): the server resolves them against its own corpus
// directory (tracepd -corpus), so it must hold recordings with the same
// names — GET /v1/corpus lists what it serves.
//
// The -baseline gate checks IPC (percent drop), trace mispredictions
// (rise per 1000 insts), recovery counts (percent rise) and I-/D-cache
// miss rates (rise per 1000 insts); -tolerances sets all of them at once
// as k=v pairs ("ipc=2,miss=0.5,allow-missing") or Tolerances JSON. The
// IPC gate defaults to a 2% drop; the count gates default to 0 — any rise
// regresses — because simulations are deterministic. With -seeds
// replicates, the gate is interval-aware: a metric regresses only when
// its mean drifts beyond tolerance AND the two 95% confidence intervals
// are disjoint. Cells whose warm-up differs from the baseline's are
// incomparable and always regress: refresh the baseline (commit label
// [refresh-baseline] triggers the baseline-refresh workflow) or align
// -warmup.
//
// Exit codes: 0 success, 1 simulation failure, 2 regression against
// -baseline, 130 interrupted.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"

	"tracep"
	"tracep/client"
	"tracep/internal/report"
	"tracep/server"
)

func main() {
	table := flag.Int("table", 0, "regenerate a single table (1-5); 0 = all")
	figure := flag.Int("figure", 0, "regenerate a single figure (9 or 10); 0 = all")
	n := flag.Uint64("n", 300_000, "target dynamic instruction count per run")
	warmup := flag.Uint64("warmup", 0,
		"fast-forward this many instructions functionally before measuring; one warm-up snapshot per benchmark is shared across all model cells")
	warmupFor := flag.String("warmup-for", "",
		"per-benchmark warm-up overrides as name=insts[,name=insts...] (e.g. gcc=200000,compress=50000); unlisted benchmarks use -warmup")
	j := flag.Int("j", 0, "simulations to run in parallel (0 = GOMAXPROCS)")
	benchList := flag.String("bench", "", "comma-separated benchmark subset (default: all eight)")
	corpusDir := flag.String("corpus", "", "directory of .tptrace recordings to sweep; replaces the suite unless -bench also selects workloads")
	jsonOut := flag.Bool("json", false, "emit the ResultSet as JSON instead of formatted tables")
	progress := flag.Bool("progress", false, "log per-run completion to stderr")
	resultsFile := flag.String("results", "", "load the ResultSet from this saved JSON file instead of simulating")
	baselineFile := flag.String("baseline", "", "diff results against this saved ResultSet JSON; exit 2 on regression")
	seedsList := flag.String("seeds", "",
		"comma-separated predictor seeds (e.g. 1,2,3); each (benchmark, model) cell runs once per seed and tables report mean±95% CI")
	tolSpec := flag.String("tolerances", "ipc=2",
		`-baseline gate tolerances as k=v pairs ("ipc=2,miss=0.5,allow-missing") or JSON ({"ipc_pct":2}); unset keys are 0`)
	serverURL := flag.String("server", "", "run the sweep on this tracepd instance (e.g. http://localhost:8089) instead of in-process")
	flag.Parse()

	seeds, err := parseSeeds(*seedsList)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	tol, err := tracep.ParseTolerances(*tolSpec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "-tolerances: %v\n", err)
		os.Exit(1)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	wantTable := func(t int) bool { return (*table == 0 && *figure == 0) || *table == t }
	wantFigure := func(f int) bool { return (*table == 0 && *figure == 0) || *figure == f }

	if !*jsonOut {
		if wantTable(1) {
			printTable1()
		}
		if wantTable(2) {
			printTable2(*n)
		}
	}

	var rs *tracep.ResultSet
	var ctxErr error
	if *resultsFile != "" {
		// Replay mode: render (and gate) a saved ResultSet with zero
		// simulation.
		var err error
		rs, err = loadResultSet(*resultsFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	} else {
		warmFor, err := parseWarmupFor(*warmupFor)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		rs, ctxErr = runSweep(ctx, *serverURL, *benchList, *corpusDir, *n, *warmup, warmFor, seeds, *j, *progress, *jsonOut, wantTable, wantFigure)
	}

	runErr := rs.Err()
	if runErr != nil {
		fmt.Fprintln(os.Stderr, runErr)
	}
	// Failed cells in a replayed file are historical: they render as "-"
	// and only the -baseline gate decides the exit code.
	if *resultsFile != "" {
		runErr = nil
	}

	if *jsonOut {
		// Failed cells serialise alongside successes (Result.Error), so
		// always emit the set before reporting the failure via exit code.
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rs); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	} else {
		if ctxErr != nil {
			fmt.Fprintf(os.Stderr, "sweep interrupted (%v); tables below are partial\n", ctxErr)
		}
		renderTables(rs, wantTable, wantFigure)
	}

	regressed := false
	if *baselineFile != "" {
		baseline, err := loadResultSet(*baselineFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		diff := rs.Diff(baseline, tol)
		// In -json mode stdout stays a clean ResultSet; the diff verdict
		// goes to stderr.
		out := os.Stdout
		if *jsonOut {
			out = os.Stderr
		}
		diff.WriteText(out)
		regressed = !diff.OK()
	}

	switch {
	case ctxErr != nil:
		if *jsonOut {
			fmt.Fprintf(os.Stderr, "sweep interrupted (%v); results are partial\n", ctxErr)
		}
		os.Exit(130)
	case runErr != nil:
		os.Exit(1)
	case regressed:
		os.Exit(2)
	}
}

// runSweep executes the live cross-product for the models the requested
// tables/figures need — in-process, or on a remote tracepd when serverURL
// is set — and returns the (possibly partial) set plus the context error,
// mirroring Sweep.Run.
func runSweep(ctx context.Context, serverURL, benchList, corpusDir string, n, warmup uint64, warmupFor map[string]uint64,
	seeds []int64, j int, progress, jsonOut bool, wantTable, wantFigure func(int) bool) (*tracep.ResultSet, error) {
	var suite []tracep.Benchmark
	var err error
	// -corpus without -bench sweeps the recordings alone — mirroring the
	// server's "empty Benchmarks + Corpus = corpus only" request semantics.
	if benchList != "" || corpusDir == "" {
		if suite, err = selectBenchmarks(benchList); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	var corpus []tracep.Benchmark
	if corpusDir != "" {
		if corpus, err = tracep.Corpus(corpusDir); err != nil {
			fmt.Fprintf(os.Stderr, "loading -corpus: %v\n", err)
			os.Exit(1)
		}
	}
	benches := append(append([]tracep.Benchmark(nil), suite...), corpus...)
	// Match the server's contract: an override naming a benchmark outside
	// the requested grid is an error, not a silent no-op. Sorted so the
	// reported name is deterministic when several overrides are bad.
	overrideNames := make([]string, 0, len(warmupFor))
	for name := range warmupFor { //tracep:orderinvariant sorted below
		overrideNames = append(overrideNames, name)
	}
	sort.Strings(overrideNames)
	for _, name := range overrideNames {
		found := false
		for _, bm := range benches {
			if bm.Name == name {
				found = true
				break
			}
		}
		if !found {
			fmt.Fprintf(os.Stderr, "-warmup-for names %q, which is not in the requested grid\n", name)
			os.Exit(1)
		}
	}

	needSelection := wantTable(3) || wantTable(4) || wantTable(5) || wantFigure(9)
	needCI := wantFigure(10)

	var models []tracep.Model
	if needSelection {
		models = append(models, tracep.SelectionModels()...)
	}
	if needCI {
		if !needSelection {
			models = append(models, tracep.ModelBase)
		}
		models = append(models, tracep.CIModels()...)
	}
	if jsonOut && len(models) == 0 {
		// -json with only tables 1/2 requested still emits the sweep the
		// tables/figures would need.
		models = tracep.Models()
	}

	if serverURL != "" {
		return runRemote(ctx, serverURL, suite, benchNames(corpus), models, n, warmup, warmupFor, seeds, progress)
	}

	sw := tracep.Sweep{
		Benchmarks:  benches,
		Models:      models,
		TargetInsts: n,
		Warmup:      warmup,
		WarmupFor:   warmupFor,
		Seeds:       seeds,
		Parallelism: j,
	}
	if progress {
		sw.Progress = func(ev tracep.ProgressEvent) {
			if ev.Done {
				fmt.Fprintf(os.Stderr, "done %-9s %-13s %d insts in %d cycles\n",
					ev.Benchmark, ev.Model, ev.RetiredInsts, ev.Cycle)
			}
		}
	}
	return sw.Run(ctx)
}

// runRemote submits the grid to a tracepd instance and streams the cells
// back; the collected ResultSet is byte-identical to a local run. Corpus
// workloads travel by name only — the server replays its own recordings.
// Remote failures other than cancellation are fatal (exit 1) — there is no
// partial set worth rendering when the server is unreachable.
func runRemote(ctx context.Context, serverURL string, benches []tracep.Benchmark, corpus []string,
	models []tracep.Model, n, warmup uint64, warmupFor map[string]uint64, seeds []int64, progress bool) (*tracep.ResultSet, error) {
	if (len(benches) == 0 && len(corpus) == 0) || len(models) == 0 {
		return tracep.NewResultSet(), nil
	}
	req := server.SweepRequest{
		Benchmarks:  benchNames(benches),
		Corpus:      corpus,
		Models:      modelNames(models),
		TargetInsts: n,
		Warmup:      warmup,
		WarmupFor:   warmupFor,
		Seeds:       seeds,
	}
	var fn func(*tracep.Result) error
	if progress {
		fn = func(res *tracep.Result) error {
			if res.Stats != nil {
				fmt.Fprintf(os.Stderr, "done %-9s %-13s %d insts in %d cycles\n",
					res.Benchmark, res.Model, res.Stats.RetiredInsts, res.Stats.Cycles)
			} else {
				fmt.Fprintf(os.Stderr, "fail %-9s %-13s %s\n", res.Benchmark, res.Model, res.Error)
			}
			return nil
		}
	}
	rs, err := client.New(serverURL).Run(ctx, req, fn)
	if err != nil && !errors.Is(err, context.Canceled) {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if rs == nil {
		// Cancelled before anything was collected (e.g. Ctrl-C during
		// submit): hand back an empty partial set, like Sweep.Run.
		rs = tracep.NewResultSet()
	}
	return rs, err
}

func renderTables(rs *tracep.ResultSet, wantTable, wantFigure func(int) bool) {
	selNames := modelNames(tracep.SelectionModels())
	if wantTable(3) {
		report.Table3(os.Stdout, rs, selNames)
		fmt.Println()
	}
	if wantTable(4) {
		report.Table4(os.Stdout, rs, selNames)
		fmt.Println()
	}
	if wantTable(5) {
		report.Table5(os.Stdout, rs, tracep.ModelBase.Name)
		fmt.Println()
	}
	if wantFigure(9) {
		report.Figure(os.Stdout, "FIGURE 9: Performance impact of trace selection (% IPC improvement over base).",
			rs, selNames[1:], tracep.ModelBase.Name)
		fmt.Println()
	}
	if wantFigure(10) {
		ciNames := modelNames(tracep.CIModels())
		report.Figure(os.Stdout, "FIGURE 10: Performance of control independence (% IPC improvement over base).",
			rs, ciNames, tracep.ModelBase.Name)
		fmt.Println()
		report.BestPerBenchmark(os.Stdout, rs, ciNames, tracep.ModelBase.Name)
		fmt.Println()
	}
}

// parseSeeds parses -seeds' comma-separated integer list; empty means the
// single-replicate default.
func parseSeeds(spec string) ([]int64, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, nil
	}
	var out []int64
	for _, part := range strings.Split(spec, ",") {
		s, err := strconv.ParseInt(strings.TrimSpace(part), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("-seeds: bad seed %q: %v", part, err)
		}
		out = append(out, s)
	}
	return out, nil
}

// parseWarmupFor parses -warmup-for's name=insts[,name=insts...] syntax,
// validating names against the suite.
func parseWarmupFor(spec string) (map[string]uint64, error) {
	if spec == "" {
		return nil, nil
	}
	out := make(map[string]uint64)
	for _, pair := range strings.Split(spec, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(pair), "=")
		if !ok {
			return nil, fmt.Errorf("-warmup-for: %q is not name=insts", pair)
		}
		name = strings.TrimSpace(name)
		if _, err := tracep.BenchmarkByName(name); err != nil {
			return nil, fmt.Errorf("-warmup-for: %w", err)
		}
		n, err := strconv.ParseUint(strings.TrimSpace(val), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("-warmup-for: bad instruction count in %q: %v", pair, err)
		}
		out[name] = n
	}
	return out, nil
}

func selectBenchmarks(list string) ([]tracep.Benchmark, error) {
	if list == "" {
		return tracep.Benchmarks(), nil
	}
	var out []tracep.Benchmark
	for _, name := range strings.Split(list, ",") {
		bm, err := tracep.BenchmarkByName(strings.TrimSpace(name))
		if err != nil {
			return nil, err
		}
		out = append(out, bm)
	}
	return out, nil
}

func loadResultSet(path string) (*tracep.ResultSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rs tracep.ResultSet
	if err := json.Unmarshal(data, &rs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rs, nil
}

func benchNames(bms []tracep.Benchmark) []string {
	names := make([]string, len(bms))
	for i, bm := range bms {
		names[i] = bm.Name
	}
	return names
}

func modelNames(ms []tracep.Model) []string {
	names := make([]string, len(ms))
	for i, m := range ms {
		names[i] = m.Name
	}
	return names
}

func printTable1() {
	cfg := tracep.DefaultConfig()
	fmt.Println("TABLE 1: Trace processor configuration.")
	fmt.Printf("  frontend latency         2 cycles (fetch + dispatch)\n")
	fmt.Printf("  trace predictor (hybrid) %d-entry path-based (8-trace hist.), %d-entry simple (1-trace hist.)\n",
		cfg.TPred.PathEntries, cfg.TPred.SimpleEntries)
	fmt.Printf("  trace cache              %d sets x %d ways, %d-instruction lines\n",
		cfg.TCache.Sets, cfg.TCache.Assoc, cfg.MaxTraceLen)
	fmt.Printf("  instruction cache        %d insts, %d-way, %d-inst lines, %d-cycle miss\n",
		cfg.ICache.SizeInsts, cfg.ICache.Assoc, cfg.ICache.LineInsts, cfg.ICache.MissPenalty)
	fmt.Printf("  branch predictor         %d-entry tagless BTB, 2-bit counters\n", cfg.BPred.Entries)
	fmt.Printf("  BIT                      %d-entry, %d-way assoc.\n", cfg.BIT.Entries, cfg.BIT.Assoc)
	fmt.Printf("  trace construction b/w   1 port to instr. cache, branch pred., BIT\n")
	fmt.Printf("  processing elements      %d PEs, %d-way issue per PE\n", cfg.NumPEs, cfg.PEIssueWidth)
	fmt.Printf("  global result buses      %d buses, up to %d per PE, extra %d-cycle bypass latency\n",
		cfg.GlobalBuses, cfg.MaxBusPerPE, cfg.BusLatency)
	fmt.Printf("  cache buses              %d buses, up to %d per PE\n", cfg.CacheBuses, cfg.MaxCachePerPE)
	fmt.Printf("  data cache               %d words, %d-way, %d-word lines, %d-cycle hit, %d-cycle miss penalty\n",
		cfg.DCache.SizeWords, cfg.DCache.Assoc, cfg.DCache.LineWords, cfg.DCache.HitLatency, cfg.DCache.MissPenalty)
	fmt.Printf("  execution latencies      agen 1, memory 2 (hit), int ALU 1, mul 5, div 34 (R10000)\n")
	fmt.Println()
}

func printTable2(n uint64) {
	fmt.Println("TABLE 2: Benchmarks (synthetic SPEC95int analogues; see DESIGN.md).")
	for _, bm := range tracep.Benchmarks() {
		fmt.Printf("  %-10s ~ %-13s scale=%-7d ~%d dynamic instructions\n",
			bm.Name, bm.Analogue, bm.ScaleFor(n), n)
		fmt.Printf("             %s\n", bm.Profile)
	}
	fmt.Println()
}
