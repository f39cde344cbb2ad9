// Command experiments regenerates every table and figure of the paper's
// evaluation section (§6): Table 3 (IPC without control independence),
// Table 4 (trace selection impact), Table 5 (conditional branch statistics),
// Figure 9 (selection-only IPC deltas) and Figure 10 (control independence
// performance), plus the configuration and benchmark tables (1-2).
//
// The (benchmark × model × seed) grid runs through tracep.Sweep on a
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
//	experiments -cells                 # each cell's statistics block
//	experiments -n 1000000             # larger runs
//	experiments -warmup 100000         # measure after a functional warm-up; one
//	                                   # snapshot per benchmark, shared by all models
//	experiments -j 4                   # four simulations in flight
//	experiments -bench compress,vortex # benchmark subset
//	experiments -models base,FG        # explicit model columns
//	experiments -scenarios mixed,ptr-chase -scenario-seeds 1,2
//	                                   # scenario family instances as rows
//	experiments -corpus traces/        # sweep the directory's .tptrace
//	                                   # recordings instead of (or, with
//	                                   # -bench, alongside) the generated suite
//	experiments -seeds 1,2,3           # three replicates per cell; tables
//	                                   # report mean±95% CI error bars
//	experiments -spec grid.json        # the grid from a GridSpec file
//	experiments -json > rs.json        # machine-readable ResultSet
//	experiments -results rs.json       # re-render tables from saved JSON (no simulation)
//	experiments -results rs.json -baseline old.json -tolerances ipc=2
//	                                   # regression gate: exit 2 on >2% IPC drop
//	experiments -server http://localhost:8089
//	                                   # run the sweep on a remote tracepd, stream
//	                                   # cells back, render the same tables
//
// The flags and -spec describe one server.SweepRequest, the same grid
// tracepd accepts, and server.Resolve turns it into rows and models in both
// modes. The rows are the -scenarios instances (named family-seed, which
// tracep.BenchmarkByName resolves), then the -bench workloads, then the
// -corpus recordings. The full eight-workload suite is the default only
// when none of the three is given. The model columns are -models, or by
// default the models the requested tables and figures need (all eight for
// -json or -cells alone). A -spec file is the JSON form of the grid flags
// (see GridSpec); a field it sets overrides its flag, and a field it leaves
// out keeps the flag's value:
//
//	{
//	  "scenarios": ["ptr-chase", "mixed"],
//	  "scenario_seeds": [1, 2],
//	  "benchmarks": ["compress"],
//	  "models": ["base", "base(ntb)"],
//	  "seeds": [1, 2, 3],
//	  "target_insts": 200000
//	}
//
// With -server the request is submitted to a tracepd instance (see
// cmd/tracepd), which resolves it, and cells stream back over NDJSON as
// they complete; the collected ResultSet is byte-identical to a local run,
// scenario rows included, so -json, -baseline and the tables behave the
// same either way. -j then has no effect — the server's own pool bounds
// parallelism. Ctrl-C cancels the remote sweep. Combining -server with
// -corpus submits the recordings by name (SweepRequest.Corpus): the server
// resolves them against its own corpus directory (tracepd -corpus), so it
// must hold recordings with the same names — GET /v1/corpus lists what it
// serves.
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
// Exit codes: 0 success, 1 simulation, grid or spec failure, 2 regression
// against -baseline or a bad flag, 130 interrupted.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"

	"tracep"
	"tracep/client"
	"tracep/internal/report"
	"tracep/server"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// GridSpec is the declarative form of the grid flags, read by -spec: which
// workloads (scenario family instances, suite benchmarks), which models,
// which predictor seeds replicate each cell, and the run size. It becomes a
// server.SweepRequest (request), which is what both modes run.
type GridSpec struct {
	// Scenarios names workload families from tracep.Scenarios(); each is
	// instantiated once per ScenarioSeeds entry as a row named family-seed.
	// An unknown family fails as an unknown row name.
	Scenarios []string `json:"scenarios,omitempty"`
	// ScenarioSeeds are the generator seeds of the scenario rows; empty =
	// {1}.
	ScenarioSeeds []int64 `json:"scenario_seeds,omitempty"`
	// Benchmarks names suite workloads or scenario instances
	// (tracep.BenchmarkByName), appended after the scenario rows; empty =
	// all eight, unless scenario or corpus rows fill the grid.
	Benchmarks []string `json:"benchmarks,omitempty"`
	// Models names the model columns (tracep.ModelByName); empty = the
	// models the requested displays need.
	Models []string `json:"models,omitempty"`
	// Seeds is the predictor-seed replicate axis (tracep.Sweep.Seeds).
	Seeds []int64 `json:"seeds,omitempty"`
	// TargetInsts sizes each run.
	TargetInsts uint64 `json:"target_insts,omitempty"`
	// Warmup fast-forwards each row before measuring (tracep.Sweep.Warmup).
	Warmup uint64 `json:"warmup,omitempty"`

	// corpusDir (-corpus) and warmupFor (-warmup-for) come from flags only.
	corpusDir string
	warmupFor map[string]uint64
}

// options is the parsed command line: the grid plus what to do with it.
type options struct {
	grid          GridSpec
	table, figure int
	cells         bool
	jsonOut       bool
	progress      bool
	j             int
	resultsFile   string
	baselineFile  string
	tol           tracep.Tolerances
	serverURL     string
}

// parseArgs parses the command line into options. Grid flags fill the
// GridSpec first; a -spec file then overrides the fields it sets. A bad
// flag exits 2 and -h exits 0, as with the flag package's default set.
func parseArgs(args []string, stderr io.Writer) (*options, error) {
	fs := flag.NewFlagSet("experiments", flag.ExitOnError)
	fs.SetOutput(stderr)
	var o options
	fs.IntVar(&o.table, "table", 0, "regenerate a single table (1-5); 0 = all")
	fs.IntVar(&o.figure, "figure", 0, "regenerate a single figure (9 or 10); 0 = all")
	fs.BoolVar(&o.cells, "cells", false,
		"print each cell's statistics block (summary, recoveries, reissues, branch classes); like -table N, it selects this display alone")
	fs.Uint64Var(&o.grid.TargetInsts, "n", 300_000, "target dynamic instruction count per run")
	fs.Uint64Var(&o.grid.Warmup, "warmup", 0,
		"fast-forward this many instructions functionally before measuring; one warm-up snapshot per benchmark is shared across all model cells")
	warmupFor := fs.String("warmup-for", "",
		"per-benchmark warm-up overrides as name=insts[,name=insts...] (e.g. gcc=200000,compress=50000); unlisted benchmarks use -warmup")
	fs.IntVar(&o.j, "j", 0, "simulations to run in parallel (0 = GOMAXPROCS)")
	benchList := fs.String("bench", "", "comma-separated benchmark subset (default: all eight, unless -scenarios or -corpus supplies the rows)")
	fs.StringVar(&o.grid.corpusDir, "corpus", "", "directory of .tptrace recordings to sweep; replaces the suite unless -bench also selects workloads")
	scenarios := fs.String("scenarios", "",
		"comma-separated scenario families (see tracep.Scenarios) whose instances lead the rows; replaces the suite unless -bench also selects workloads")
	scenarioSeeds := fs.String("scenario-seeds", "", "comma-separated generator seeds instantiating each -scenarios family (default 1)")
	modelList := fs.String("models", "", "comma-separated model columns (default: the models the requested tables and figures need)")
	seedsList := fs.String("seeds", "",
		"comma-separated predictor seeds (e.g. 1,2,3); each (benchmark, model) cell runs once per seed and tables report mean±95% CI")
	specFile := fs.String("spec", "", "JSON GridSpec file; fields it sets override the grid flags")
	fs.BoolVar(&o.jsonOut, "json", false, "emit the ResultSet as JSON instead of formatted tables")
	fs.BoolVar(&o.progress, "progress", false, "log each run's completion or failure to stderr")
	fs.StringVar(&o.resultsFile, "results", "", "load the ResultSet from this saved JSON file instead of simulating")
	fs.StringVar(&o.baselineFile, "baseline", "", "diff results against this saved ResultSet JSON; exit 2 on regression")
	tolSpec := fs.String("tolerances", "ipc=2",
		`-baseline gate tolerances as k=v pairs ("ipc=2,miss=0.5,allow-missing") or JSON ({"ipc_pct":2}); unset keys are 0`)
	fs.StringVar(&o.serverURL, "server", "", "run the sweep on this tracepd instance (e.g. http://localhost:8089) instead of in-process")
	fs.Parse(args) // ExitOnError: never returns an error

	var err error
	if o.tol, err = tracep.ParseTolerances(*tolSpec); err != nil {
		return nil, fmt.Errorf("-tolerances: %w", err)
	}
	if o.grid.warmupFor, err = parseWarmupFor(*warmupFor); err != nil {
		return nil, err
	}
	if o.grid.ScenarioSeeds, err = parseSeeds("-scenario-seeds", *scenarioSeeds); err != nil {
		return nil, err
	}
	if o.grid.Seeds, err = parseSeeds("-seeds", *seedsList); err != nil {
		return nil, err
	}
	o.grid.Scenarios = splitList(*scenarios)
	o.grid.Benchmarks = splitList(*benchList)
	o.grid.Models = splitList(*modelList)
	if *specFile != "" {
		data, err := os.ReadFile(*specFile)
		if err != nil {
			return nil, err
		}
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&o.grid); err != nil {
			return nil, fmt.Errorf("%s: %w", *specFile, err)
		}
	}
	return &o, nil
}

// run is the whole command: it sweeps (or replays) the grid args describe,
// renders the requested displays to stdout and returns the exit code.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fail := func(err error) int {
		fmt.Fprintln(stderr, err)
		return 1
	}
	o, err := parseArgs(args, stderr)
	if err != nil {
		return fail(err)
	}
	g := &o.grid

	var rs *tracep.ResultSet
	var sw tracep.Sweep
	var req server.SweepRequest
	if o.resultsFile != "" {
		// Replay mode: render (and gate) a saved ResultSet with zero
		// simulation.
		if rs, err = loadResultSet(o.resultsFile); err != nil {
			return fail(err)
		}
	} else {
		var corpus []tracep.Benchmark
		if req, corpus, err = g.request(o.displayModels()); err != nil {
			return fail(err)
		}
		if o.serverURL == "" {
			// In process, the request resolves here exactly as tracepd
			// resolves it; -server leaves that to the server.
			rows, models, err := server.Resolve(req, corpus)
			if err != nil {
				return fail(err)
			}
			sw = tracep.Sweep{
				Benchmarks:  rows,
				Models:      models,
				TargetInsts: req.TargetInsts,
				Warmup:      req.Warmup,
				WarmupFor:   req.WarmupFor,
				Seeds:       req.Seeds,
				Parallelism: o.j,
			}
		}
	}

	if !o.jsonOut {
		if o.wantTable(1) {
			printTable1(stdout)
		}
		if o.wantTable(2) {
			printTable2(stdout, g.TargetInsts)
		}
	}

	var progress io.Writer
	if o.progress {
		progress = stderr
	}
	var ctxErr error
	switch {
	case rs != nil:
	case len(req.Models) == 0:
		rs = tracep.NewResultSet() // the requested displays need no cells
	case o.serverURL != "":
		rs, ctxErr = runRemote(ctx, o.serverURL, req, progress)
	default:
		rs, ctxErr = runLocal(ctx, sw, progress)
	}
	if ctxErr != nil && !errors.Is(ctxErr, context.Canceled) {
		// Remote failures other than cancellation leave no partial set
		// worth rendering.
		return fail(ctxErr)
	}

	runErr := rs.Err()
	if runErr != nil {
		fmt.Fprintln(stderr, runErr)
	}
	// Failed cells in a replayed file are historical: they render as "-"
	// and only the -baseline gate decides the exit code.
	if o.resultsFile != "" {
		runErr = nil
	}

	if o.jsonOut {
		// Failed cells serialise alongside successes (Result.Error), so
		// always emit the set before reporting the failure via exit code.
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rs); err != nil {
			return fail(err)
		}
	} else {
		if ctxErr != nil {
			fmt.Fprintf(stderr, "sweep interrupted (%v); tables below are partial\n", ctxErr)
		}
		if o.cells {
			printCells(stdout, rs)
		}
		renderTables(stdout, rs, o)
	}

	regressed := false
	if o.baselineFile != "" {
		baseline, err := loadResultSet(o.baselineFile)
		if err != nil {
			return fail(err)
		}
		diff := rs.Diff(baseline, o.tol)
		// In -json mode stdout stays a clean ResultSet; the diff verdict
		// goes to stderr.
		out := stdout
		if o.jsonOut {
			out = stderr
		}
		diff.WriteText(out)
		regressed = !diff.OK()
	}

	switch {
	case ctxErr != nil:
		if o.jsonOut {
			fmt.Fprintf(stderr, "sweep interrupted (%v); results are partial\n", ctxErr)
		}
		return 130
	case runErr != nil:
		return 1
	case regressed:
		return 2
	}
	return 0
}

// wantTable and wantFigure report whether a display is requested: all of
// them by default, or only those -table, -figure and -cells select.
func (o *options) wantTable(t int) bool {
	return (o.table == 0 && o.figure == 0 && !o.cells) || o.table == t
}

func (o *options) wantFigure(f int) bool {
	return (o.table == 0 && o.figure == 0 && !o.cells) || o.figure == f
}

// displayModels returns the models the requested tables and figures need;
// -json or -cells with no table or figure wants all eight.
func (o *options) displayModels() []tracep.Model {
	needSelection := o.wantTable(3) || o.wantTable(4) || o.wantTable(5) || o.wantFigure(9)
	var models []tracep.Model
	if needSelection {
		models = append(models, tracep.SelectionModels()...)
	}
	if o.wantFigure(10) {
		if !needSelection {
			models = append(models, tracep.ModelBase)
		}
		models = append(models, tracep.CIModels()...)
	}
	if (o.jsonOut || o.cells) && len(models) == 0 {
		models = tracep.Models()
	}
	return models
}

// request turns the grid into the one SweepRequest both modes run: the
// -scenarios instances, named family-seed as tracep.BenchmarkByName reads
// them, ahead of the -bench names; the -corpus recordings by name; and
// need's models when -models is empty. It also returns the loaded
// recordings, which an in-process run resolves the request against.
func (g *GridSpec) request(need []tracep.Model) (server.SweepRequest, []tracep.Benchmark, error) {
	req := server.SweepRequest{
		Models:      g.Models,
		TargetInsts: g.TargetInsts,
		Warmup:      g.Warmup,
		WarmupFor:   g.warmupFor,
		Seeds:       g.Seeds,
	}
	if len(req.Models) == 0 {
		req.Models = modelNames(need)
	}
	scSeeds := g.ScenarioSeeds
	if len(scSeeds) == 0 {
		scSeeds = []int64{1}
	}
	for _, family := range g.Scenarios {
		for _, seed := range scSeeds {
			req.Benchmarks = append(req.Benchmarks, fmt.Sprintf("%s-%d", family, seed))
		}
	}
	req.Benchmarks = append(req.Benchmarks, g.Benchmarks...)
	if g.corpusDir == "" {
		return req, nil, nil
	}
	corpus, err := tracep.Corpus(g.corpusDir)
	if err != nil {
		return server.SweepRequest{}, nil, fmt.Errorf("loading -corpus: %w", err)
	}
	for _, bm := range corpus {
		req.Corpus = append(req.Corpus, bm.Name)
	}
	return req, corpus, nil
}

// runLocal runs the sweep in-process and returns the (possibly partial)
// set plus the context error, like Sweep.Run. A non-nil progress writer
// receives one line per cell as it lands (see printProgress).
func runLocal(ctx context.Context, sw tracep.Sweep, progress io.Writer) (*tracep.ResultSet, error) {
	benches := make([]string, len(sw.Benchmarks))
	for i, bm := range sw.Benchmarks {
		benches[i] = bm.Name
	}
	rs := tracep.NewResultSetGrid(benches, modelNames(sw.Models), sw.Seeds)
	for res := range sw.Stream(ctx) {
		if progress != nil {
			printProgress(progress, res)
		}
		rs.Add(res)
	}
	return rs, ctx.Err()
}

// runRemote submits the grid to a tracepd instance and streams the cells
// back; the collected ResultSet is byte-identical to a local run.
func runRemote(ctx context.Context, serverURL string, req server.SweepRequest, progress io.Writer) (*tracep.ResultSet, error) {
	var fn func(*tracep.Result) error
	if progress != nil {
		fn = func(res *tracep.Result) error {
			printProgress(progress, res)
			return nil
		}
	}
	rs, err := client.New(serverURL).Run(ctx, req, fn)
	if rs == nil {
		// Cancelled before anything was collected (e.g. Ctrl-C during
		// submit): hand back an empty partial set, like Sweep.Run.
		rs = tracep.NewResultSet()
	}
	return rs, err
}

// printProgress writes one cell's -progress line: "done" with its size,
// or "fail" with its error. Local and remote runs print the same lines.
func printProgress(w io.Writer, res *tracep.Result) {
	if res.Stats != nil {
		fmt.Fprintf(w, "done %-9s %-13s %d insts in %d cycles\n",
			res.Benchmark, res.Model, res.Stats.RetiredInsts, res.Stats.Cycles)
	} else {
		fmt.Fprintf(w, "fail %-9s %-13s %s\n", res.Benchmark, res.Model, res.Error)
	}
}

// printCells writes each successful cell's statistics block: a summary
// line, then its recovery, reissue and branch-class lines.
func printCells(w io.Writer, rs *tracep.ResultSet) {
	for _, res := range rs.Results() {
		s := res.Stats
		if s == nil {
			continue
		}
		fmt.Fprintf(w, "%-9s %-13s IPC=%.2f insts=%d cycles=%d traceLen=%.1f traceMisp/1k=%.1f tc$miss/1k=%.1f brMisp=%.1f%%\n",
			res.Benchmark, res.Model, s.IPC(), s.RetiredInsts, s.Cycles, s.AvgTraceLen(),
			s.TraceMispPer1000(), s.TCMissPer1000(), 100*s.BranchMispRate())
		fmt.Fprintf(w, "  recoveries=%d (fgci=%d cgci=%d base=%d) reconv=%d degenerate=%d reclaims=%d\n",
			s.Recoveries, s.FGCIRecoveries, s.CGCIRecoveries, s.BaseRecoveries,
			s.Reconvergences, s.CGCIDegenerate, s.TailReclaims)
		fmt.Fprintf(w, "  reissues=%d loadSnoopReissues=%d redispatched=%d rebinds=%d broadcasts=%d tracePreds=%d\n",
			s.Reissues, s.LoadSnoopReissues, s.RedispatchedTraces, s.RedispatchRebinds, s.Broadcasts, s.TPredictions)
		fg := s.FGCISmall()
		fmt.Fprintf(w, "  branches: fgci<=32 %d (misp %.1f%%) fgci>32 %d otherFwd %d (misp %.1f%%) backward %d (misp %.1f%%)\n",
			fg.Dynamic, 100*fg.MispRate(), s.FGCIBig().Dynamic,
			s.OtherForward().Dynamic, 100*s.OtherForward().MispRate(),
			s.Backward().Dynamic, 100*s.Backward().MispRate())
	}
}

func renderTables(w io.Writer, rs *tracep.ResultSet, o *options) {
	selNames := modelNames(tracep.SelectionModels())
	if o.wantTable(3) {
		report.Table3(w, rs, selNames)
		fmt.Fprintln(w)
	}
	if o.wantTable(4) {
		report.Table4(w, rs, selNames)
		fmt.Fprintln(w)
	}
	if o.wantTable(5) {
		report.Table5(w, rs, tracep.ModelBase.Name)
		fmt.Fprintln(w)
	}
	if o.wantFigure(9) {
		report.Figure(w, "FIGURE 9: Performance impact of trace selection (% IPC improvement over base).",
			rs, selNames[1:], tracep.ModelBase.Name)
		fmt.Fprintln(w)
	}
	if o.wantFigure(10) {
		ciNames := modelNames(tracep.CIModels())
		report.Figure(w, "FIGURE 10: Performance of control independence (% IPC improvement over base).",
			rs, ciNames, tracep.ModelBase.Name)
		fmt.Fprintln(w)
		report.BestPerBenchmark(w, rs, ciNames, tracep.ModelBase.Name)
		fmt.Fprintln(w)
	}
}

// parseSeeds parses a comma-separated integer seed list for the named
// flag; empty means the flag's default.
func parseSeeds(flagName, spec string) ([]int64, error) {
	var out []int64
	for _, part := range splitList(spec) {
		s, err := strconv.ParseInt(part, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("%s: bad seed %q: %v", flagName, part, err)
		}
		out = append(out, s)
	}
	return out, nil
}

// parseWarmupFor parses -warmup-for's name=insts[,name=insts...] syntax.
// server.Resolve checks the names against the grid's rows.
func parseWarmupFor(spec string) (map[string]uint64, error) {
	if spec == "" {
		return nil, nil
	}
	out := make(map[string]uint64)
	for _, pair := range splitList(spec) {
		name, val, ok := strings.Cut(pair, "=")
		if !ok {
			return nil, fmt.Errorf("-warmup-for: %q is not name=insts", pair)
		}
		n, err := strconv.ParseUint(strings.TrimSpace(val), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("-warmup-for: bad instruction count in %q: %v", pair, err)
		}
		out[strings.TrimSpace(name)] = n
	}
	return out, nil
}

// splitList splits a comma-separated flag value into trimmed items; an
// empty value yields none.
func splitList(s string) []string {
	if strings.TrimSpace(s) == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	for i, part := range parts {
		parts[i] = strings.TrimSpace(part)
	}
	return parts
}

func loadResultSet(path string) (*tracep.ResultSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rs tracep.ResultSet
	if err := rs.UnmarshalJSON(data); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rs, nil
}

func modelNames(ms []tracep.Model) []string {
	names := make([]string, len(ms))
	for i, m := range ms {
		names[i] = m.Name
	}
	return names
}

func printTable1(w io.Writer) {
	cfg := tracep.DefaultConfig()
	fmt.Fprintln(w, "TABLE 1: Trace processor configuration.")
	fmt.Fprintf(w, "  frontend latency         2 cycles (fetch + dispatch)\n")
	fmt.Fprintf(w, "  trace predictor (hybrid) %d-entry path-based (8-trace hist.), %d-entry simple (1-trace hist.)\n",
		cfg.TPred.PathEntries, cfg.TPred.SimpleEntries)
	fmt.Fprintf(w, "  trace cache              %d sets x %d ways, %d-instruction lines\n",
		cfg.TCache.Sets, cfg.TCache.Assoc, cfg.MaxTraceLen)
	fmt.Fprintf(w, "  instruction cache        %d insts, %d-way, %d-inst lines, %d-cycle miss\n",
		cfg.ICache.SizeInsts, cfg.ICache.Assoc, cfg.ICache.LineInsts, cfg.ICache.MissPenalty)
	fmt.Fprintf(w, "  branch predictor         %d-entry tagless BTB, 2-bit counters\n", cfg.BPred.Entries)
	fmt.Fprintf(w, "  BIT                      %d-entry, %d-way assoc.\n", cfg.BIT.Entries, cfg.BIT.Assoc)
	fmt.Fprintf(w, "  trace construction b/w   1 port to instr. cache, branch pred., BIT\n")
	fmt.Fprintf(w, "  processing elements      %d PEs, %d-way issue per PE\n", cfg.NumPEs, cfg.PEIssueWidth)
	fmt.Fprintf(w, "  global result buses      %d buses, up to %d per PE, extra %d-cycle bypass latency\n",
		cfg.GlobalBuses, cfg.MaxBusPerPE, cfg.BusLatency)
	fmt.Fprintf(w, "  cache buses              %d buses, up to %d per PE\n", cfg.CacheBuses, cfg.MaxCachePerPE)
	fmt.Fprintf(w, "  data cache               %d words, %d-way, %d-word lines, %d-cycle hit, %d-cycle miss penalty\n",
		cfg.DCache.SizeWords, cfg.DCache.Assoc, cfg.DCache.LineWords, cfg.DCache.HitLatency, cfg.DCache.MissPenalty)
	fmt.Fprintf(w, "  execution latencies      agen 1, memory 2 (hit), int ALU 1, mul 5, div 34 (R10000)\n")
	fmt.Fprintln(w)
}

func printTable2(w io.Writer, n uint64) {
	fmt.Fprintln(w, "TABLE 2: Benchmarks (synthetic SPEC95int analogues; see internal/bench).")
	for _, bm := range tracep.Benchmarks() {
		fmt.Fprintf(w, "  %-10s ~ %-13s scale=%-7d ~%d dynamic instructions\n",
			bm.Name, bm.Analogue, bm.ScaleFor(n), n)
		fmt.Fprintf(w, "             %s\n", bm.Profile)
	}
	fmt.Fprintln(w)
}
