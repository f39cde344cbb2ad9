package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"tracep"
	"tracep/server/store"
)

const (
	// setupIters is how many times an untraced run sets up from scratch;
	// setup_s is the median.
	setupIters = 3
	// minReps and maxReps bound the timed repetitions of an untraced run,
	// which otherwise repeat until -seconds have passed.
	minReps = 3
	maxReps = 50
	// tracedBaseReps is how many untraced repetitions a traced run times
	// before its traced one, for the overhead and the runtime metrics.
	tracedBaseReps = 2
	// appendProbes is how many direct Store.Append calls a traced run times.
	appendProbes = 200
)

// digests holds each workload's canonical-output digest at seed 1.
//
//go:embed testdata/digests.json
var digestsJSON []byte

// options are the settings of one workload run.
type options struct {
	seed     int64
	seconds  int
	trace    bool
	traceDir string
	workDir  string
}

// repSamples accumulates per-repetition measurements.
type repSamples struct {
	wall, cpu, rate, first []float64
	p50, p90               []float64
	lat, writes, reads     []float64
	allocMB, gcCycles      []float64
	live                   []float64
	gcFrac                 []float64
}

// measure runs one workload in this process: set-up and a cold repetition
// setupIters times, then timed repetitions (or, traced, a few untraced ones
// and one traced one).
func measure(ctx context.Context, w workload, o options) (*report, error) {
	r := &report{
		Workload: w.name, Seed: o.seed, Seconds: o.seconds, Traced: o.trace,
		Provenance: hostProvenance(),
		Metrics:    map[string]metric{},
	}
	iters := setupIters
	if o.trace {
		iters = 1
	}
	var h harness
	var setupS []float64
	var canon []byte
	for i := 0; i < iters; i++ {
		if h != nil {
			h.close()
		}
		t0 := time.Now()
		var err error
		h, err = w.setup(ctx, o.seed, o.workDir)
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		c := r.check(h.rep(ctx), fmt.Sprintf("set-up %d", i+1))
		setupS = append(setupS, time.Since(t0).Seconds())
		if canon != nil && !bytes.Equal(c, canon) {
			r.fail(1, "set-up %d output differs from set-up 1", i+1)
		}
		canon = c
	}
	defer h.close()
	sum := sha256.Sum256(canon)
	r.Digest = hex.EncodeToString(sum[:])
	r.checkDigest()

	var s repSamples
	start := time.Now()
	for i := 0; ; i++ {
		if o.trace && i == tracedBaseReps ||
			!o.trace && (i == maxReps || i >= minReps && time.Since(start) >= time.Duration(o.seconds)*time.Second) {
			break
		}
		runtime.GC()
		m0 := readRuntime()
		cpu0 := cpuSeconds()
		t0 := time.Now()
		out := h.rep(ctx)
		wall := time.Since(t0).Seconds()
		cpu := cpuSeconds() - cpu0
		m1 := readRuntime()
		// The repetition's results are still reachable here (check reads
		// them below), so a collection now leaves the memory they hold.
		runtime.GC()
		s.live = append(s.live, readRuntime().liveBytes/(1<<20))
		r.check(out, fmt.Sprintf("rep %d", i+1))
		r.Reps++
		s.wall = append(s.wall, wall)
		s.cpu = append(s.cpu, cpu)
		s.rate = append(s.rate, float64(out.insts)/wall/1e6)
		s.first = append(s.first, out.first)
		s.p50 = append(s.p50, percentile(out.lat, 50))
		s.p90 = append(s.p90, percentile(out.lat, 90))
		s.lat = append(s.lat, out.lat...)
		s.writes = append(s.writes, out.writes...)
		s.reads = append(s.reads, out.reads...)
		s.allocMB = append(s.allocMB, (m1.allocBytes-m0.allocBytes)/(1<<20))
		s.gcCycles = append(s.gcCycles, m1.gcCycles-m0.gcCycles)
		if cpu > 0 {
			s.gcFrac = append(s.gcFrac, (m1.gcCPU-m0.gcCPU)/cpu)
		}
	}

	put := func(name, unit string, value float64, samples []float64) {
		r.Metrics[name] = metric{Value: value, Unit: unit, Samples: samples}
	}
	put("setup_s", "s", median(setupS), setupS)
	put("wall_s", "s", median(s.wall), s.wall)
	put("cpu_s", "s", median(s.cpu), s.cpu)
	put("sim_minsts_per_s", "M/s", median(s.rate), s.rate)
	put("live_heap_mb", "MB", median(s.live), s.live)
	put("first_result_s", "s", median(s.first), s.first)
	put("op_p50_ms", "ms", percentile(s.lat, 50), s.p50)
	put("op_p90_ms", "ms", percentile(s.lat, 90), s.p90)
	if !tailResolved(len(s.lat), 90) {
		r.Notes = append(r.Notes, fmt.Sprintf("op_p90_ms has fewer than 10 of %d samples beyond it", len(s.lat)))
	}
	r.Notes = append(r.Notes, fmt.Sprintf("%d timed repetitions, %d operations pooled for latency percentiles", r.Reps, len(s.lat)))

	if o.trace {
		if err := r.traceLayers(ctx, h, o, &s); err != nil {
			return nil, err
		}
	}
	r.Counts = h.counts()
	r.Correct = r.Failed == 0
	return r, nil
}

// check verifies a repetition's output, counting its operations and
// failures, and returns its canonical bytes.
func (r *report) check(out repOut, what string) []byte {
	r.Attempted += out.attempted
	canon, failed, why := out.verify()
	r.Failed += failed
	for _, w := range why {
		r.addFailure(what + ": " + w)
	}
	return canon
}

// checkDigest compares the run's digest with the committed one at seed 1.
// A deliberate model change updates testdata/digests.json with the
// digest the run prints.
func (r *report) checkDigest() {
	if r.Seed != 1 {
		return
	}
	var want map[string]string
	if err := json.Unmarshal(digestsJSON, &want); err != nil {
		r.fail(1, "testdata/digests.json: %v", err)
		return
	}
	switch d, ok := want[r.Workload]; {
	case !ok:
		r.Notes = append(r.Notes, "no committed digest for this workload")
	case d != r.Digest:
		r.fail(1, "resultset_sha256 %s differs from testdata/digests.json (%s)", r.Digest, d)
	}
}

// traceLayers runs the traced repetition and fills the per-layer metrics.
func (r *report) traceLayers(ctx context.Context, h harness, o options, s *repSamples) error {
	if err := os.MkdirAll(o.traceDir, 0o755); err != nil {
		return err
	}
	profPath := filepath.Join(o.traceDir, r.Workload+".cpu.pprof")
	f, err := os.Create(profPath)
	if err != nil {
		return err
	}
	tr := newTracer()
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return err
	}
	runtime.GC()
	t0 := time.Now()
	out := h.traced(ctx, tr)
	wall := time.Since(t0)
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		return err
	}
	r.check(out, "traced rep")
	if err := tr.writeChrome(filepath.Join(o.traceDir, r.Workload+".trace.json")); err != nil {
		return err
	}

	L := map[string]float64{}
	prof, err := foldProfile(ctx, profPath)
	if err != nil {
		r.Notes = append(r.Notes, "step.* and runtime.* shares omitted: "+err.Error())
	} else {
		for _, st := range []string{"deliverEvents", "processMispredictions", "issueAll", "grantResultBuses",
			"frontendStep", "retireStep", "collectGarbage"} {
			L["step."+st+"_pct"] = prof.pct("tracep/internal/proc.(*Processor)." + st)
		}
		L["runtime.mallocgc_pct"] = prof.pct("runtime.mallocgc")
	}

	runMS, _ := tr.totalMS("proc.run")
	newMS, _ := tr.totalMS("proc.new")
	restoreMS, _ := tr.totalMS("proc.restore")
	captureMS, captures := tr.totalMS("snapshot.capture")
	buildMS, builds := tr.totalMS("bench.build")
	var captured uint64
	for _, sp := range tr.named("snapshot.capture") {
		captured += sp.Work
	}
	if len(tr.named("proc.run")) == 0 && prof != nil {
		// The service runs these layers inside the server, out of the
		// benchmark's reach: take their time from the CPU profile.
		runMS = prof.ms("tracep/internal/proc.(*Processor).RunContext")
		newMS = prof.ms("tracep/internal/proc.New")
		restoreMS = prof.ms("tracep/internal/proc.NewFromSnapshot")
		captureMS = prof.ms("tracep/internal/proc.CaptureSnapshot")
		buildMS = prof.ms("tracep.buildProgram")
		r.Notes = append(r.Notes, "proc.*_ms, snapshot.capture_ms and bench.build_ms come from the CPU profile (cumulative)")
	}
	cells := max(out.cells, 1)
	L["proc.run_ms"] = runMS
	if out.cycles > 0 {
		L["proc.ns_per_cycle"] = runMS * 1e6 / float64(out.cycles)
	}
	if out.insts > 0 {
		L["proc.ns_per_inst"] = runMS * 1e6 / float64(out.insts)
	}
	L["proc.new_ms"] = newMS
	L["proc.restore_ms"] = restoreMS
	L["proc.construct_us_per_cell"] = (newMS + restoreMS) * 1e3 / float64(cells)

	c := h.counts()
	for _, k := range []string{"proc.cycles", "proc.retired_insts", "proc.squashed_insts", "proc.recoveries_fgci",
		"proc.recoveries_cgci", "proc.recoveries_base", "proc.reissues", "proc.tc_misses", "proc.ic_misses", "proc.dc_misses"} {
		L[k] = float64(c[k])
	}
	if useful := c["proc.retired_insts"] + c["proc.squashed_insts"]; useful > 0 {
		L["proc.useful_frac"] = float64(c["proc.retired_insts"]) / float64(useful)
	}

	L["runtime.peak_rss_mb"] = peakRSSMB()
	L["gc.alloc_mb"] = median0(s.allocMB)
	L["gc.alloc_kb_per_cell"] = median0(s.allocMB) * 1024 / float64(cells)
	L["gc.cycles"] = median0(s.gcCycles)
	L["gc.cpu_frac"] = median0(s.gcFrac)

	L["snapshot.capture_ms"] = captureMS
	L["snapshot.captures"] = float64(captures)
	if captureMS > 0 && captured > 0 {
		L["snapshot.capture_minsts_per_s"] = float64(captured) / captureMS / 1e3
	}
	L["bench.build_ms"] = buildMS
	L["bench.builds"] = float64(builds)

	L["sweep.cell_wait_ms_p50"] = median0(tr.durationsMS("sweep.wait"))
	if busy, _ := tr.totalMS("cell"); busy > 0 {
		L["sweep.worker_busy_frac"] = busy / (slots * float64(wall) / 1e6)
	}
	L["sweep.resultset_encode_ms"], _ = tr.totalMS("resultset.encode")

	L["server.post_sweeps_ms_p50"] = median0(tr.durationsMS("server.post_sweeps"))
	L["server.stream_ms_p50"] = median0(tr.durationsMS("server.stream"))
	L["server.get_sweep_ms_p50"] = median0(tr.durationsMS("server.get_sweep"))
	L["client.overhead_ms_p50"] = median0(tr.overheadMS)
	L["client.write_p50_ms"] = percentile0(s.writes, 50)
	L["client.write_p90_ms"] = percentile0(s.writes, 90)
	L["client.read_p50_ms"] = percentile0(s.reads, 50)
	L["client.read_p90_ms"] = percentile0(s.reads, 90)
	L["server.cells_completed"] = float64(tr.serverCells[0])
	L["server.cells_failed"] = float64(tr.serverCells[1])

	p50, p90, probeKB, err := appendProbe(filepath.Join(o.workDir, "append-probe"))
	if err != nil {
		return fmt.Errorf("store append probe: %w", err)
	}
	L["store.append_us_p50"], L["store.append_us_p90"] = p50, p90
	L["store.journal_kb"] = probeKB
	if sh, ok := h.(*serviceHarness); ok {
		L["store.journal_kb"] = dirKB(sh.storeDir)
	}

	L["trace.overhead_frac"] = wall.Seconds()/median0(s.wall) - 1

	r.Layers = make(map[string]metric, len(perLayer))
	for _, d := range perLayer {
		if prof == nil && isProfileShare(d.name) {
			continue
		}
		r.Layers[d.name] = metric{Value: L[d.name], Unit: d.unit}
	}
	return nil
}

// isProfileShare reports whether a per-layer metric is folded from the CPU
// profile, and so omitted when go tool pprof is unavailable.
func isProfileShare(name string) bool {
	return name == "runtime.mallocgc_pct" || strings.HasPrefix(name, "step.")
}

// appendProbe times direct, fsync'd Store.Append calls of cell-sized
// records in a fresh journal under dir.
func appendProbe(dir string) (p50, p90, kb float64, err error) {
	if err := os.RemoveAll(dir); err != nil {
		return 0, 0, 0, err
	}
	st, _, err := store.Open(dir)
	if err != nil {
		return 0, 0, 0, err
	}
	defer st.Close()
	payload, err := json.Marshal(&tracep.Result{Benchmark: "compress", Model: "FG+MLB-RET", Seed: 1,
		Stats: &tracep.Stats{Cycles: 123_456, RetiredInsts: 200_000, RetiredTraces: 9_000, DispatchedTraces: 11_000}})
	if err != nil {
		return 0, 0, 0, err
	}
	var us []float64
	for i := 0; i < appendProbes; i++ {
		t0 := time.Now()
		if err := st.Append(store.Record{Kind: store.KindCell, JobID: "probe", Payload: payload}); err != nil {
			return 0, 0, 0, err
		}
		us = append(us, float64(time.Since(t0))/1e3)
	}
	return percentile(us, 50), percentile(us, 90), dirKB(dir), nil
}

func median0(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return median(xs)
}

func percentile0(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return percentile(xs, q)
}

// runtimeSample is a reading of the Go runtime's cumulative counters.
type runtimeSample struct {
	allocBytes, gcCycles, gcCPU, liveBytes float64
}

func readRuntime() runtimeSample {
	ms := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/gc/heap/live:bytes"},
	}
	metrics.Read(ms)
	val := func(s metrics.Sample) float64 {
		switch s.Value.Kind() {
		case metrics.KindUint64:
			return float64(s.Value.Uint64())
		case metrics.KindFloat64:
			return s.Value.Float64()
		}
		return 0
	}
	return runtimeSample{val(ms[0]), val(ms[1]), val(ms[2]), val(ms[3])}
}

// cpuSeconds is the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// peakRSSMB is the process's peak resident set size (Linux reports KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
