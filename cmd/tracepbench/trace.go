package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tracep"
	"tracep/internal/proc"
)

// span is one timed call into a layer, recorded from outside the layer.
type span struct {
	ID     int64
	Parent int64
	Name   string
	// Cell identifies the operation the span belongs to (a cell, a request).
	Cell  string
	TID   int
	Start time.Duration
	End   time.Duration
	// Work counts what the span processed (instructions for a capture).
	Work uint64
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span

	// overheadMS is each traced read's client time minus its handler time;
	// serverCells the manager's completed and failed cell counts during the
	// traced repetition (service only).
	overheadMS  []float64
	serverCells [2]int64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span; end records it.
func (t *tracer) begin(name, cell string, parent int64, tid int) *span {
	return &span{ID: t.ids.Add(1), Parent: parent, Name: name, Cell: cell, TID: tid, Start: time.Since(t.t0)}
}

func (t *tracer) end(s *span) {
	s.End = time.Since(t.t0)
	t.mu.Lock()
	t.spans = append(t.spans, *s)
	t.mu.Unlock()
}

// add records a span whose interval is already known.
func (t *tracer) add(name, cell string, parent int64, tid int, from, to time.Time) {
	s := span{ID: t.ids.Add(1), Parent: parent, Name: name, Cell: cell, TID: tid,
		Start: from.Sub(t.t0), End: to.Sub(t.t0)}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// named returns the recorded spans called name.
func (t *tracer) named(name string) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// totalMS sums the durations of the spans called name, in milliseconds.
func (t *tracer) totalMS(name string) (ms float64, n int) {
	for _, s := range t.named(name) {
		ms += float64(s.dur()) / 1e6
		n++
	}
	return ms, n
}

// durationsMS lists the durations of the spans called name, in ms.
func (t *tracer) durationsMS(name string) []float64 {
	var out []float64
	for _, s := range t.named(name) {
		out = append(out, float64(s.dur())/1e6)
	}
	return out
}

// writeChrome writes the spans in Chrome trace-event format.
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	t.mu.Lock()
	events := make([]event, 0, len(t.spans))
	for _, s := range t.spans {
		events = append(events, event{
			Name: s.Name, Ph: "X", PID: 1, TID: s.TID,
			TS:   float64(s.Start) / 1e3,
			Dur:  float64(s.dur()) / 1e3,
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "cell": s.Cell, "work": s.Work},
		})
	}
	t.mu.Unlock()
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// tracedSweep runs sw's cells through the layer calls tracep.Sweep makes —
// one program build per benchmark, one warm-up capture per (benchmark,
// seed) row, then per cell processor construction or restore, the cycle
// loop, and Result encoding — on the same number of workers, recording a
// span around each call. Its ResultSet must be byte-identical to the
// Sweep's.
func tracedSweep(ctx context.Context, sw *tracep.Sweep, rs *tracep.ResultSet, tr *tracer, onResult func(*tracep.Result)) {
	seeds := sw.Seeds
	if len(seeds) == 0 {
		seeds = []int64{sw.Seed}
	}
	type row struct {
		bench   string
		seed    int64
		prog    *tracep.Program
		warmup  uint64
		once    sync.Once
		snap    *proc.Snapshot
		snapErr error
	}
	type job struct {
		row   *row
		model tracep.Model
		ready time.Time
	}
	cellConfig := func(seed int64) tracep.Config {
		cfg := tracep.DefaultConfig()
		if sw.Config != nil {
			cfg = *sw.Config
		}
		if seed != 0 {
			cfg.Seed = seed
		}
		return cfg
	}
	var mu sync.Mutex
	deliver := func(res *tracep.Result) {
		mu.Lock()
		defer mu.Unlock()
		rs.Add(res)
		onResult(res)
	}

	jobs := make(chan job)
	var wg sync.WaitGroup
	for w := 1; w <= slots; w++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			for j := range jobs {
				r := j.row
				id := fmt.Sprintf("%s/%s/%d", r.bench, j.model.Name, r.seed)
				cell := tr.begin("cell", id, 0, tid)
				tr.add("sweep.wait", id, cell.ID, tid, j.ready, time.Now())
				cfg := cellConfig(r.seed)
				res := &tracep.Result{Benchmark: r.bench, Model: j.model.Name, Seed: r.seed}
				var p *proc.Processor
				var err error
				if r.warmup > 0 {
					r.once.Do(func() {
						s := tr.begin("snapshot.capture", r.bench, cell.ID, tid)
						r.snap, r.snapErr = proc.CaptureSnapshot(ctx, r.prog, cfg, r.warmup)
						s.Work = r.warmup
						tr.end(s)
					})
					err = r.snapErr
					if err == nil {
						s := tr.begin("proc.restore", id, cell.ID, tid)
						p, err = proc.NewFromSnapshot(r.snap, j.model, cfg)
						tr.end(s)
					}
				} else {
					s := tr.begin("proc.new", id, cell.ID, tid)
					p = proc.New(r.prog, j.model, cfg)
					tr.end(s)
				}
				if err == nil {
					s := tr.begin("proc.run", id, cell.ID, tid)
					res.Stats, err = p.RunContext(ctx, 0, 0, nil)
					tr.end(s)
				}
				if err != nil {
					res.Stats, res.Error = nil, err.Error()
				}
				s := tr.begin("result.encode", id, cell.ID, tid)
				_, _ = json.Marshal(res)
				tr.end(s)
				tr.end(cell)
				deliver(res)
			}
		}(w)
	}

feed:
	for _, bm := range sw.Benchmarks {
		s := tr.begin("bench.build", bm.Name, 0, 0)
		prog := bm.Build(bm.ScaleFor(sw.TargetInsts))
		tr.end(s)
		warm := sw.Warmup
		if n, ok := sw.WarmupFor[bm.Name]; ok {
			warm = n
		}
		for _, seed := range seeds {
			r := &row{bench: bm.Name, seed: seed, prog: prog, warmup: warm}
			for _, m := range sw.Models {
				select {
				case jobs <- job{row: r, model: m, ready: time.Now()}:
				case <-ctx.Done():
					break feed
				}
			}
		}
	}
	close(jobs)
	wg.Wait()
}

// profile is a CPU profile folded through go tool pprof -top -cum: each
// function's cumulative time and the profile's total.
type profile struct {
	total time.Duration
	cum   map[string]time.Duration
}

// foldProfile runs go tool pprof over a CPU profile. It fails when the go
// command is not on PATH.
func foldProfile(ctx context.Context, path string) (*profile, error) {
	goCmd, err := exec.LookPath("go")
	if err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(ctx, goCmd, "tool", "pprof", "-top", "-cum", "-nodecount=100000", path)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, strings.TrimSpace(stderr.String()))
	}
	return parseTop(out)
}

// parseTop reads pprof -top output.
func parseTop(out []byte) (*profile, error) {
	p := &profile{cum: map[string]time.Duration{}}
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		line := sc.Text()
		if _, rest, ok := strings.Cut(line, "% of "); ok && strings.HasSuffix(line, " total") {
			d, err := parseDur(strings.TrimSuffix(rest, " total"))
			if err != nil {
				return nil, err
			}
			p.total = d
			continue
		}
		f := strings.Fields(line)
		if len(f) < 6 || !strings.HasSuffix(f[4], "%") {
			continue
		}
		d, err := parseDur(f[3])
		if err != nil {
			continue // the column header
		}
		// Inlined calls carry a suffix; fold them into the function.
		p.cum[strings.TrimSuffix(strings.Join(f[5:], " "), " (inline)")] += d
	}
	if p.total == 0 {
		return nil, fmt.Errorf("pprof -top: no total in output")
	}
	return p, nil
}

// parseDur parses pprof's sample durations ("1.23s", "450ms", "2.5mins").
func parseDur(s string) (time.Duration, error) {
	if v, ok := strings.CutSuffix(s, "mins"); ok {
		f, err := strconv.ParseFloat(v, 64)
		return time.Duration(f * float64(time.Minute)), err
	}
	if v, ok := strings.CutSuffix(s, "hrs"); ok {
		f, err := strconv.ParseFloat(v, 64)
		return time.Duration(f * float64(time.Hour)), err
	}
	return time.ParseDuration(s)
}

// pct returns fn's cumulative share of the profile, in percent.
func (p *profile) pct(fn string) float64 {
	return 100 * float64(p.cum[fn]) / float64(p.total)
}

// ms returns fn's cumulative time, in milliseconds.
func (p *profile) ms(fn string) float64 { return float64(p.cum[fn]) / 1e6 }
