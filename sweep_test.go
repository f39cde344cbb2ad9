package tracep_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"runtime"
	"runtime/metrics"
	"sync/atomic"
	"testing"
	"time"

	"tracep"
)

func sweepFixture(t testing.TB) ([]tracep.Benchmark, []tracep.Model) {
	t.Helper()
	return []tracep.Benchmark{mustBench(t, "compress"), mustBench(t, "vortex")},
		[]tracep.Model{tracep.ModelBase, tracep.ModelFGMLBRET}
}

// TestSweepMatchesSerial is the harness's core guarantee: fanning the
// cross-product across a worker pool changes wall-clock time only. The
// parallel ResultSet must be bit-identical — same cells, same statistics,
// same ordering, same JSON bytes — to a serial loop over Simulator.Run.
func TestSweepMatchesSerial(t *testing.T) {
	benches, models := sweepFixture(t)
	const budget = 8_000

	serial := tracep.NewResultSetGrid(
		[]string{"compress", "vortex"},
		[]string{"base", "FG+MLB-RET"},
		nil,
	)
	for _, bm := range benches {
		for _, m := range models {
			res, err := tracep.NewBenchmark(bm, budget, tracep.WithModel(m)).Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			serial.Add(res)
		}
	}

	sw := tracep.Sweep{
		Benchmarks:  benches,
		Models:      models,
		TargetInsts: budget,
		Parallelism: 4,
	}
	parallel, err := sw.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := parallel.Err(); err != nil {
		t.Fatal(err)
	}

	if got, want := parallel.Len(), len(benches)*len(models); got != want {
		t.Fatalf("parallel set has %d cells, want %d", got, want)
	}
	if !reflect.DeepEqual(parallel.Benches(), serial.Benches()) {
		t.Errorf("bench order: %v vs %v", parallel.Benches(), serial.Benches())
	}
	if !reflect.DeepEqual(parallel.Models(), serial.Models()) {
		t.Errorf("model order: %v vs %v", parallel.Models(), serial.Models())
	}
	for _, bm := range benches {
		for _, m := range models {
			ps, ok1 := parallel.Get(bm.Name, m.Name)
			ss, ok2 := serial.Get(bm.Name, m.Name)
			if !ok1 || !ok2 {
				t.Fatalf("missing cell %s/%s (parallel=%v serial=%v)", bm.Name, m.Name, ok1, ok2)
			}
			if !reflect.DeepEqual(ps, ss) {
				t.Errorf("cell %s/%s: parallel and serial statistics differ", bm.Name, m.Name)
			}
		}
	}

	pj, err := json.Marshal(parallel)
	if err != nil {
		t.Fatal(err)
	}
	sj, err := json.Marshal(serial)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pj, sj) {
		t.Error("parallel and serial ResultSet JSON must be byte-identical")
	}
}

// TestSweepParallelismLevelsAgree runs the same sweep at j=1 and j=3 and
// demands identical JSON — worker count must never leak into results.
func TestSweepParallelismLevelsAgree(t *testing.T) {
	benches, models := sweepFixture(t)
	var outs [][]byte
	for _, j := range []int{1, 3} {
		sw := tracep.Sweep{Benchmarks: benches, Models: models, TargetInsts: 5_000, Parallelism: j}
		rs, err := sw.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		out, err := json.Marshal(rs)
		if err != nil {
			t.Fatal(err)
		}
		outs = append(outs, out)
	}
	if !bytes.Equal(outs[0], outs[1]) {
		t.Error("j=1 and j=3 sweeps must serialise identically")
	}
}

func TestSweepCancellationPartialResults(t *testing.T) {
	// Budgets big enough that the full 8×8 sweep takes many seconds; cancel
	// almost immediately and demand a prompt return with a partial set.
	sw := tracep.Sweep{
		Benchmarks:  tracep.Benchmarks(),
		Models:      tracep.Models(),
		TargetInsts: 2_000_000,
		Parallelism: 2,
	}
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(100*time.Millisecond, cancel)

	start := time.Now()
	rs, err := sw.Run(ctx)
	elapsed := time.Since(start)

	if !errors.Is(err, context.Canceled) {
		t.Fatalf("sweep error = %v, want context.Canceled", err)
	}
	if elapsed > 15*time.Second {
		t.Errorf("cancelled sweep took %v, want prompt stop", elapsed)
	}
	total := len(sw.Benchmarks) * len(sw.Models)
	if rs.Len() >= total {
		t.Errorf("cancelled sweep recorded %d/%d cells, want a partial set", rs.Len(), total)
	}
	// Ordering survives even for a partial set.
	if got := rs.Benches(); len(got) != 8 || got[0] != "compress" {
		t.Errorf("partial set bench order = %v", got)
	}
	// Any recorded failures must be cancellations, not simulator errors.
	for _, res := range rs.Results() {
		if e := res.Err(); e != nil && !errors.Is(e, context.Canceled) {
			t.Errorf("cell %s/%s failed with %v", res.Benchmark, res.Model, e)
		}
	}
}

// TestSweepBuildsEachBenchmarkOnce pins the shared-program guarantee: a
// sweep over N models invokes each benchmark's Build exactly once, not
// once per cell, and the shared-program results stay bit-identical to
// per-cell NewBenchmark builds (the serial loop in TestSweepMatchesSerial
// uses per-cell builds).
func TestSweepBuildsEachBenchmarkOnce(t *testing.T) {
	benches, models := sweepFixture(t)
	builds := make([]int32, len(benches))
	for i := range benches {
		i := i
		inner := benches[i].Build
		benches[i].Build = func(scale int64) *tracep.Program {
			atomic.AddInt32(&builds[i], 1)
			return inner(scale)
		}
	}
	sw := tracep.Sweep{
		Benchmarks:  benches,
		Models:      models,
		TargetInsts: 5_000,
		Parallelism: 4,
	}
	rs, err := sw.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := rs.Err(); err != nil {
		t.Fatal(err)
	}
	if rs.Len() != len(benches)*len(models) {
		t.Fatalf("recorded %d cells, want %d", rs.Len(), len(benches)*len(models))
	}
	for i, bm := range benches {
		if n := atomic.LoadInt32(&builds[i]); n != 1 {
			t.Errorf("%s built %d times across %d models, want exactly 1", bm.Name, n, len(models))
		}
	}
}

// TestSweepStreamDeliversEveryCellOnce drains Stream to completion and
// checks each (benchmark, model) cell arrives exactly once.
func TestSweepStreamDeliversEveryCellOnce(t *testing.T) {
	benches, models := sweepFixture(t)
	sw := tracep.Sweep{
		Benchmarks:  benches,
		Models:      models,
		TargetInsts: 5_000,
		Parallelism: 4,
	}
	seen := make(map[string]int)
	for res := range sw.Stream(context.Background()) {
		if err := res.Err(); err != nil {
			t.Errorf("cell %s/%s failed: %v", res.Benchmark, res.Model, err)
		}
		seen[res.Benchmark+"/"+res.Model]++
	}
	if len(seen) != len(benches)*len(models) {
		t.Fatalf("stream delivered %d distinct cells, want %d", len(seen), len(benches)*len(models))
	}
	for key, n := range seen {
		if n != 1 {
			t.Errorf("cell %s delivered %d times, want exactly once", key, n)
		}
	}
}

// TestSweepStreamExactlyOnceUnderCancellation cancels mid-sweep and checks
// the channel still closes, no cell is delivered twice, and every
// delivered failure is a cancellation.
func TestSweepStreamExactlyOnceUnderCancellation(t *testing.T) {
	sw := tracep.Sweep{
		Benchmarks:  tracep.Benchmarks(),
		Models:      tracep.Models(),
		TargetInsts: 2_000_000,
		Parallelism: 2,
	}
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(100*time.Millisecond, cancel)

	start := time.Now()
	seen := make(map[string]int)
	for res := range sw.Stream(ctx) {
		seen[res.Benchmark+"/"+res.Model]++
		if e := res.Err(); e != nil && !errors.Is(e, context.Canceled) {
			t.Errorf("cell %s/%s failed with %v, want cancellation", res.Benchmark, res.Model, e)
		}
	}
	if elapsed := time.Since(start); elapsed > 15*time.Second {
		t.Errorf("cancelled stream took %v, want prompt close", elapsed)
	}
	total := len(sw.Benchmarks) * len(sw.Models)
	if len(seen) >= total {
		t.Errorf("cancelled stream delivered %d/%d cells, want a partial set", len(seen), total)
	}
	for key, n := range seen {
		if n != 1 {
			t.Errorf("cell %s delivered %d times, want exactly once", key, n)
		}
	}
}

// TestSweepInvalidBenchmarkFailsItsRow: an unbuildable Benchmark (here the
// zero value) fails every cell of its row with ErrInvalidBenchmark instead
// of panicking, and the other rows are unaffected.
func TestSweepInvalidBenchmarkFailsItsRow(t *testing.T) {
	benches := []tracep.Benchmark{{Name: "broken"}, mustBench(t, "compress")}
	models := []tracep.Model{tracep.ModelBase, tracep.ModelFG}
	sw := tracep.Sweep{
		Benchmarks:  benches,
		Models:      models,
		TargetInsts: 2_000,
		Parallelism: 2,
	}
	rs, err := sw.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rs.Len() != len(benches)*len(models) {
		t.Fatalf("recorded %d cells, want %d", rs.Len(), len(benches)*len(models))
	}
	for _, m := range models {
		res, ok := rs.Lookup("broken", m.Name)
		if !ok || !errors.Is(res.Err(), tracep.ErrInvalidBenchmark) {
			t.Errorf("broken/%s = %+v (ok=%v), want ErrInvalidBenchmark", m.Name, res, ok)
		}
		if _, ok := rs.Get("compress", m.Name); !ok {
			t.Errorf("compress/%s missing: a broken row must not poison the sweep", m.Name)
		}
	}
}

func TestSweepCapturesPerRunErrors(t *testing.T) {
	// An invalid config fails every run, but the sweep itself completes and
	// captures each failure in its cell.
	cfg := tracep.DefaultConfig()
	cfg.MaxTraceLen = 0
	benches, models := sweepFixture(t)
	sw := tracep.Sweep{
		Benchmarks:  benches,
		Models:      models,
		TargetInsts: 1_000,
		Config:      &cfg,
		Parallelism: 2,
	}
	rs, err := sw.Run(context.Background())
	if err != nil {
		t.Fatalf("sweep must not abort on per-run errors, got %v", err)
	}
	if rs.Len() != len(benches)*len(models) {
		t.Fatalf("recorded %d cells, want all %d", rs.Len(), len(benches)*len(models))
	}
	if rs.Err() == nil {
		t.Fatal("ResultSet.Err must surface the failures")
	}
	for _, res := range rs.Results() {
		if !errors.Is(res.Err(), tracep.ErrInvalidConfig) {
			t.Errorf("cell %s/%s error = %v, want ErrInvalidConfig", res.Benchmark, res.Model, res.Err())
		}
		if res.Stats != nil {
			t.Errorf("failed cell %s/%s carries stats", res.Benchmark, res.Model)
		}
		if _, ok := rs.Get(res.Benchmark, res.Model); ok {
			t.Errorf("Get must not expose failed cell %s/%s", res.Benchmark, res.Model)
		}
	}
}

// waitInUse blocks until n slots of gate are held — each by a simulating
// cell or a row capturing its warm-up — and fails the test after 30 s.
func waitInUse(t *testing.T, gate *tracep.Gate, n int) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for gate.InUse() < n {
		if time.Now().After(deadline) {
			t.Fatalf("gate never had %d slots in use", n)
		}
		time.Sleep(time.Millisecond)
	}
}

// holdGate starts a one-cell sweep long enough to keep gate's only slot
// until the returned stop is called; stop waits for the sweep to finish.
func holdGate(t *testing.T, gate *tracep.Gate, bm tracep.Benchmark) (stop func()) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	long := tracep.Sweep{
		Benchmarks:  []tracep.Benchmark{bm},
		Models:      []tracep.Model{tracep.ModelBase},
		TargetInsts: 50_000_000,
		Gate:        gate,
	}
	done := long.Stream(ctx)
	stop = func() {
		cancel()
		for range done {
		}
	}
	t.Cleanup(stop)
	waitInUse(t, gate, 1)
	return stop
}

// TestSweepSharedGateBounds runs two sweeps concurrently against one
// shared Gate(1) and demands that no cell of either simulates without the
// gate's only slot, whatever each sweep's own Parallelism says: while
// another sweep holds the slot neither delivers a cell, and once it lets go
// both complete every cell.
func TestSweepSharedGateBounds(t *testing.T) {
	benches, models := sweepFixture(t)
	gate := tracep.NewGate(1)
	if gate.Cap() != 1 {
		t.Fatalf("gate cap = %d, want 1", gate.Cap())
	}
	stop := holdGate(t, gate, benches[0])

	var streams []<-chan *tracep.Result
	for range 2 {
		sw := tracep.Sweep{
			Benchmarks:  benches,
			Models:      models,
			TargetInsts: 5_000,
			Parallelism: 4,
			Gate:        gate,
		}
		streams = append(streams, sw.Stream(context.Background()))
	}
	// A 5k-instruction cell simulates in milliseconds, so any cell that ran
	// without a slot would land well within this window.
	time.Sleep(200 * time.Millisecond)
	for i, ch := range streams {
		select {
		case res := <-ch:
			t.Fatalf("sweep %d delivered %s/%s while another sweep held the gate", i, res.Benchmark, res.Model)
		default:
		}
	}

	stop()
	for i, ch := range streams {
		n := 0
		for res := range ch {
			if err := res.Err(); err != nil {
				t.Errorf("sweep %d: %v", i, err)
			}
			n++
		}
		if n != len(benches)*len(models) {
			t.Errorf("sweep %d delivered %d cells, want %d", i, n, len(benches)*len(models))
		}
	}
}

// TestSweepGateCancellationReleasesWaiters: cancelling a sweep whose cells
// are queued behind a busy shared gate must return promptly — waiters give
// up their place instead of blocking on the gate forever.
func TestSweepGateCancellationReleasesWaiters(t *testing.T) {
	gate := tracep.NewGate(1)
	benches, models := sweepFixture(t)

	// Occupy the gate with a long-running sweep, simulating and holding the
	// slot.
	holdGate(t, gate, benches[0])

	// A second sweep now queues entirely behind the gate; cancel it and
	// demand a prompt, empty return.
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(100*time.Millisecond, cancel)
	blocked := tracep.Sweep{
		Benchmarks:  benches,
		Models:      models,
		TargetInsts: 5_000,
		Gate:        gate,
	}
	start := time.Now()
	rs, err := blocked.Run(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("blocked sweep error = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Errorf("blocked sweep took %v to observe cancellation", elapsed)
	}
	if rs.Len() != 0 {
		t.Errorf("blocked sweep recorded %d cells, want 0 (nothing ever started)", rs.Len())
	}
}

// TestHeldResultSetDoesNotPinEngines: a Result owns its counters, so holding
// a finished sweep's ResultSet keeps only the results alive, not the
// processors that produced them (about 9 MB each).
func TestHeldResultSetDoesNotPinEngines(t *testing.T) {
	sw := tracep.Sweep{Benchmarks: tracep.Benchmarks(), Models: tracep.Models(), TargetInsts: 2000, Parallelism: 2}
	rs, err := sw.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := rs.Err(); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(sample)
	live := sample[0].Value.Uint64()
	if n := len(rs.Results()); n != 64 {
		t.Fatalf("%d cells, want 64", n)
	}
	if live >= 64<<20 {
		t.Errorf("a held 8x8 ResultSet leaves %d MB live, want < 64 MB", live>>20)
	}
}
