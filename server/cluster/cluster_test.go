package cluster_test

import (
	"bytes"
	"context"
	"encoding/json"
	"expvar"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"tracep"
	"tracep/server"
	"tracep/server/cluster"
	"tracep/server/cluster/clustertest"
)

// The reference grid for byte-identity checks: the CI baseline — both
// suite benchmarks crossed with all eight experimental models.
const target = 5_000

func benchNames() []string { return []string{"compress", "vortex"} }

func mustBench(t testing.TB, name string) tracep.Benchmark {
	t.Helper()
	bm, err := tracep.BenchmarkByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return bm
}

func modelNames(models []tracep.Model) []string {
	names := make([]string, len(models))
	for i, md := range models {
		names[i] = md.Name
	}
	return names
}

// newWorkers stands up n fault-injectable worker tracepds.
func newWorkers(t *testing.T, n int) []*clustertest.Worker {
	t.Helper()
	workers := make([]*clustertest.Worker, n)
	for i := range workers {
		workers[i] = clustertest.NewWorker(t, server.Config{Parallelism: 2})
	}
	return workers
}

// newCoordinator builds a coordinator Manager whose Runner shards over the
// given workers, with the coordinator's counters published into the
// manager's /metrics map. Returns the manager and the coordinator.
func newCoordinator(t *testing.T, workers []*clustertest.Worker, tune func(*cluster.Config)) (*server.Manager, *cluster.Coordinator) {
	t.Helper()
	return newCorpusCoordinator(t, workers, nil, tune)
}

// newCorpusCoordinator is newCoordinator over a manager serving corpus.
func newCorpusCoordinator(t *testing.T, workers []*clustertest.Worker, corpus []tracep.Benchmark, tune func(*cluster.Config)) (*server.Manager, *cluster.Coordinator) {
	t.Helper()
	urls := make([]string, len(workers))
	for i, w := range workers {
		urls[i] = w.URL()
	}
	gate := tracep.NewGate(4)
	ccfg := cluster.Config{
		Workers:     urls,
		Parallelism: 2,
		Gate:        gate,
		// Tests that don't exercise stealing keep it out of the way.
		StealAfter:   time.Hour,
		RetryBackoff: 10 * time.Millisecond,
	}
	if tune != nil {
		tune(&ccfg)
	}
	coord := cluster.New(ccfg)
	mgr := server.NewManager(server.Config{Parallelism: 2, Gate: gate, Runner: coord, Corpus: corpus})
	coord.PublishMetrics(mgr.Metrics())
	t.Cleanup(func() {
		closed := make(chan struct{})
		go func() { mgr.Close(); close(closed) }()
		select {
		case <-closed:
		case <-time.After(30 * time.Second):
			t.Error("coordinator manager did not drain within 30s")
		}
	})
	return mgr, coord
}

func metricInt(t *testing.T, m *server.Manager, name string) int64 {
	t.Helper()
	v := m.Metrics().Get(name)
	iv, ok := v.(*expvar.Int)
	if !ok {
		t.Fatalf("metric %s is %T, want *expvar.Int", name, v)
	}
	return iv.Value()
}

func waitTerminal(t *testing.T, m *server.Manager, id string) server.Status {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for time.Now().Before(deadline) {
		st, ok := m.Status(id, false)
		if !ok {
			t.Fatalf("job %s disappeared", id)
		}
		if st.State.Terminal() {
			return st
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s did not reach a terminal state in time", id)
	return server.Status{}
}

func resultsJSON(t *testing.T, m *server.Manager, id string) []byte {
	t.Helper()
	st, ok := m.Status(id, true)
	if !ok {
		t.Fatalf("job %s not found", id)
	}
	data, err := json.Marshal(st.Results)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// inProcessJSON is the byte-identity reference: the same grid through a
// plain tracep.Sweep, no cluster anywhere near it.
func inProcessJSON(t *testing.T, benches []string, models []tracep.Model, targetInsts, warmup uint64) []byte {
	t.Helper()
	var bms []tracep.Benchmark
	for _, name := range benches {
		bms = append(bms, mustBench(t, name))
	}
	rs, err := (&tracep.Sweep{
		Benchmarks:  bms,
		Models:      models,
		TargetInsts: targetInsts,
		Warmup:      warmup,
	}).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(rs)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// submitAndCollect runs the grid through the coordinator manager and
// returns the terminal ResultSet's JSON.
func submitAndCollect(t *testing.T, mgr *server.Manager, req server.SweepRequest) []byte {
	t.Helper()
	st, err := mgr.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if final := waitTerminal(t, mgr, st.ID); final.State != server.StateDone {
		t.Fatalf("cluster sweep finished %s, want done", final.State)
	}
	return resultsJSON(t, mgr, st.ID)
}

// TestClusterByteIdentity is the tentpole guarantee at full scale: the
// entire CI-baseline grid (both suite benchmarks x all eight models) plus a
// scenario row, sharded over three workers, marshals byte-identically to
// the same grid simulated in-process — placement is invisible in the
// results, and a worker resolves a scenario row by name like a suite row.
func TestClusterByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("full-grid cluster sweep in -short mode")
	}
	workers := newWorkers(t, 3)
	mgr, _ := newCoordinator(t, workers, nil)

	grid := append(benchNames(), "dense-branch-2")
	got := submitAndCollect(t, mgr, server.SweepRequest{
		Benchmarks:  grid,
		Models:      modelNames(tracep.Models()),
		TargetInsts: target,
	})
	want := inProcessJSON(t, grid, tracep.Models(), target, 0)
	if !bytes.Equal(got, want) {
		t.Errorf("cluster grid differs from in-process grid:\n%s\n%s", got, want)
	}
	// Every row went to a worker; none fell back.
	if placed := metricInt(t, mgr, "cluster_rows_placed_total"); placed != 3 {
		t.Errorf("rows placed = %d, want 3", placed)
	}
	if local := metricInt(t, mgr, "cluster_rows_local_total"); local != 0 {
		t.Errorf("rows local = %d, want 0", local)
	}
}

// TestClusterCorpusRowsByRecording: a corpus row is one that replays a
// recording, not one whose name the corpus holds. tracerec keeps a
// workload's name, so a coordinator serving a compress recording must still
// place a suite compress row on a worker and keep only the corpus compress
// row local; both sets match their in-process sweeps.
func TestClusterCorpusRowsByRecording(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "compress"+tracep.TraceExt)
	if _, err := tracep.CaptureTraceFile(context.Background(), mustBench(t, "compress"), target, path); err != nil {
		t.Fatal(err)
	}
	corpus, err := tracep.Corpus(dir)
	if err != nil {
		t.Fatal(err)
	}
	mgr, _ := newCorpusCoordinator(t, newWorkers(t, 1), corpus, nil)
	models := []tracep.Model{tracep.ModelBase, tracep.ModelFG}

	got := submitAndCollect(t, mgr, server.SweepRequest{
		Benchmarks:  []string{"compress"},
		Models:      modelNames(models),
		TargetInsts: target,
	})
	if want := inProcessJSON(t, []string{"compress"}, models, target, 0); !bytes.Equal(got, want) {
		t.Errorf("suite row differs from in-process sweep:\n%s\n%s", got, want)
	}
	if local := metricInt(t, mgr, "cluster_rows_local_total"); local != 0 {
		t.Errorf("rows local after a suite request = %d, want 0", local)
	}

	got = submitAndCollect(t, mgr, server.SweepRequest{
		Corpus:      []string{"compress"},
		Models:      modelNames(models),
		TargetInsts: target,
	})
	rs, err := (&tracep.Sweep{Benchmarks: corpus, Models: models, TargetInsts: target}).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(rs)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("corpus row differs from in-process sweep:\n%s\n%s", got, want)
	}
	if local := metricInt(t, mgr, "cluster_rows_local_total"); local != 1 {
		t.Errorf("rows local after a corpus request = %d, want 1", local)
	}
}

// TestClusterWarmRowsOnWorkers: warm grids, with and without a seed axis,
// run every (benchmark, seed) row on a worker, which warms the row up
// itself; each grid is byte-identical to an in-process sweep, and the
// coordinator runs no row on its own pool.
func TestClusterWarmRowsOnWorkers(t *testing.T) {
	workers := newWorkers(t, 2)
	mgr, _ := newCoordinator(t, workers, nil)

	const warmup = 2_000
	models := []tracep.Model{tracep.ModelBase, tracep.ModelFGMLBRET}
	var bms []tracep.Benchmark
	for _, name := range benchNames() {
		bms = append(bms, mustBench(t, name))
	}
	rows := 0
	for _, seeds := range [][]int64{nil, {1, 2}} {
		got := submitAndCollect(t, mgr, server.SweepRequest{
			Benchmarks:  benchNames(),
			Models:      modelNames(models),
			TargetInsts: target,
			Seeds:       seeds,
			Warmup:      warmup,
		})
		rs, err := (&tracep.Sweep{
			Benchmarks:  bms,
			Models:      models,
			TargetInsts: target,
			Seeds:       seeds,
			Warmup:      warmup,
		}).Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(rs)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("warm grid (seeds %v) differs from in-process sweep:\n%s\n%s", seeds, got, want)
		}
		rows += len(bms) * max(len(seeds), 1)
	}
	if placed := metricInt(t, mgr, "cluster_rows_placed_total"); placed != int64(rows) {
		t.Errorf("rows placed = %d, want %d (every warm row)", placed, rows)
	}
	if local := metricInt(t, mgr, "cluster_rows_local_total"); local != 0 {
		t.Errorf("rows local = %d, want 0", local)
	}
}

// TestClusterWorkerKill is acceptance for crash recovery: a worker dies
// mid-stream (connection severed, listener closed — no process left to
// retry against), and the row still completes elsewhere with the full grid
// byte-identical to in-process. Exactly-once delivery is asserted per cell
// even though the dead worker delivered part of the row first.
func TestClusterWorkerKill(t *testing.T) {
	workers := newWorkers(t, 3)
	mgr, _ := newCoordinator(t, workers, func(cfg *cluster.Config) {
		cfg.MaxRetries = 1
	})

	// Arm worker 0 (row 0's first placement) to abort its stream after one
	// line, then go fully dark the moment that happens — the retry then
	// meets a dead socket, like a crashed process.
	workers[0].SetFault(clustertest.FaultDieMidStream)
	done := make(chan struct{})
	go func() {
		for !workers[0].Fired() {
			select {
			case <-done:
				return
			case <-time.After(time.Millisecond):
			}
		}
		workers[0].Kill()
	}()
	defer close(done)

	models := tracep.Models()
	st, err := mgr.Submit(server.SweepRequest{
		Benchmarks:  benchNames(),
		Models:      modelNames(models),
		TargetInsts: target,
	})
	if err != nil {
		t.Fatal(err)
	}
	if final := waitTerminal(t, mgr, st.ID); final.State != server.StateDone {
		t.Fatalf("sweep finished %s, want done", final.State)
	}
	got := resultsJSON(t, mgr, st.ID)
	want := inProcessJSON(t, benchNames(), models, target, 0)
	if !bytes.Equal(got, want) {
		t.Errorf("grid after worker kill differs from in-process grid:\n%s\n%s", got, want)
	}
	// Exactly-once even though the dead worker delivered part of its row:
	// the manager collected each cell once, no more.
	if cells := metricInt(t, mgr, "cells_completed_total"); cells != int64(2*len(models)) {
		t.Errorf("cells completed = %d, want %d (exactly once per cell)", cells, 2*len(models))
	}
	if fails := metricInt(t, mgr, "cluster_worker_failures_total"); fails < 1 {
		t.Errorf("worker failures = %d, want >= 1 (the killed worker)", fails)
	}
}

// TestClusterFaultMatrix drives the remaining injected faults through a
// two-worker cluster, asserting exactly-once delivery and the retry/steal
// counters each fault should move.
func TestClusterFaultMatrix(t *testing.T) {
	models := []tracep.Model{tracep.ModelBase, tracep.ModelRET}

	t.Run("die-mid-stream", func(t *testing.T) {
		workers := newWorkers(t, 2)
		mgr, _ := newCoordinator(t, workers, nil)
		workers[0].SetFault(clustertest.FaultDieMidStream)
		workers[1].SetFault(clustertest.FaultDieMidStream)

		// Count deliveries through the manager's stream to prove the cut
		// stream's partial cells were not double-delivered by the retry.
		got := submitAndCollect(t, mgr, server.SweepRequest{
			Benchmarks:  benchNames(),
			Models:      modelNames(models),
			TargetInsts: target,
		})
		want := inProcessJSON(t, benchNames(), models, target, 0)
		if !bytes.Equal(got, want) {
			t.Errorf("grid after die-mid-stream differs:\n%s\n%s", got, want)
		}
		if retries := metricInt(t, mgr, "cluster_worker_retries_total"); retries < 1 {
			t.Errorf("retries = %d, want >= 1", retries)
		}
		if cells := metricInt(t, mgr, "cells_completed_total"); cells != int64(2*len(models)) {
			t.Errorf("cells completed = %d, want %d (exactly once per cell)", cells, 2*len(models))
		}
	})

	t.Run("corrupt-payload", func(t *testing.T) {
		workers := newWorkers(t, 2)
		mgr, _ := newCoordinator(t, workers, nil)
		workers[0].SetFault(clustertest.FaultCorrupt)
		workers[1].SetFault(clustertest.FaultCorrupt)

		got := submitAndCollect(t, mgr, server.SweepRequest{
			Benchmarks:  benchNames(),
			Models:      modelNames(models),
			TargetInsts: target,
		})
		want := inProcessJSON(t, benchNames(), models, target, 0)
		if !bytes.Equal(got, want) {
			t.Errorf("grid after corrupt payload differs:\n%s\n%s", got, want)
		}
		if retries := metricInt(t, mgr, "cluster_worker_retries_total"); retries < 1 {
			t.Errorf("retries = %d, want >= 1", retries)
		}
		if cells := metricInt(t, mgr, "cells_completed_total"); cells != int64(2*len(models)) {
			t.Errorf("cells completed = %d, want %d (exactly once per cell)", cells, 2*len(models))
		}
	})

	t.Run("hang-steals", func(t *testing.T) {
		workers := newWorkers(t, 2)
		mgr, _ := newCoordinator(t, workers, func(cfg *cluster.Config) {
			cfg.StealAfter = 200 * time.Millisecond
		})
		// Worker 0 wedges on every stream; only stealing recovers row 0.
		workers[0].SetFault(clustertest.FaultHang)

		got := submitAndCollect(t, mgr, server.SweepRequest{
			Benchmarks:  benchNames(),
			Models:      modelNames(models),
			TargetInsts: target,
		})
		want := inProcessJSON(t, benchNames(), models, target, 0)
		if !bytes.Equal(got, want) {
			t.Errorf("grid after hang+steal differs:\n%s\n%s", got, want)
		}
		if stolen := metricInt(t, mgr, "cluster_rows_stolen_total"); stolen < 1 {
			t.Errorf("rows stolen = %d, want >= 1", stolen)
		}
		if cells := metricInt(t, mgr, "cells_completed_total"); cells != int64(2*len(models)) {
			t.Errorf("cells completed = %d, want %d (exactly once per cell)", cells, 2*len(models))
		}
	})
}

// TestClusterAllWorkersDown: every worker unreachable from the start — the
// cluster degrades to local execution and still produces the exact
// in-process grid.
func TestClusterAllWorkersDown(t *testing.T) {
	workers := newWorkers(t, 2)
	for _, w := range workers {
		w.Kill()
	}
	mgr, _ := newCoordinator(t, workers, func(cfg *cluster.Config) {
		cfg.MaxRetries = -1 // no point retrying a dead socket in-test
	})

	models := []tracep.Model{tracep.ModelBase, tracep.ModelMLBRET}
	got := submitAndCollect(t, mgr, server.SweepRequest{
		Benchmarks:  benchNames(),
		Models:      modelNames(models),
		TargetInsts: target,
	})
	want := inProcessJSON(t, benchNames(), models, target, 0)
	if !bytes.Equal(got, want) {
		t.Errorf("degraded grid differs from in-process grid:\n%s\n%s", got, want)
	}
	if local := metricInt(t, mgr, "cluster_rows_local_total"); local != 2 {
		t.Errorf("rows local = %d, want 2 (both rows fell back)", local)
	}
	if fails := metricInt(t, mgr, "cluster_worker_failures_total"); fails < 2 {
		t.Errorf("worker failures = %d, want >= 2", fails)
	}
}

// TestClusterSharedGateAndCancel is the race-enabled e2e: a coordinator
// and its local fallback share one tracep.Gate with the workers' managers,
// a cold and a warm sweep run concurrently, and the gate's bound holds
// cluster-wide the whole time, warm-up captures included. Cancelling one sweep propagates: the coordinator job goes
// cancelled and the workers' remote jobs terminate instead of simulating
// to completion.
func TestClusterSharedGateAndCancel(t *testing.T) {
	gate := tracep.NewGate(2)
	workers := make([]*clustertest.Worker, 3)
	for i := range workers {
		workers[i] = clustertest.NewWorker(t, server.Config{Parallelism: 2, Gate: gate})
	}
	mgr, _ := newCoordinator(t, workers, func(cfg *cluster.Config) {
		cfg.Gate = gate
	})

	// Watchdog: the shared bound must hold while both sweeps are live.
	stop := make(chan struct{})
	var over sync.Once
	var overshoot int
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
			}
			if n := gate.InUse(); n > gate.Cap() {
				over.Do(func() { overshoot = n })
			}
			time.Sleep(100 * time.Microsecond)
		}
	}()

	models := []tracep.Model{tracep.ModelBase, tracep.ModelFG}
	req := server.SweepRequest{
		Benchmarks:  benchNames(),
		Models:      modelNames(models),
		TargetInsts: target,
	}
	st1, err := mgr.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	const warmup = 2_000
	warm := req
	warm.Warmup = warmup
	st2, err := mgr.Submit(warm)
	if err != nil {
		t.Fatal(err)
	}
	if final := waitTerminal(t, mgr, st1.ID); final.State != server.StateDone {
		t.Fatalf("sweep 1 finished %s, want done", final.State)
	}
	if final := waitTerminal(t, mgr, st2.ID); final.State != server.StateDone {
		t.Fatalf("sweep 2 finished %s, want done", final.State)
	}
	close(stop)
	if overshoot != 0 {
		t.Errorf("gate in-use reached %d, cap %d — cluster-wide bound violated", overshoot, gate.Cap())
	}
	for _, sw := range []struct {
		id     string
		warmup uint64
	}{{st1.ID, 0}, {st2.ID, warmup}} {
		if got, want := resultsJSON(t, mgr, sw.id), inProcessJSON(t, benchNames(), models, target, sw.warmup); !bytes.Equal(got, want) {
			t.Errorf("concurrent cluster sweep %s differs from in-process grid", sw.id)
		}
	}

	// Cancellation propagates to workers: cancel a third sweep mid-flight
	// and every remote job must reach a terminal state promptly.
	st3, err := mgr.Submit(server.SweepRequest{
		Benchmarks:  benchNames(),
		Models:      modelNames(tracep.Models()),
		TargetInsts: 400_000, // big enough to still be running when cancelled
	})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	if _, ok := mgr.Cancel(st3.ID); !ok {
		t.Fatal("cancel: job not found")
	}
	if final := waitTerminal(t, mgr, st3.ID); final.State != server.StateCancelled {
		t.Fatalf("cancelled sweep finished %s, want cancelled", final.State)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		live := liveJobs(workers)
		if live == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d remote jobs still running 30s after coordinator cancel", live)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if gate.InUse() != 0 {
		// Workers may take a beat to release slots after cancelling.
		time.Sleep(500 * time.Millisecond)
		if n := gate.InUse(); n != 0 {
			t.Errorf("gate in-use = %d after cancellation, want 0", n)
		}
	}

	// A warm-up capture takes a gate slot like a cell does, which polling
	// InUse cannot show: a capture that skipped the gate would never count.
	// So fill the gate with an in-process sweep whose cells outlast the
	// check, one long cell per slot, and submit a warm job whose warm-up
	// runs past the program's halt. Its cells can only fail once a capture
	// has run, so none may arrive while the gate is full.
	bctx, cancelBlocker := context.WithCancel(context.Background())
	defer cancelBlocker()
	blocker := tracep.Sweep{
		Benchmarks:  []tracep.Benchmark{mustBench(t, "compress")},
		Models:      models,
		TargetInsts: 50_000_000,
		Parallelism: gate.Cap(),
		Gate:        gate,
	}
	if len(blocker.Models) != gate.Cap() {
		t.Fatalf("blocker has %d cells for %d gate slots", len(blocker.Models), gate.Cap())
	}
	blocked := blocker.Stream(bctx)
	for deadline := time.Now().Add(30 * time.Second); gate.InUse() < gate.Cap(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("blocker holds %d of %d gate slots after 30s", gate.InUse(), gate.Cap())
		}
	}
	st4, err := mgr.Submit(server.SweepRequest{
		Benchmarks:  benchNames(),
		Models:      modelNames(models),
		TargetInsts: target,
		Warmup:      1_000_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Once both rows sit on workers, a capture that skipped the gate would
	// fail within milliseconds; give it a while to show.
	for deadline := time.Now().Add(30 * time.Second); liveJobs(workers) < len(benchNames()); time.Sleep(time.Millisecond) {
		if st, _ := mgr.Status(st4.ID, false); st.Completed != 0 || time.Now().After(deadline) {
			break
		}
	}
	time.Sleep(200 * time.Millisecond)
	if st, _ := mgr.Status(st4.ID, false); st.Completed != 0 {
		t.Errorf("warm job delivered %d cells while the blocker held every gate slot, want 0", st.Completed)
	}
	cancelBlocker()
	for range blocked {
	}
	if final := waitTerminal(t, mgr, st4.ID); final.State != server.StateDone || final.Failed != final.Total {
		t.Fatalf("warm job finished %s with %d of %d cells failed, want done with all failed",
			final.State, final.Failed, final.Total)
	}
	st, _ := mgr.Status(st4.ID, true)
	if st.Results.Len() != st.Total {
		t.Fatalf("warm job holds %d results, want %d", st.Results.Len(), st.Total)
	}
	for _, res := range st.Results.Results() {
		if !strings.Contains(res.Error, "runs past the program's halt") {
			t.Errorf("%s/%s: error %q, want the warm-up error", res.Benchmark, res.Model, res.Error)
		}
	}
}

// TestClusterCancelDuringSubmit: a coordinator cancel that lands while a
// worker's reply to the sweep POST is still in flight must not orphan the
// job that POST started. The worker runs the real handler (the job exists
// and simulates) and holds the reply; the coordinator job is cancelled
// during the hold, then the reply is released. The coordinator must learn
// the job's ID and cancel it, so the worker is idle within seconds instead
// of simulating the row to the end.
func TestClusterCancelDuringSubmit(t *testing.T) {
	workers := []*clustertest.Worker{clustertest.NewWorker(t, server.Config{Parallelism: 1})}
	mgr, _ := newCoordinator(t, workers, nil)
	workers[0].SetFault(clustertest.FaultHoldSubmit)
	st, err := mgr.Submit(server.SweepRequest{
		Benchmarks:  []string{"compress"},
		Models:      []string{"base"},
		TargetInsts: 50_000_000, // minutes of simulation if nothing cancels it
	})
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(30 * time.Second); !workers[0].Fired() || liveJobs(workers) == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the worker never started the held sweep")
		}
	}

	cancelled := make(chan server.Status, 1)
	go func() {
		final, _ := mgr.Cancel(st.ID)
		cancelled <- final
	}()
	// A coordinator that abandons the POST on cancel finishes its job at
	// once; one that waits for the reply blocks until the release.
	select {
	case <-cancelled:
	case <-time.After(500 * time.Millisecond):
	}
	workers[0].Release()

	deadline := time.Now().Add(5 * time.Second)
	for live := liveJobs(workers); live != 0; live = liveJobs(workers) {
		if time.Now().After(deadline) {
			t.Fatalf("%d remote job still running 5s after the coordinator cancel: orphaned by the abandoned submit", live)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if final := waitTerminal(t, mgr, st.ID); final.State != server.StateCancelled {
		t.Fatalf("coordinator job finished %s, want cancelled", final.State)
	}
}

// liveJobs counts the jobs not yet terminal across workers.
func liveJobs(workers []*clustertest.Worker) int {
	live := 0
	for _, w := range workers {
		for _, ws := range w.Manager.List() {
			if !ws.State.Terminal() {
				live++
			}
		}
	}
	return live
}

// TestClusterMetricsExposed: the coordinator's counters surface on the
// manager's /metrics document for scrapers.
func TestClusterMetricsExposed(t *testing.T) {
	workers := newWorkers(t, 1)
	mgr, _ := newCoordinator(t, workers, nil)
	doc := mgr.Metrics().String()
	for _, name := range []string{
		"cluster_workers", "cluster_rows_placed_total", "cluster_rows_stolen_total",
		"cluster_rows_local_total", "cluster_worker_retries_total",
		"cluster_worker_failures_total",
	} {
		if !strings.Contains(doc, name) {
			t.Errorf("metrics document missing %s", name)
		}
	}
}
