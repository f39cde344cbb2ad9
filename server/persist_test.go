package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"expvar"
	"os"
	"path/filepath"
	"testing"
	"time"

	"tracep"
	"tracep/server"
)

// metricInt reads one integer counter from a manager's metrics map.
func metricInt(t *testing.T, m *server.Manager, name string) int64 {
	t.Helper()
	v := m.Metrics().Get(name)
	iv, ok := v.(*expvar.Int)
	if !ok {
		t.Fatalf("metric %s is %T, want *expvar.Int", name, v)
	}
	return iv.Value()
}

// waitTerminal polls until the job reaches a terminal state.
func waitTerminal(t *testing.T, m *server.Manager, id string) server.Status {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
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

// resultsJSON marshals a job's collected ResultSet.
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

// inProcessJSON runs the same grid with a plain tracep.Sweep and marshals
// the set — the byte-identity reference for every durability path.
func inProcessJSON(t *testing.T, benches []string, models []tracep.Model, target, warmup uint64) []byte {
	t.Helper()
	var bms []tracep.Benchmark
	for _, name := range benches {
		bms = append(bms, mustBench(t, name))
	}
	rs, err := (&tracep.Sweep{
		Benchmarks:  bms,
		Models:      models,
		TargetInsts: target,
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

// TestStoreReplayFinishedJob: a finished job survives a restart — the
// reopened manager serves its status, ResultSet and stream from the
// journal, byte-identical, without re-running a single simulation.
func TestStoreReplayFinishedJob(t *testing.T) {
	dir := t.TempDir()
	req := server.SweepRequest{
		Benchmarks:  []string{"compress", "vortex"},
		Models:      []string{"base", "FG+MLB-RET"},
		TargetInsts: 5_000,
	}

	m1, err := server.OpenManager(server.Config{Parallelism: 2, StoreDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	st, err := m1.Submit(req)
	if err != nil {
		m1.Close()
		t.Fatal(err)
	}
	waitTerminal(t, m1, st.ID)
	want := resultsJSON(t, m1, st.ID)
	m1.Close()

	m2, err := server.OpenManager(server.Config{Parallelism: 2, StoreDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	st2, ok := m2.Status(st.ID, false)
	if !ok {
		t.Fatalf("job %s not recovered", st.ID)
	}
	if st2.State != server.StateDone || st2.Completed != 4 {
		t.Fatalf("recovered job = %+v, want done with 4 cells", st2)
	}
	if got := resultsJSON(t, m2, st.ID); !bytes.Equal(got, want) {
		t.Errorf("replayed ResultSet differs from pre-restart set:\n%s\n%s", got, want)
	}
	local := inProcessJSON(t, req.Benchmarks, []tracep.Model{tracep.ModelBase, tracep.ModelFGMLBRET}, 5_000, 0)
	if !bytes.Equal(want, local) {
		t.Errorf("journaled ResultSet differs from in-process run:\n%s\n%s", want, local)
	}
	// The proof of "replay, not re-simulate": the reopened manager never
	// collected a cell, and recorded the job as recovered, not resumed.
	if n := metricInt(t, m2, "cells_completed_total"); n != 0 {
		t.Errorf("reopened manager simulated %d cells, want 0", n)
	}
	if n := metricInt(t, m2, "jobs_recovered_total"); n != 1 {
		t.Errorf("jobs_recovered_total = %d, want 1", n)
	}
}

// TestStoreResumeAfterShutdown: a job interrupted by Close keeps its
// journal state "running"; reopening the store resumes it, re-simulating
// only the missing cells, and the final set is byte-identical to a run
// that was never interrupted.
func TestStoreResumeAfterShutdown(t *testing.T) {
	dir := t.TempDir()
	models := []string{"base", "base(fg)", "FG", "FG+MLB-RET"}
	// Cells are long enough that the other seven cannot all finish between
	// the poll that sees the first one and Close, even on a loaded host;
	// at 20,000 instructions they sometimes did, and nothing was resumed.
	req := server.SweepRequest{
		Benchmarks:  []string{"compress", "vortex"},
		Models:      models,
		TargetInsts: 100_000,
	}

	m1, err := server.OpenManager(server.Config{Parallelism: 2, StoreDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	st, err := m1.Submit(req)
	if err != nil {
		m1.Close()
		t.Fatal(err)
	}
	// Let at least one cell land durably, then shut down mid-grid.
	deadline := time.Now().Add(60 * time.Second)
	for {
		cur, _ := m1.Status(st.ID, false)
		if cur.Completed >= 1 || cur.State.Terminal() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no cell completed in time")
		}
		time.Sleep(5 * time.Millisecond)
	}
	m1.Close()

	m2, err := server.OpenManager(server.Config{Parallelism: 2, StoreDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	final := waitTerminal(t, m2, st.ID)
	if final.State != server.StateDone || final.Completed != 8 {
		t.Fatalf("resumed job finished %+v, want done with 8 cells", final)
	}
	if n := metricInt(t, m2, "jobs_resumed_total"); n != 1 {
		t.Errorf("jobs_resumed_total = %d, want 1", n)
	}
	// The resume only re-simulated cells the journal did not hold.
	if n := metricInt(t, m2, "cells_completed_total"); n >= 8 {
		t.Errorf("resume re-simulated the whole grid (%d cells)", n)
	}

	var mds []tracep.Model
	for _, name := range models {
		md, ok := tracep.ModelByName(name)
		if !ok {
			t.Fatalf("unknown model %s", name)
		}
		mds = append(mds, md)
	}
	local := inProcessJSON(t, req.Benchmarks, mds, 100_000, 0)
	if got := resultsJSON(t, m2, st.ID); !bytes.Equal(got, local) {
		t.Errorf("resumed ResultSet differs from uninterrupted in-process run:\n%s\n%s", got, local)
	}
}

// copyDir point-in-time copies a live store directory — the moral
// equivalent of the disk image a crash leaves behind (the journal may even
// end mid-frame if copied mid-append; Open's torn-tail repair handles it).
func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		sp, dp := filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())
		if e.IsDir() {
			copyDir(t, sp, dp)
			continue
		}
		data, err := os.ReadFile(sp)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(dp, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestStoreCrashImageResume is the coordinator-restart identity gate over
// the full ci-baseline grid: snapshot the store directory mid-sweep
// (exactly what a crash preserves — no graceful close, no terminal
// records), open a fresh manager over the image, and the resumed job's
// ResultSet must be byte-identical to the in-process reference at zero
// tolerance.
func TestStoreCrashImageResume(t *testing.T) {
	if testing.Short() {
		t.Skip("full ci-baseline grid resume in -short mode")
	}
	liveDir, imageDir := t.TempDir(), t.TempDir()
	req := server.SweepRequest{
		Benchmarks:  []string{"compress", "vortex"},
		TargetInsts: 5_000, // models empty = all eight: the ci-baseline grid
	}

	m1, err := server.OpenManager(server.Config{Parallelism: 2, StoreDir: liveDir})
	if err != nil {
		t.Fatal(err)
	}
	st, err := m1.Submit(req)
	if err != nil {
		m1.Close()
		t.Fatal(err)
	}
	// Capture the image once part of the grid is durable but work remains.
	deadline := time.Now().Add(120 * time.Second)
	for {
		cur, _ := m1.Status(st.ID, false)
		if cur.Completed >= 3 {
			break
		}
		if cur.State.Terminal() || time.Now().After(deadline) {
			t.Fatalf("job state %+v before image capture", cur)
		}
		time.Sleep(5 * time.Millisecond)
	}
	copyDir(t, liveDir, imageDir)
	m1.Close()

	m2, err := server.OpenManager(server.Config{Parallelism: 2, StoreDir: imageDir})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	final := waitTerminal(t, m2, st.ID)
	if final.State != server.StateDone || final.Completed != 16 {
		t.Fatalf("resumed job finished %+v, want done with 16 cells", final)
	}
	local := inProcessJSON(t, req.Benchmarks, tracep.Models(), 5_000, 0)
	if got := resultsJSON(t, m2, st.ID); !bytes.Equal(got, local) {
		t.Errorf("crash-image resume diverged from in-process run:\n%s\n%s", got, local)
	}
}
