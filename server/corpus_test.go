package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"tracep"
	"tracep/server"
)

// captureTestCorpus records two suite benchmarks into a temp directory and
// loads them back as corpus benchmarks, ready for server.Config.Corpus.
func captureTestCorpus(t *testing.T, targetInsts uint64) []tracep.Benchmark {
	t.Helper()
	dir := t.TempDir()
	for _, name := range []string{"compress", "vortex"} {
		bm := mustBench(t, name)
		path := filepath.Join(dir, name+tracep.TraceExt)
		if _, err := tracep.CaptureTraceFile(context.Background(), bm, targetInsts, path); err != nil {
			t.Fatal(err)
		}
	}
	corpus, err := tracep.Corpus(dir)
	if err != nil {
		t.Fatal(err)
	}
	return corpus
}

// TestCorpusOverWire drives the recorded-trace path end to end through the
// HTTP stack: GET /v1/corpus lists the server's recordings, a corpus-only
// SweepRequest runs their programs server-side with verification on, and
// the collected ResultSet is byte-identical to sweeping the same
// recordings in-process.
func TestCorpusOverWire(t *testing.T) {
	const target = 5_000
	corpus := captureTestCorpus(t, target)
	c := newTestServer(t, server.Config{Parallelism: 2, Corpus: corpus})

	entries, err := c.Corpus(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 || entries[0].Name != "compress" || entries[1].Name != "vortex" {
		t.Fatalf("GET /v1/corpus = %+v, want compress + vortex", entries)
	}
	for _, e := range entries {
		if e.Records == 0 || !strings.HasSuffix(e.File, tracep.TraceExt) {
			t.Errorf("corpus entry %+v missing record count or file name", e)
		}
	}

	// Empty Benchmarks + Corpus names = corpus-only grid.
	req := server.SweepRequest{
		Corpus:      []string{"compress", "vortex"},
		Models:      []string{"base", "FG+MLB-RET"},
		TargetInsts: target,
	}
	st, err := c.Submit(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Benchmarks) != 2 || len(st.Corpus) != 2 {
		t.Fatalf("status axes = benchmarks %v corpus %v, want both [compress vortex]", st.Benchmarks, st.Corpus)
	}
	if _, err := c.Stream(context.Background(), st.ID, nil); err != nil {
		t.Fatal(err)
	}
	remote, err := c.ResultSet(context.Background(), st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if err := remote.Err(); err != nil {
		t.Fatal(err)
	}

	local, err := (&tracep.Sweep{
		Benchmarks:  corpus,
		Models:      []tracep.Model{tracep.ModelBase, tracep.ModelFGMLBRET},
		TargetInsts: target,
	}).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	remoteJSON, err := json.Marshal(remote)
	if err != nil {
		t.Fatal(err)
	}
	localJSON, err := json.Marshal(local)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(remoteJSON, localJSON) {
		t.Error("remote corpus sweep is not byte-identical to the in-process corpus sweep")
	}
}

// TestCorpusUnknownName pins the failure modes of corpus resolution: a
// request naming a recording the server does not hold is a 404 with a typed
// Error body, a duplicate workload name across the combined grid is a 400,
// and a corpus-less server still serves an empty (not erroring) listing.
func TestCorpusUnknownName(t *testing.T) {
	corpus := captureTestCorpus(t, 3_000)
	c := newTestServer(t, server.Config{Parallelism: 1, Corpus: corpus})

	var apiErr *server.Error
	_, err := c.Submit(context.Background(), server.SweepRequest{Corpus: []string{"nonesuch"}})
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusNotFound {
		t.Errorf("unknown corpus name = %v, want 404 *server.Error", err)
	}
	if apiErr != nil && !strings.Contains(apiErr.Message, "nonesuch") {
		t.Errorf("404 body %q does not name the missing recording", apiErr.Message)
	}

	// compress exists both as a suite benchmark and a recording; one grid
	// cannot hold both rows.
	_, err = c.Submit(context.Background(), server.SweepRequest{
		Benchmarks: []string{"compress"},
		Corpus:     []string{"compress"},
	})
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusBadRequest {
		t.Errorf("duplicate workload name = %v, want 400 *server.Error", err)
	}

	bare := newTestServer(t, server.Config{Parallelism: 1})
	entries, err := bare.Corpus(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Errorf("corpus-less server lists %d recordings, want 0", len(entries))
	}
	_, err = bare.Submit(context.Background(), server.SweepRequest{Corpus: []string{"compress"}})
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusNotFound {
		t.Errorf("corpus request against corpus-less server = %v, want 404", err)
	}
}

// TestStoreResumeMixedJob resumes a job whose grid holds a suite row and a
// corpus row. Reopened with its corpus, the job re-simulates only its
// missing cells and ends byte-identical to an in-process sweep over the
// same rows. Reopened without it, the job can no longer resolve its grid
// and ends cancelled, while a finished corpus job still replays from the
// journal with zero simulation.
func TestStoreResumeMixedJob(t *testing.T) {
	const target = 20_000
	corpus := captureTestCorpus(t, target)
	dir, image := t.TempDir(), t.TempDir()
	finishedReq := server.SweepRequest{Corpus: []string{"compress"}, Models: []string{"base"}, TargetInsts: target}
	mixedReq := server.SweepRequest{
		Benchmarks:  []string{"vortex"},
		Corpus:      []string{"compress"},
		Models:      []string{"base", "FG", "RET", "FG+MLB-RET"},
		TargetInsts: target,
	}

	m1, err := server.OpenManager(server.Config{Parallelism: 1, StoreDir: dir, Corpus: corpus})
	if err != nil {
		t.Fatal(err)
	}
	finished, err := m1.Submit(finishedReq)
	if err != nil {
		m1.Close()
		t.Fatal(err)
	}
	waitTerminal(t, m1, finished.ID)
	mixed, err := m1.Submit(mixedReq)
	if err != nil {
		m1.Close()
		t.Fatal(err)
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		cur, _ := m1.Status(mixed.ID, false)
		if cur.State.Terminal() {
			m1.Close()
			t.Fatalf("mixed job finished before Close: %+v", cur)
		}
		if cur.Completed >= 1 {
			break
		}
		if time.Now().After(deadline) {
			m1.Close()
			t.Fatal("no cell completed in time")
		}
		time.Sleep(2 * time.Millisecond)
	}
	m1.Close()
	copyDir(t, dir, image)

	m2, err := server.OpenManager(server.Config{Parallelism: 2, StoreDir: dir, Corpus: corpus})
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, m2, mixed.ID); st.State != server.StateDone {
		m2.Close()
		t.Fatalf("resumed mixed job finished %s, want done", st.State)
	}
	if got, want := resultsJSON(t, m2, mixed.ID), sweepJSON(t, mixedReq, corpus); !bytes.Equal(got, want) {
		t.Errorf("resumed mixed job differs from in-process sweep:\n%s\n%s", got, want)
	}
	if n := metricInt(t, m2, "cells_completed_total"); n >= int64(mixed.Total) {
		t.Errorf("resume simulated %d cells, want fewer than the job's %d", n, mixed.Total)
	}
	m2.Close()

	m3, err := server.OpenManager(server.Config{Parallelism: 2, StoreDir: image})
	if err != nil {
		t.Fatal(err)
	}
	defer m3.Close()
	if st := waitTerminal(t, m3, mixed.ID); st.State != server.StateCancelled {
		t.Errorf("mixed job reopened without its corpus finished %s, want cancelled", st.State)
	}
	if st, _ := m3.Status(finished.ID, false); st.State != server.StateDone {
		t.Errorf("finished corpus job replayed as %s, want done", st.State)
	}
	if got, want := resultsJSON(t, m3, finished.ID), sweepJSON(t, finishedReq, corpus); !bytes.Equal(got, want) {
		t.Errorf("replayed corpus job differs from in-process sweep:\n%s\n%s", got, want)
	}
	if n := metricInt(t, m3, "cells_completed_total"); n != 0 {
		t.Errorf("reopening without the corpus simulated %d cells, want 0", n)
	}
}

// TestMetricsPrometheusExposition checks /metrics content negotiation: a
// text/plain Accept header (what Prometheus scrapers send) switches to the
// text exposition format with tracepd_-prefixed names and # TYPE lines,
// while the default request keeps serving the expvar JSON document.
func TestMetricsPrometheusExposition(t *testing.T) {
	mgr := server.NewManager(server.Config{Parallelism: 3})
	ts := httptest.NewServer(mgr.Handler())
	t.Cleanup(func() {
		ts.Close()
		mgr.Close()
	})

	get := func(accept string) (string, string) {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, ts.URL+"/metrics", nil)
		if err != nil {
			t.Fatal(err)
		}
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body), resp.Header.Get("Content-Type")
	}

	// The Prometheus scraper's real Accept header.
	prom, ctype := get("application/openmetrics-text;version=1.0.0;q=0.5,text/plain;version=0.0.4;q=0.3,*/*;q=0.1")
	if !strings.HasPrefix(ctype, "text/plain") {
		t.Errorf("Prometheus scrape Content-Type = %q, want text/plain", ctype)
	}
	for _, want := range []string{
		"# TYPE tracepd_jobs_submitted_total counter\n",
		"tracepd_jobs_submitted_total 0\n",
		"# TYPE tracepd_gate_capacity gauge\n",
		"tracepd_gate_capacity 3\n",
	} {
		if !strings.Contains(prom, want) {
			t.Errorf("Prometheus exposition missing %q:\n%s", want, prom)
		}
	}
	if strings.Contains(prom, "{") {
		t.Errorf("Prometheus exposition contains JSON braces:\n%s", prom)
	}

	// No Accept header, an explicit JSON preference, and a browser-ish
	// wildcard all keep the expvar document.
	for _, accept := range []string{"", "application/json", "*/*"} {
		body, ctype := get(accept)
		if ctype != "application/json" {
			t.Errorf("Accept=%q: Content-Type = %q, want application/json", accept, ctype)
		}
		var m map[string]float64
		if err := json.Unmarshal([]byte(body), &m); err != nil {
			t.Errorf("Accept=%q: body is not the expvar JSON document: %v", accept, err)
		} else if _, ok := m["gate_capacity"]; !ok {
			t.Errorf("Accept=%q: expvar document missing gate_capacity", accept)
		}
	}
}
