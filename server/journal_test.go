package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"tracep"
	"tracep/server"
	"tracep/server/store"
)

// The journal golden is a store directory (testdata/journal) that a durable
// tracepd wrote with Parallelism 1 and the captureTestCorpus recordings at
// 5,000 instructions as its corpus: sw-1 (goldenFinished) ran to
// completion, then sw-2 (goldenInterrupted) was stopped by Close after one
// durable cell, so the journal holds its KindJob record and that cell but
// no terminal state. testdata/journal-status.json is List() after a
// reopened copy finished sw-2, indented with two spaces.
var (
	goldenFinished = server.SweepRequest{
		Benchmarks:  []string{"compress"},
		Corpus:      []string{"vortex"},
		Models:      []string{"base", "FG+MLB-RET"},
		TargetInsts: 5_000,
		Seeds:       []int64{1, 7},
		Tolerances:  &tracep.Tolerances{IPCPct: 2, AllowMissing: true},
	}
	goldenInterrupted = server.SweepRequest{
		Benchmarks:  []string{"compress", "vortex"},
		Models:      []string{"base", "base(fg)", "FG", "FG+MLB-RET"},
		TargetInsts: 10_000,
		Seed:        3,
		Warmup:      2_000,
		WarmupFor:   map[string]uint64{"vortex": 1_000},
	}
)

// readJournal decodes the jobs.log under a store directory.
func readJournal(t *testing.T, dir string) []store.Record {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, "jobs.log"))
	if err != nil {
		t.Fatal(err)
	}
	recs, err := store.DecodeAll(data)
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

// jobPayloads returns the KindJob payloads of a journal in log order.
func jobPayloads(recs []store.Record) [][]byte {
	var out [][]byte
	for _, rec := range recs {
		if rec.Kind == store.KindJob {
			out = append(out, rec.Payload)
		}
	}
	return out
}

// sweepJSON marshals an in-process sweep of req's grid, resolving corpus
// names against corpus: the byte-identity reference for a journaled job.
func sweepJSON(t *testing.T, req server.SweepRequest, corpus []tracep.Benchmark) []byte {
	t.Helper()
	sw := tracep.Sweep{
		TargetInsts: req.TargetInsts,
		Seed:        req.Seed,
		Seeds:       req.Seeds,
		Warmup:      req.Warmup,
		WarmupFor:   req.WarmupFor,
	}
	for _, name := range req.Benchmarks {
		sw.Benchmarks = append(sw.Benchmarks, mustBench(t, name))
	}
	for _, name := range req.Corpus {
		i := slices.IndexFunc(corpus, func(bm tracep.Benchmark) bool { return bm.Name == name })
		if i < 0 {
			t.Fatalf("corpus has no %s", name)
		}
		sw.Benchmarks = append(sw.Benchmarks, corpus[i])
	}
	for _, name := range req.Models {
		md, ok := tracep.ModelByName(name)
		if !ok {
			t.Fatalf("unknown model %s", name)
		}
		sw.Models = append(sw.Models, md)
	}
	rs, err := sw.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(rs)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestJournalGolden opens a copy of the committed journal: the finished
// job replays without simulation, the interrupted one resumes and
// re-simulates only its missing cells, both sets are byte-identical to
// in-process sweeps, both statuses match the committed ones, and the
// KindJob payloads come through compaction byte for byte.
func TestJournalGolden(t *testing.T) {
	golden := readJournal(t, "testdata/journal")
	durable := 0
	for _, rec := range golden {
		if rec.Kind == store.KindCell && rec.JobID == "sw-2" {
			durable++
		}
	}
	corpus := captureTestCorpus(t, 5_000)
	dir := t.TempDir()
	copyDir(t, "testdata/journal", dir)

	m, err := server.OpenManager(server.Config{Parallelism: 2, StoreDir: dir, Corpus: corpus})
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, m, "sw-2"); st.State != server.StateDone {
		m.Close()
		t.Fatalf("resumed golden job finished %s, want done", st.State)
	}
	if n := metricInt(t, m, "jobs_recovered_total"); n != 1 {
		t.Errorf("jobs_recovered_total = %d, want 1", n)
	}
	if n := metricInt(t, m, "jobs_resumed_total"); n != 1 {
		t.Errorf("jobs_resumed_total = %d, want 1", n)
	}
	// The finished job contributes no cell; the resumed one only the cells
	// its journal lacked.
	if n := metricInt(t, m, "cells_completed_total"); n != int64(8-durable) {
		t.Errorf("cells_completed_total = %d, want %d (8 cells, %d durable)", n, 8-durable, durable)
	}
	status, err := json.MarshalIndent(m.List(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/journal-status.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(append(status, '\n'), want) {
		t.Errorf("statuses differ from testdata/journal-status.json:\n%s", status)
	}
	for id, req := range map[string]server.SweepRequest{"sw-1": goldenFinished, "sw-2": goldenInterrupted} {
		if got, want := resultsJSON(t, m, id), sweepJSON(t, req, corpus); !bytes.Equal(got, want) {
			t.Errorf("%s differs from its in-process sweep:\n%s\n%s", id, got, want)
		}
	}
	m.Close()

	st, rec, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Compact(rec.Records); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if got, want := jobPayloads(readJournal(t, dir)), jobPayloads(golden); !reflect.DeepEqual(got, want) {
		t.Errorf("KindJob payloads changed through resume and compaction:\n%q\n%q", got, want)
	}
}

// TestJournalGoldenSubmitPayload: submitting the golden's requests today
// journals KindJob payloads equal, byte for byte, to the committed ones up
// to created_at, so journals written now and journals written then share one
// record shape.
func TestJournalGoldenSubmitPayload(t *testing.T) {
	corpus := captureTestCorpus(t, 5_000)
	dir := t.TempDir()
	m, err := server.OpenManager(server.Config{Parallelism: 1, StoreDir: dir, Corpus: corpus})
	if err != nil {
		t.Fatal(err)
	}
	for _, req := range []server.SweepRequest{goldenFinished, goldenInterrupted} {
		st, err := m.Submit(req)
		if err != nil {
			m.Close()
			t.Fatal(err)
		}
		m.Cancel(st.ID)
	}
	m.Close()

	// created_at is the record's last field: everything before it must match.
	withoutCreated := func(payload []byte) string {
		t.Helper()
		head, _, ok := bytes.Cut(payload, []byte(`"created_at":`))
		if !ok {
			t.Fatalf("KindJob payload %s has no created_at", payload)
		}
		return string(head)
	}
	got, want := jobPayloads(readJournal(t, dir)), jobPayloads(readJournal(t, "testdata/journal"))
	if len(got) != len(want) {
		t.Fatalf("journaled %d KindJob records, want %d", len(got), len(want))
	}
	for i := range got {
		if g, w := withoutCreated(got[i]), withoutCreated(want[i]); g != w {
			t.Errorf("KindJob payload %d = %s, want %s", i, g, w)
		}
	}
}

// TestJournalResumesSnapshotKeys: servers that shipped warm-up snapshots
// between nodes journaled a "snapshots" map of row names to snapshot keys
// in the KindJob payload. Such a journal still resumes: the key is ignored,
// the interrupted warm job's rows warm up themselves, and the set is
// byte-identical to an in-process warm sweep, and the store's old
// snapshots/ directory is left alone.
func TestJournalResumesSnapshotKeys(t *testing.T) {
	req := server.SweepRequest{
		Benchmarks:  []string{"compress", "vortex"},
		Models:      []string{"base", "FG+MLB-RET"},
		TargetInsts: 5_000,
		Warmup:      2_000,
	}
	want := sweepJSON(t, req, nil)
	var ref tracep.ResultSet
	if err := json.Unmarshal(want, &ref); err != nil {
		t.Fatal(err)
	}
	durable, ok := ref.Lookup("compress", "base")
	if !ok {
		t.Fatal("reference sweep has no compress/base cell")
	}
	cell, err := json.Marshal(durable)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	st, _, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	job := `{"benchmarks":["compress","vortex"],"models":["base","FG+MLB-RET"],"target_insts":5000,"warmup":2000,` +
		`"snapshots":{"compress":"` + strings.Repeat("5e", 32) + `"},"created_at":"2026-01-02T03:04:05Z"}`
	for _, rec := range []store.Record{
		{Kind: store.KindJob, JobID: "sw-1", Payload: []byte(job)},
		{Kind: store.KindCell, JobID: "sw-1", Payload: cell},
	} {
		if err := st.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// Those servers also kept snapshot images beside the journal.
	image := filepath.Join(dir, "snapshots", strings.Repeat("5e", 32)+".tpsnap")
	if err := os.MkdirAll(filepath.Dir(image), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(image, []byte("TPSNAP1\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	m, err := server.OpenManager(server.Config{Parallelism: 2, StoreDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if final := waitTerminal(t, m, "sw-1"); final.State != server.StateDone {
		t.Fatalf("resumed job finished %s, want done", final.State)
	}
	if n := metricInt(t, m, "jobs_resumed_total"); n != 1 {
		t.Errorf("jobs_resumed_total = %d, want 1", n)
	}
	if n := metricInt(t, m, "cells_completed_total"); n != 3 {
		t.Errorf("cells_completed_total = %d, want 3 (4 cells, 1 durable)", n)
	}
	if got := resultsJSON(t, m, "sw-1"); !bytes.Equal(got, want) {
		t.Errorf("resumed job differs from its in-process warm sweep:\n%s\n%s", got, want)
	}
	if _, err := os.Stat(image); err != nil {
		t.Errorf("snapshot image under the store was not left alone: %v", err)
	}
}

// TestSubmitIgnoresSnapshotKeys: a request body that still carries the
// retired "snapshots" field is admitted, and its rows warm up themselves
// with results byte-identical to an in-process warm sweep.
func TestSubmitIgnoresSnapshotKeys(t *testing.T) {
	m := server.NewManager(server.Config{Parallelism: 2})
	defer m.Close()
	ts := httptest.NewServer(m.Handler())
	defer ts.Close()

	body := `{"benchmarks":["compress"],"models":["base","FG"],"target_insts":5000,"warmup":2000,` +
		`"snapshots":{"compress":"` + strings.Repeat("5e", 32) + `"}}`
	if code, apiErr := postRaw(t, ts.URL, []byte(body)); code != http.StatusCreated {
		t.Fatalf("status %d, error %+v; want 201", code, apiErr)
	}
	if final := waitTerminal(t, m, "sw-1"); final.State != server.StateDone {
		t.Fatalf("job finished %s, want done", final.State)
	}
	want := sweepJSON(t, server.SweepRequest{
		Benchmarks:  []string{"compress"},
		Models:      []string{"base", "FG"},
		TargetInsts: 5_000,
		Warmup:      2_000,
	}, nil)
	if got := resultsJSON(t, m, "sw-1"); !bytes.Equal(got, want) {
		t.Errorf("job differs from its in-process warm sweep:\n%s\n%s", got, want)
	}
}
