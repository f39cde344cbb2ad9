package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"tracep"
	"tracep/client"
	"tracep/server"
)

// getStatus fetches GET /v1/sweeps/{id} and returns its code and raw body.
func getStatus(t testing.TB, baseURL, id string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(baseURL + "/v1/sweeps/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode == http.StatusOK {
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Fatalf("GET %s Content-Type = %q, want application/json", id, ct)
		}
	}
	return resp.StatusCode, body
}

// TestStatusEncodedOnceWhenTerminal pins GET /v1/sweeps/{id}'s read path: a
// running job is encoded per request (successive reads show its grid
// filling), a terminal job answers with the compact JSON of its final
// Status, the same bytes on every read, that body decodes to the in-process
// ResultSet, and an evicted job's bytes go with it (404).
func TestStatusEncodedOnceWhenTerminal(t *testing.T) {
	mgr := server.NewManager(server.Config{Parallelism: 1, Retain: 1})
	ts := httptest.NewServer(mgr.Handler())
	t.Cleanup(func() {
		ts.Close()
		mgr.Close()
	})

	const insts = 50_000
	models := tracep.Models()
	req := server.SweepRequest{
		Benchmarks:  []string{"compress"},
		Models:      modelNameList(models),
		TargetInsts: insts,
	}
	st, err := mgr.Submit(req)
	if err != nil {
		t.Fatal(err)
	}

	// One cell simulates at a time, so reads taken while the job runs must
	// see completed grow; a body frozen at the first read never would.
	seen := map[int]bool{}
	last := -1
	for {
		ended, _ := mgr.Status(st.ID, false)
		code, body := getStatus(t, ts.URL, st.ID)
		if code != http.StatusOK {
			t.Fatalf("GET running job: HTTP %d: %s", code, body)
		}
		var got server.Status
		if err := json.Unmarshal(body, &got); err != nil {
			t.Fatal(err)
		}
		if ended.State.Terminal() && got.State != ended.State {
			t.Fatalf("GET after the job ended %s reads %s (completed %d)", ended.State, got.State, got.Completed)
		}
		if got.State.Terminal() {
			break
		}
		if got.Completed < last {
			t.Fatalf("completed went from %d to %d while the job ran", last, got.Completed)
		}
		last = got.Completed
		seen[got.Completed] = true
	}
	if len(seen) < 2 {
		t.Fatalf("reads of the running job saw completed values %v, want at least two", seen)
	}

	final := waitTerminal(t, mgr, st.ID)
	if final.State != server.StateDone {
		t.Fatalf("job finished %s, want done", final.State)
	}
	_, first := getStatus(t, ts.URL, st.ID)
	fresh, ok := mgr.Status(st.ID, true)
	if !ok {
		t.Fatal("finished job not found")
	}
	want, err := json.Marshal(fresh)
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n')
	if !bytes.Equal(first, want) {
		t.Fatalf("terminal GET body differs from the compact JSON of its Status:\ngot:  %.200s\nwant: %.200s", first, want)
	}
	for i := 0; i < 3; i++ {
		if _, again := getStatus(t, ts.URL, st.ID); !bytes.Equal(again, first) {
			t.Fatalf("read %d of the finished job returned different bytes", i+2)
		}
	}

	rs, err := client.New(ts.URL).ResultSet(context.Background(), st.ID)
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(rs)
	if err != nil {
		t.Fatal(err)
	}
	if local := inProcessJSON(t, req.Benchmarks, models, insts, 0); !bytes.Equal(got, local) {
		t.Error("client.ResultSet of the finished job differs from the in-process Sweep")
	}

	// Retain 1: a second finished job, then a third submission, evicts the
	// first. The second job's first reads race each other to store its
	// body; every one must get the same bytes.
	finish := func() string {
		t.Helper()
		next, err := mgr.Submit(server.SweepRequest{Benchmarks: []string{"compress"}, Models: []string{"base"}, TargetInsts: 2_000})
		if err != nil {
			t.Fatal(err)
		}
		waitTerminal(t, mgr, next.ID)
		return next.ID
	}
	second := finish()
	bodies := make([][]byte, 4)
	var wg sync.WaitGroup
	for r := range bodies {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Get(ts.URL + "/v1/sweeps/" + second)
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			bodies[r], _ = io.ReadAll(resp.Body)
		}()
	}
	wg.Wait()
	for r := range bodies {
		if len(bodies[r]) == 0 || !bytes.Equal(bodies[r], bodies[0]) {
			t.Fatalf("concurrent first reads of %s returned different bytes", second)
		}
	}
	finish()
	if code, body := getStatus(t, ts.URL, st.ID); code != http.StatusNotFound {
		t.Fatalf("evicted job: HTTP %d, want 404: %.200s", code, body)
	}
}

// finishedReadSweep runs the sweep the read benchmarks read — one
// benchmark × eight models × 5,000 instructions — on a tracepd over
// loopback, and returns a client of it and the finished job's ID.
func finishedReadSweep(b *testing.B) (*client.Client, *httptest.Server, string) {
	mgr := server.NewManager(server.Config{Parallelism: 2})
	ts := httptest.NewServer(mgr.Handler())
	b.Cleanup(func() {
		ts.Close()
		mgr.Close()
	})
	c := client.New(ts.URL)
	st, err := mgr.Submit(server.SweepRequest{
		Benchmarks:  []string{"compress"},
		Models:      modelNameList(tracep.Models()),
		TargetInsts: 5_000,
	})
	if err != nil {
		b.Fatal(err)
	}
	if final, err := c.Stream(context.Background(), st.ID, nil); err != nil || final.State != server.StateDone {
		b.Fatalf("setup sweep: %v (%+v)", err, final)
	}
	return c, ts, st.ID
}

// BenchmarkStatusRead times the service's common request: a client reading
// a finished sweep's ResultSet (GET /v1/sweeps/{id} plus decoding), over
// loopback, for one benchmark × eight models × 5,000 instructions.
func BenchmarkStatusRead(b *testing.B) {
	c, _, id := finishedReadSweep(b)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.ResultSet(ctx, id); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkResultSetDecode times BenchmarkStatusRead's decoding alone: the
// finished 8-cell status body, read as client.ResultSet reads it, with no
// HTTP.
func BenchmarkResultSetDecode(b *testing.B) {
	_, ts, id := finishedReadSweep(b)
	code, body := getStatus(b, ts.URL, id)
	if code != http.StatusOK {
		b.Fatalf("GET %s: HTTP %d", id, code)
	}
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rs, err := tracep.DecodeResultSetMember(body, "results")
		if err != nil || rs.Len() != 8 {
			b.Fatalf("decoded %v, %v", rs, err)
		}
	}
}
