package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"tracep"
	"tracep/client"
	"tracep/server"
)

// newTestServer stands up a manager + httptest server and returns a client
// against it. Cleanup closes the HTTP server first, then drains the
// manager — proving no sweep workers outlive the test.
func newTestServer(t *testing.T, cfg server.Config) *client.Client {
	t.Helper()
	mgr := server.NewManager(cfg)
	ts := httptest.NewServer(mgr.Handler())
	t.Cleanup(func() {
		ts.Close()
		closed := make(chan struct{})
		go func() { mgr.Close(); close(closed) }()
		select {
		case <-closed:
		case <-time.After(30 * time.Second):
			t.Error("Manager.Close did not drain sweep workers within 30s — leaked workers")
		}
	})
	return client.New(ts.URL)
}

// TestSubmitStreamCollectRoundTrip is the tentpole guarantee: a sweep
// submitted over HTTP delivers every cell exactly once through the NDJSON
// stream, and the collected ResultSet marshals byte-identically to the
// same sweep run in-process.
func TestSubmitStreamCollectRoundTrip(t *testing.T) {
	c := newTestServer(t, server.Config{Parallelism: 2})

	req := server.SweepRequest{
		Benchmarks:  []string{"compress", "vortex"},
		Models:      []string{"base", "FG+MLB-RET"},
		TargetInsts: 5_000,
	}
	seen := make(map[string]int)
	remote, err := c.Run(context.Background(), req, func(res *tracep.Result) error {
		seen[res.Benchmark+"/"+res.Model]++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 4 {
		t.Fatalf("stream delivered %d distinct cells, want 4 (%v)", len(seen), seen)
	}
	for key, n := range seen {
		if n != 1 {
			t.Errorf("cell %s delivered %d times, want exactly once", key, n)
		}
	}
	if err := remote.Err(); err != nil {
		t.Fatal(err)
	}

	benches := []tracep.Benchmark{mustBench(t, "compress"), mustBench(t, "vortex")}
	local, err := (&tracep.Sweep{
		Benchmarks:  benches,
		Models:      []tracep.Model{tracep.ModelBase, tracep.ModelFGMLBRET},
		TargetInsts: 5_000,
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
		t.Errorf("remote and in-process ResultSet JSON differ:\nremote: %s\nlocal:  %s", remoteJSON, localJSON)
	}
}

// TestStreamReconnectReplaysFinishedSweep: the cell log is retained, so a
// client connecting (twice) after the sweep finished still receives every
// cell exactly once per connection, terminated by a done event.
func TestStreamReconnectReplaysFinishedSweep(t *testing.T) {
	c := newTestServer(t, server.Config{Parallelism: 2})

	req := server.SweepRequest{
		Benchmarks:  []string{"compress"},
		Models:      []string{"base", "FG"},
		TargetInsts: 4_000,
	}
	st, err := c.Submit(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	// Drain a first stream to completion: the job is now terminal.
	if _, err := c.Stream(context.Background(), st.ID, nil); err != nil {
		t.Fatal(err)
	}

	for round := 0; round < 2; round++ {
		seen := make(map[string]int)
		final, err := c.Stream(context.Background(), st.ID, func(res *tracep.Result) error {
			seen[res.Benchmark+"/"+res.Model]++
			return nil
		})
		if err != nil {
			t.Fatalf("reconnect %d: %v", round, err)
		}
		if final.State != server.StateDone {
			t.Errorf("reconnect %d: final state = %s, want done", round, final.State)
		}
		if final.Completed != 2 || len(seen) != 2 {
			t.Errorf("reconnect %d: replayed %d cells (status says %d), want 2", round, len(seen), final.Completed)
		}
		for key, n := range seen {
			if n != 1 {
				t.Errorf("reconnect %d: cell %s replayed %d times, want once", round, key, n)
			}
		}
	}

	// The collected set is also still fetchable, and identical to a fresh
	// in-process run.
	rs, err := c.ResultSet(context.Background(), st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Len() != 2 {
		t.Errorf("retained ResultSet has %d cells, want 2", rs.Len())
	}
}

// TestDeleteMidStreamCancelsPromptly: DELETE while cells are in flight
// must terminate the stream with a cancelled done event promptly, and the
// manager must be able to drain all workers right after — nothing leaks.
func TestDeleteMidStreamCancelsPromptly(t *testing.T) {
	c := newTestServer(t, server.Config{Parallelism: 2})

	// Budgets big enough that the full grid takes many seconds.
	req := server.SweepRequest{TargetInsts: 2_000_000}
	st, err := c.Submit(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if st.Total != 64 {
		t.Fatalf("default grid total = %d, want 64 (8 benchmarks x 8 models)", st.Total)
	}

	type streamEnd struct {
		final *server.Status
		seen  map[string]int
		err   error
	}
	endCh := make(chan streamEnd, 1)
	go func() {
		seen := make(map[string]int)
		final, err := c.Stream(context.Background(), st.ID, func(res *tracep.Result) error {
			seen[res.Benchmark+"/"+res.Model]++
			return nil
		})
		endCh <- streamEnd{final: final, seen: seen, err: err}
	}()

	time.Sleep(200 * time.Millisecond)
	cancelled, err := c.Cancel(context.Background(), st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if cancelled.State != server.StateCancelled {
		t.Errorf("state after DELETE = %s, want cancelled", cancelled.State)
	}
	if cancelled.Completed >= cancelled.Total {
		t.Errorf("cancelled sweep completed %d/%d cells, want a partial grid", cancelled.Completed, cancelled.Total)
	}

	select {
	case end := <-endCh:
		if end.err != nil {
			t.Fatalf("stream after DELETE: %v", end.err)
		}
		if end.final.State != server.StateCancelled {
			t.Errorf("stream done event state = %s, want cancelled", end.final.State)
		}
		for key, n := range end.seen {
			if n != 1 {
				t.Errorf("cell %s delivered %d times, want exactly once", key, n)
			}
		}
		// In-flight cells at cancel time land as failed cells with a
		// cancellation error, exactly like Sweep.Stream in-process.
		rs, err := c.ResultSet(context.Background(), st.ID)
		if err != nil {
			t.Fatal(err)
		}
		// Wrapped sentinels don't survive the wire; match on text.
		for _, res := range rs.Results() {
			if res.Error != "" && !contains(res.Error, "context canceled") {
				t.Errorf("cell %s/%s failed with %q, want a cancellation", res.Benchmark, res.Model, res.Error)
			}
		}
	case <-time.After(20 * time.Second):
		t.Fatal("stream did not terminate within 20s of DELETE")
	}

	// A second DELETE of a terminal job is a no-op with the same status.
	again, err := c.Cancel(context.Background(), st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if again.State != server.StateCancelled || again.Completed != cancelled.Completed {
		t.Errorf("repeated DELETE changed status: %+v vs %+v", again, cancelled)
	}
}

// TestConcurrentSweepsShareOnePool: two grids submitted back to back both
// complete under a pool of 1 — the shared gate serialises them instead of
// oversubscribing the host or deadlocking.
func TestConcurrentSweepsShareOnePool(t *testing.T) {
	c := newTestServer(t, server.Config{Parallelism: 1})

	req := server.SweepRequest{
		Benchmarks:  []string{"compress"},
		Models:      []string{"base", "FG"},
		TargetInsts: 3_000,
	}
	st1, err := c.Submit(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	st2, err := c.Submit(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{st1.ID, st2.ID} {
		final, err := c.Stream(context.Background(), id, nil)
		if err != nil {
			t.Fatal(err)
		}
		if final.State != server.StateDone || final.Completed != 2 {
			t.Errorf("sweep %s finished %+v, want done with 2 cells", id, final)
		}
	}
}

// TestSubmitValidation: unknown names are 400s with a JSON error body, and
// unknown job IDs are 404s.
func TestSubmitValidation(t *testing.T) {
	c := newTestServer(t, server.Config{Parallelism: 1})

	_, err := c.Submit(context.Background(), server.SweepRequest{Benchmarks: []string{"nonesuch"}})
	var apiErr *server.Error
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown benchmark error = %v, want 400 *server.Error", err)
	}
	_, err = c.Submit(context.Background(), server.SweepRequest{Models: []string{"nonesuch"}})
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown model error = %v, want 400 *server.Error", err)
	}
	_, err = c.Status(context.Background(), "sw-999")
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusNotFound {
		t.Errorf("unknown id error = %v, want 404 *server.Error", err)
	}
}

// TestSubmitBodyLimit: an oversized POST /v1/sweeps body is refused with a
// typed 413 before it is decoded in full; a malformed one is a 400.
// postRaw POSTs body to url's /v1/sweeps and returns the status code and
// the response decoded as an Error (zero for a success body).
func postRaw(t *testing.T, url string, body []byte) (int, server.Error) {
	t.Helper()
	resp, err := http.Post(url+"/v1/sweeps", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var apiErr server.Error
	if err := json.NewDecoder(resp.Body).Decode(&apiErr); err != nil {
		t.Fatalf("status %d: body is not JSON: %v", resp.StatusCode, err)
	}
	return resp.StatusCode, apiErr
}

func TestSubmitBodyLimit(t *testing.T) {
	mgr := server.NewManager(server.Config{Parallelism: 1})
	defer mgr.Close()
	ts := httptest.NewServer(mgr.Handler())
	defer ts.Close()

	// A syntactically valid request padded past the limit with seeds.
	big := append([]byte(`{"benchmarks":["compress"],"seeds":[`), bytes.Repeat([]byte("1,"), 1<<20)...)
	big = append(big, []byte("1]}")...)
	if code, apiErr := postRaw(t, ts.URL, big); code != http.StatusRequestEntityTooLarge || apiErr.StatusCode != code {
		t.Errorf("oversized body: status %d, error %+v; want 413", code, apiErr)
	}
	if code, apiErr := postRaw(t, ts.URL, []byte(`{"benchmarks":`)); code != http.StatusBadRequest || apiErr.StatusCode != code {
		t.Errorf("malformed body: status %d, error %+v; want 400", code, apiErr)
	}
}

// TestSubmitInstructionBudget: a sweep whose cells × target_insts plus rows
// × warm-up exceeds the admission bound is a typed 400, whichever term
// carries it, and even where the product overflows 64 bits. A small sweep
// is admitted.
func TestSubmitInstructionBudget(t *testing.T) {
	mgr := server.NewManager(server.Config{Parallelism: 1})
	defer mgr.Close()
	ts := httptest.NewServer(mgr.Handler())
	defer ts.Close()

	for name, body := range map[string]string{
		"target":       `{"benchmarks":["compress"],"models":["base"],"target_insts":2000000000000}`,
		"overflow":     `{"benchmarks":["compress"],"models":["base","FG"],"target_insts":18446744073709551615}`,
		"seeds x grid": `{"target_insts":200000000,"seeds":[1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,17,18,19,20,21,22,23,24,25,26,27,28,29,30,31,32,33,34,35,36,37,38,39,40,41,42,43,44,45,46,47,48,49,50,51,52,53,54,55,56,57,58,59,60,61,62,63,64,65,66,67,68,69,70,71,72,73,74,75,76,77,78,79,80]}`,
		"warmup":       `{"benchmarks":["compress"],"models":["base"],"target_insts":1000,"warmup":2000000000000}`,
		"warmup_for":   `{"benchmarks":["compress","vortex"],"models":["base"],"target_insts":1000,"warmup_for":{"vortex":2000000000000}}`,
	} {
		code, apiErr := postRaw(t, ts.URL, []byte(body))
		if code != http.StatusBadRequest || apiErr.StatusCode != code || !strings.Contains(apiErr.Message, "instructions") {
			t.Errorf("%s: status %d, error %+v; want a typed 400 naming the instruction budget", name, code, apiErr)
		}
	}
	if code, apiErr := postRaw(t, ts.URL, []byte(`{"benchmarks":["compress"],"models":["base"],"target_insts":2000}`)); code != http.StatusCreated {
		t.Errorf("small sweep: status %d, error %+v; want 201", code, apiErr)
	}
}

// TestRetentionEvictsOldestTerminal: with Retain=1 only the newest
// terminal job stays queryable; live jobs are never evicted.
func TestRetentionEvictsOldestTerminal(t *testing.T) {
	c := newTestServer(t, server.Config{Parallelism: 2, Retain: 1})

	req := server.SweepRequest{
		Benchmarks:  []string{"compress"},
		Models:      []string{"base"},
		TargetInsts: 2_000,
	}
	var ids []string
	for i := 0; i < 3; i++ {
		st, err := c.Submit(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Stream(context.Background(), st.ID, nil); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}

	// Eviction happens on submit; submit one more to trigger it.
	last, err := c.Submit(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Stream(context.Background(), last.ID, nil); err != nil {
		t.Fatal(err)
	}

	var apiErr *server.Error
	for _, id := range ids[:2] {
		if _, err := c.Status(context.Background(), id); !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusNotFound {
			t.Errorf("evicted job %s still queryable (err=%v)", id, err)
		}
	}
	if _, err := c.Status(context.Background(), ids[2]); err != nil {
		t.Errorf("retained job %s: %v", ids[2], err)
	}
}

// TestStreamContentType pins the NDJSON content type and line-per-event
// framing at the HTTP level, independent of the Go client.
func TestStreamContentType(t *testing.T) {
	mgr := server.NewManager(server.Config{Parallelism: 2})
	defer mgr.Close()
	ts := httptest.NewServer(mgr.Handler())
	defer ts.Close()

	st, err := mgr.Submit(server.SweepRequest{
		Benchmarks:  []string{"compress"},
		Models:      []string{"base"},
		TargetInsts: 2_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/v1/sweeps/" + st.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get("Content-Type"); got != "application/x-ndjson" {
		t.Errorf("stream Content-Type = %q, want application/x-ndjson", got)
	}
	dec := json.NewDecoder(resp.Body)
	var cells, dones int
	for {
		var ev server.StreamEvent
		if err := dec.Decode(&ev); err != nil {
			break
		}
		switch {
		case ev.Cell != nil:
			cells++
		case ev.Done != nil:
			dones++
		}
	}
	if cells != 1 || dones != 1 {
		t.Errorf("stream framed %d cells + %d done events, want 1 + 1", cells, dones)
	}
}

func mustBench(t *testing.T, name string) tracep.Benchmark {
	t.Helper()
	bm, err := tracep.BenchmarkByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return bm
}

func contains(s, sub string) bool {
	return bytes.Contains([]byte(s), []byte(sub))
}
