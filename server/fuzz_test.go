package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"tracep"
	"tracep/server"
)

// noopRunner admits rows and simulates none: its stream closes at once, so
// an admitted job ends cancelled without running a cell.
type noopRunner struct{}

func (noopRunner) Run(context.Context, []server.RowSpec) <-chan *tracep.Result {
	ch := make(chan *tracep.Result)
	close(ch)
	return ch
}

// FuzzSweepRequest is the submission path's robustness gate: whatever body
// arrives at POST /v1/sweeps, the server either admits a job (201 with a
// Status) or refuses it with a typed 4xx Error whose status_code matches
// the response. A 5xx or a dropped connection (a panicking handler) fails.
// The path covers JSON decode, the 1 MiB body cap, name resolution,
// warmup_for keys, Tolerances.Validate and the instruction budget; the
// no-op Runner keeps admitted jobs from simulating.
func FuzzSweepRequest(f *testing.F) {
	// The committed corpus (testdata/fuzz/FuzzSweepRequest) holds the small
	// bodies; a body past the cap is built here rather than committed.
	oversize := append([]byte(`{"benchmarks":["compress"]`), bytes.Repeat([]byte(" "), 1<<20)...)
	f.Add(append(oversize, '}'))

	mgr := server.NewManager(server.Config{Parallelism: 1, Runner: noopRunner{}})
	ts := httptest.NewServer(mgr.Handler())
	f.Cleanup(func() {
		ts.Close()
		mgr.Close()
	})
	f.Fuzz(func(t *testing.T, body []byte) {
		resp, err := ts.Client().Post(ts.URL+"/v1/sweeps", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("POST /v1/sweeps: %v", err)
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("reading response: %v", err)
		}
		switch code := resp.StatusCode; {
		case code == http.StatusCreated:
			var st server.Status
			if err := json.Unmarshal(data, &st); err != nil || st.ID == "" {
				t.Fatalf("201 body is not a Status (%v): %s", err, data)
			}
		case code >= 400 && code < 500:
			var apiErr server.Error
			if err := json.Unmarshal(data, &apiErr); err != nil || apiErr.StatusCode != code || apiErr.Message == "" {
				t.Fatalf("HTTP %d body is not a typed Error (%v): %s", code, err, data)
			}
		default:
			t.Fatalf("HTTP %d, want 201 or a 4xx: %s", code, data)
		}
	})
}
