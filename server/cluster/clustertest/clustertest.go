// Package clustertest stands up in-process worker tracepds with
// injectable faults, for chaos-testing the cluster coordinator. A Worker
// is a real server.Manager behind a real httptest.Server — the coordinator
// talks to it over actual HTTP — with a middleware that can make the
// worker's NDJSON cell stream misbehave in the ways a distributed sweep
// must survive:
//
//   - FaultDieMidStream: the connection is severed after the first stream
//     line, as if the worker process died mid-cell.
//   - FaultHang: the stream request blocks forever (until the client gives
//     up), as if the worker wedged — the case work-stealing exists for.
//   - FaultCorrupt: the first stream line is scrambled into non-JSON, as
//     if the payload was damaged in transit.
//   - FaultHoldSubmit: a sweep POST runs the real handler, so the job
//     exists and starts, but the response is withheld until Release is
//     called or the client gives up, as if the reply were slow on the
//     wire. A client that gives up never learns the job's ID.
//
// Die, corrupt and hold are one-shot (the fault clears once it fires, so
// the retry that follows sees a healthy worker); hang is sticky (a wedged
// worker stays wedged — recovery must come from stealing, not retrying).
// Kill tears the whole worker down mid-flight: every open connection is
// severed and the listener closed, so subsequent placements get connection
// errors, exactly like a crashed node.
package clustertest

import (
	"bytes"
	"maps"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"tracep/server"
)

// Fault selects a stream misbehaviour; see the package comment.
type Fault int

const (
	FaultNone Fault = iota
	FaultDieMidStream
	FaultHang
	FaultCorrupt
	FaultHoldSubmit
)

// Worker is a fault-injectable in-process worker tracepd.
type Worker struct {
	// Manager is the worker's real manager — tests can inspect its metrics
	// and job list directly.
	Manager *server.Manager

	ts *httptest.Server

	mu      sync.Mutex
	fault   Fault
	fired   bool
	release chan struct{} // closed by Release; renewed by SetFault
}

// NewWorker starts a worker over cfg. Cleanup (registered on t) closes the
// HTTP server and drains the manager; Kill earlier is fine.
func NewWorker(t testing.TB, cfg server.Config) *Worker {
	t.Helper()
	w := &Worker{Manager: server.NewManager(cfg), release: make(chan struct{})}
	w.ts = httptest.NewServer(http.HandlerFunc(w.serve))
	t.Cleanup(func() {
		w.ts.Close()
		closed := make(chan struct{})
		go func() { w.Manager.Close(); close(closed) }()
		select {
		case <-closed:
		case <-time.After(30 * time.Second):
			t.Error("clustertest: worker manager did not drain within 30s")
		}
	})
	return w
}

// URL returns the worker's base URL for cluster.Config.Workers.
func (w *Worker) URL() string { return w.ts.URL }

// SetFault arms the next stream request with f.
func (w *Worker) SetFault(f Fault) {
	w.mu.Lock()
	w.fault = f
	w.fired = false
	w.release = make(chan struct{})
	w.mu.Unlock()
}

// Release lets a response held by FaultHoldSubmit go to its client, if the
// client is still waiting for it.
func (w *Worker) Release() {
	w.mu.Lock()
	defer w.mu.Unlock()
	select {
	case <-w.release:
	default:
		close(w.release)
	}
}

// Fired reports whether an armed fault has been claimed by a request
// since the last SetFault — how a test knows the injected failure
// actually happened (e.g. to time a Kill right after a die fault fires).
func (w *Worker) Fired() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.fired
}

// Kill severs every open connection and stops the listener — the HTTP
// appearance of a crashed worker. The manager keeps draining in the
// background (its cleanup still runs); only the network face dies.
func (w *Worker) Kill() {
	w.ts.CloseClientConnections()
	w.ts.Close()
}

// takeFault claims the armed fault for one request if it applies there:
// FaultHoldSubmit to a sweep POST, every other fault to a stream GET.
// One-shot faults clear on claim; FaultHang stays armed.
func (w *Worker) takeFault(submit bool) Fault {
	w.mu.Lock()
	defer w.mu.Unlock()
	f := w.fault
	if f == FaultNone || submit != (f == FaultHoldSubmit) {
		return FaultNone
	}
	w.fired = true
	if f != FaultHang {
		w.fault = FaultNone
	}
	return f
}

// serve is the fault middleware over the manager's real handler. Faults
// apply to the NDJSON stream endpoint — the path the coordinator's
// exactly-once and steal machinery actually defends — except
// FaultHoldSubmit, which applies to the sweep POST.
func (w *Worker) serve(rw http.ResponseWriter, r *http.Request) {
	h := w.Manager.Handler()
	if r.Method == http.MethodPost && r.URL.Path == "/v1/sweeps" {
		if w.takeFault(true) == FaultHoldSubmit {
			w.holdSubmit(h, rw, r)
			return
		}
		h.ServeHTTP(rw, r)
		return
	}
	if r.Method != http.MethodGet || !strings.HasSuffix(r.URL.Path, "/stream") {
		h.ServeHTTP(rw, r)
		return
	}
	switch w.takeFault(false) {
	case FaultDieMidStream:
		h.ServeHTTP(&dieWriter{rw: rw}, r)
	case FaultHang:
		// Never answer; release the handler goroutine when the client
		// disconnects or the test tears the server down.
		<-r.Context().Done()
	case FaultCorrupt:
		h.ServeHTTP(&corruptWriter{rw: rw}, r)
	default:
		h.ServeHTTP(rw, r)
	}
}

// holdSubmit runs the real POST handler, then keeps its response until
// Release or until the client disconnects, whichever comes first.
func (w *Worker) holdSubmit(h http.Handler, rw http.ResponseWriter, r *http.Request) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, r)
	w.mu.Lock()
	release := w.release
	w.mu.Unlock()
	select {
	case <-release:
	case <-r.Context().Done():
		return
	}
	maps.Copy(rw.Header(), rec.Header())
	rw.WriteHeader(rec.Code)
	_, _ = rw.Write(rec.Body.Bytes())
}

// dieWriter lets exactly one stream line through, then aborts the
// connection: the client sees a cell land and then the stream cut with no
// done event.
type dieWriter struct {
	rw    http.ResponseWriter
	lines int
}

func (d *dieWriter) Header() http.Header  { return d.rw.Header() }
func (d *dieWriter) WriteHeader(code int) { d.rw.WriteHeader(code) }
func (d *dieWriter) Flush()               { flush(d.rw) }
func (d *dieWriter) Write(p []byte) (int, error) {
	if d.lines >= 1 {
		panic(http.ErrAbortHandler)
	}
	n, err := d.rw.Write(p)
	d.lines += bytes.Count(p[:n], []byte("\n"))
	return n, err
}

// corruptWriter scrambles the first stream line into non-JSON of the same
// length (so framing survives but decoding cannot), then passes the rest
// through untouched.
type corruptWriter struct {
	rw        http.ResponseWriter
	corrupted bool
}

func (c *corruptWriter) Header() http.Header  { return c.rw.Header() }
func (c *corruptWriter) WriteHeader(code int) { c.rw.WriteHeader(code) }
func (c *corruptWriter) Flush()               { flush(c.rw) }
func (c *corruptWriter) Write(p []byte) (int, error) {
	if c.corrupted || len(bytes.TrimSpace(p)) == 0 {
		return c.rw.Write(p)
	}
	c.corrupted = true
	garbled := bytes.Repeat([]byte("#"), len(p))
	if p[len(p)-1] == '\n' {
		garbled[len(p)-1] = '\n'
	}
	if n, err := c.rw.Write(garbled); err != nil {
		return n, err
	}
	return len(p), nil
}

func flush(rw http.ResponseWriter) {
	if f, ok := rw.(http.Flusher); ok {
		f.Flush()
	}
}
