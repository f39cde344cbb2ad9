// Package server is tracepd's engine: a bounded job manager over
// tracep.Sweep plus the HTTP API that exposes it. It turns the in-process
// channel contract — Sweep.Stream's exactly-once, cancellation-safe cell
// delivery — into a network service without changing its semantics: the
// server's collector goroutine is just another Stream consumer, and every
// cell a client receives is a tracep.Result serialised with the root
// package's JSON.
//
// # Endpoints
//
//	POST   /v1/sweeps             submit a benchmark×model grid (SweepRequest) -> 201 + Status
//	GET    /v1/sweeps             list retained jobs (submission order)
//	GET    /v1/sweeps/{id}        one job's Status including the collected ResultSet
//	GET    /v1/sweeps/{id}/stream NDJSON stream of StreamEvents: each completed
//	                              cell exactly once (replayed from the start on
//	                              reconnection), then a terminal "done" event
//	DELETE /v1/sweeps/{id}        cancel the job's context; in-flight cells abort
//	                              and land as failed cells, unstarted cells never run
//	GET    /v1/corpus             list the server's recorded-trace workloads
//	                              (Config.Corpus / tracepd -corpus), referenced by
//	                              name via SweepRequest.Corpus
//	GET    /metrics               expvar-style JSON: job/cell counters and
//	                              shared-pool (Gate) occupancy; with an Accept
//	                              header preferring text/plain, Prometheus text
//	                              exposition instead; see metrics.go
//
// Every body is compact JSON. Errors are JSON Error bodies with matching
// HTTP status codes; requesting a corpus workload the server does not hold
// is a 404. A terminal job's GET /v1/sweeps/{id} body is encoded once, by
// the first such GET, and served as stored bytes after that (job.final).
//
// # Concurrency model
//
// Every job runs its own tracep.Sweep, but all jobs share one tracep.Gate
// sized by Config.Parallelism, so N concurrent clients cannot oversubscribe
// the host: at most Parallelism simulations run at once machine-wide, and
// cells beyond that queue fairly at the gate. Completed jobs are retained
// (Config.Retain, oldest-terminal-first eviction) so a client can
// reconnect to a finished sweep and replay its full stream, or diff its
// ResultSet against a later run.
package server

import (
	"encoding/json"
	"net/http"
	"strconv"
)

// maxSweepRequestBytes bounds POST /v1/sweeps bodies. A request names
// benchmarks, models, seeds and per-row warm-ups, so a mebibyte is far
// above any real grid.
const maxSweepRequestBytes = 1 << 20

// Handler returns the tracepd HTTP API over m, routed with Go 1.22 method
// patterns. It can be mounted directly on http.Server or wrapped with
// middleware.
func (m *Manager) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sweeps", m.handleSubmit)
	mux.HandleFunc("GET /v1/sweeps", m.handleList)
	mux.HandleFunc("GET /v1/sweeps/{id}", m.handleStatus)
	mux.HandleFunc("GET /v1/sweeps/{id}/stream", m.handleStream)
	mux.HandleFunc("DELETE /v1/sweeps/{id}", m.handleCancel)
	mux.HandleFunc("GET /v1/corpus", m.handleCorpus)
	mux.HandleFunc("GET /metrics", m.handleMetrics)
	return mux
}

// writeJSON writes v as compact JSON (the bytes json.Marshal produces) and
// a newline; a reader such as jq indents it.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, err error) {
	if apiErr, ok := err.(*Error); ok {
		writeJSON(w, apiErr.StatusCode, apiErr)
		return
	}
	writeJSON(w, http.StatusInternalServerError,
		&Error{StatusCode: http.StatusInternalServerError, Message: err.Error()})
}

func writeNotFound(w http.ResponseWriter, id string) {
	writeJSON(w, http.StatusNotFound,
		&Error{StatusCode: http.StatusNotFound, Message: "no such sweep: " + id})
}

func (m *Manager) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req SweepRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSweepRequestBytes)).Decode(&req); err != nil {
		code := http.StatusBadRequest
		if _, ok := err.(*http.MaxBytesError); ok {
			code = http.StatusRequestEntityTooLarge
		}
		writeError(w, &Error{StatusCode: code, Message: "bad request body: " + err.Error()})
		return
	}
	st, err := m.Submit(req)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, st)
}

func (m *Manager) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, m.List())
}

func (m *Manager) handleCorpus(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, m.Corpus())
}

func (m *Manager) handleStatus(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j, ok := m.get(id)
	if !ok {
		writeNotFound(w, id)
		return
	}
	body, err := j.statusJSON()
	if err != nil {
		writeError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
}

func (m *Manager) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	st, ok := m.Cancel(id)
	if !ok {
		writeNotFound(w, id)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// handleStream writes NDJSON StreamEvents: the job's full cell log from
// the beginning (so reconnecting to a finished sweep replays everything),
// then follows live completions, then a final done event. Each line is
// flushed as it lands so clients see cells the moment they complete.
func (m *Manager) handleStream(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j, ok := m.get(id)
	if !ok {
		writeNotFound(w, id)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)

	for i := 0; ; i++ {
		cell, terminal, err := j.await(r.Context(), i)
		if err != nil {
			return // client went away
		}
		if terminal {
			st := j.snapshot(false)
			_ = enc.Encode(StreamEvent{Done: &st})
			if flusher != nil {
				flusher.Flush()
			}
			return
		}
		if err := enc.Encode(StreamEvent{Cell: cell}); err != nil {
			return
		}
		m.streamCells.Add(1)
		if flusher != nil {
			flusher.Flush()
		}
	}
}
