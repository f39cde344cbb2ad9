package server

import (
	"expvar"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
)

// Observability: GET /metrics serves an expvar-style JSON document of the
// manager's operational state by default, or Prometheus text exposition
// when the client's Accept header asks for text/plain (the format
// Prometheus scrapers request). The map is private to the Manager (nothing
// is registered in expvar's process-global registry, so many Managers — and
// many tests — coexist), but every value is an expvar.Var, so the document
// renders exactly like /debug/vars and existing expvar scrapers parse it.
//
// Cumulative counters:
//
//	jobs_submitted_total    sweeps accepted by Submit
//	cells_completed_total   cells collected from runner streams (replayed
//	                        journal cells never count — the proof a
//	                        recovered job did not re-simulate)
//	cells_failed_total      completed cells carrying an error
//	stream_cells_sent_total cells written to /v1/sweeps/{id}/stream clients
//	jobs_recovered_total    terminal jobs rebuilt from the journal at open
//	jobs_resumed_total      interrupted jobs resumed from the journal
//	store_errors_total      journal appends/encodes that failed
//	store_truncated_bytes   torn-tail bytes discarded at journal open
//
// Gauges (computed at scrape time):
//
//	jobs_running      jobs whose grid is still completing
//	jobs_done         retained jobs that finished their grid
//	jobs_cancelled    retained jobs cancelled before completion
//	jobs_retained     all retained jobs (running + terminal)
//	gate_capacity     the shared simulation pool's slot count
//	gate_in_use       slots currently held by running simulations
func (m *Manager) initMetrics() {
	m.metrics = new(expvar.Map).Init()
	m.jobsSubmitted = new(expvar.Int)
	m.cellsCompleted = new(expvar.Int)
	m.cellsFailed = new(expvar.Int)
	m.streamCells = new(expvar.Int)
	m.jobsRecovered = new(expvar.Int)
	m.jobsResumed = new(expvar.Int)
	m.storeErrors = new(expvar.Int)
	m.storeTruncated = new(expvar.Int)
	m.metrics.Set("jobs_submitted_total", m.jobsSubmitted)
	m.metrics.Set("cells_completed_total", m.cellsCompleted)
	m.metrics.Set("cells_failed_total", m.cellsFailed)
	m.metrics.Set("stream_cells_sent_total", m.streamCells)
	m.metrics.Set("jobs_recovered_total", m.jobsRecovered)
	m.metrics.Set("jobs_resumed_total", m.jobsResumed)
	m.metrics.Set("store_errors_total", m.storeErrors)
	m.metrics.Set("store_truncated_bytes", m.storeTruncated)
	counts := func(pick func(State) bool) expvar.Func {
		return func() any {
			n := 0
			for _, st := range m.List() {
				if pick(st.State) {
					n++
				}
			}
			return n
		}
	}
	m.metrics.Set("jobs_running", counts(func(s State) bool { return !s.Terminal() }))
	m.metrics.Set("jobs_done", counts(func(s State) bool { return s == StateDone }))
	m.metrics.Set("jobs_cancelled", counts(func(s State) bool { return s == StateCancelled }))
	m.metrics.Set("jobs_retained", counts(func(State) bool { return true }))
	m.metrics.Set("gate_capacity", expvar.Func(func() any { return m.gate.Cap() }))
	m.metrics.Set("gate_in_use", expvar.Func(func() any { return m.gate.InUse() }))
}

// Metrics returns the manager's expvar map, for embedding into a process
// that also publishes its own variables.
func (m *Manager) Metrics() *expvar.Map { return m.metrics }

func (m *Manager) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if wantsPrometheus(r.Header.Get("Accept")) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.WriteHeader(http.StatusOK)
		m.writePrometheus(w)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = io.WriteString(w, m.metrics.String())
}

// wantsPrometheus reports whether an Accept header asks for the Prometheus
// text exposition format. Prometheus scrapers send text/plain (optionally
// preceded by application/openmetrics-text); plain JSON consumers send
// application/json, */*, or nothing at all — those keep the expvar
// document, so existing scrapers see no change.
func wantsPrometheus(accept string) bool {
	for _, part := range strings.Split(accept, ",") {
		mediaType, _, _ := strings.Cut(strings.TrimSpace(part), ";")
		switch strings.TrimSpace(mediaType) {
		case "text/plain", "application/openmetrics-text":
			return true
		case "application/json":
			return false
		}
	}
	return false
}

// writePrometheus renders the metric map in Prometheus text exposition
// format (version 0.0.4). Every value in the map is numeric (expvar.Int or
// an int-returning expvar.Func), so each Var's String() is already a valid
// sample value. Names gain a tracepd_ prefix; the _total suffix convention
// distinguishes counters from gauges, matching how initMetrics names them.
func (m *Manager) writePrometheus(w io.Writer) {
	type sample struct{ name, value string }
	var samples []sample
	m.metrics.Do(func(kv expvar.KeyValue) {
		samples = append(samples, sample{"tracepd_" + kv.Key, kv.Value.String()})
	})
	sort.Slice(samples, func(i, j int) bool { return samples[i].name < samples[j].name })
	for _, s := range samples {
		kind := "gauge"
		if strings.HasSuffix(s.name, "_total") {
			kind = "counter"
		}
		fmt.Fprintf(w, "# TYPE %s %s\n%s %s\n", s.name, kind, s.name, s.value)
	}
}
