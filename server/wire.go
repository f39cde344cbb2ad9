package server

import (
	"fmt"
	"time"

	"tracep"
)

// The wire format. Everything tracepd sends or accepts is defined here, in
// terms of the root package's JSON-stable types: cells travel as
// tracep.Result and collected grids as tracep.ResultSet, so a remote sweep
// serialises byte-identically to the same sweep run in-process — the
// channel contract (Sweep.Stream) and its JSON shape are the single source
// of truth for both.

// SweepRequest is the body of POST /v1/sweeps and the one description of a
// (benchmark × model) grid by name: tracepd, its journal resume and
// cmd/experiments all turn it into rows and models with Resolve. Empty
// Benchmarks or Models mean "all eight" — the paper's full §6
// cross-product.
type SweepRequest struct {
	// Benchmarks names suite workloads and scenario instances such as
	// "mixed-2" (tracep.BenchmarkByName); empty = the full eight-workload
	// suite — unless Corpus selects recorded workloads, in which case empty
	// Benchmarks means "corpus only".
	Benchmarks []string `json:"benchmarks,omitempty"`
	// Corpus names recorded-trace workloads from the server's corpus
	// directory (tracepd -corpus; GET /v1/corpus lists them). Corpus rows
	// are appended after Benchmarks rows in the grid. An unknown name is a
	// 404 with a typed Error body.
	Corpus []string `json:"corpus,omitempty"`
	// Models names experimental models (tracep.ModelByName); empty = all
	// eight models of §6.
	Models []string `json:"models,omitempty"`
	// TargetInsts sizes each workload (like tracep.Sweep.TargetInsts);
	// 0 = the server's default.
	TargetInsts uint64 `json:"target_insts,omitempty"`
	// Seed scrambles initial predictor state (tracep.Config.Seed). The
	// single-replicate degenerate case of Seeds, exactly as on tracep.Sweep.
	Seed int64 `json:"seed,omitempty"`
	// Seeds, when non-empty, replicates every (benchmark, model) cell once
	// per seed (tracep.Sweep.Seeds): cells stream back carrying their seed,
	// and the collected ResultSet aggregates them into mean±CI CellStats.
	// Duplicates are ignored (first occurrence wins). Absent = one
	// replicate per cell under Seed, the pre-seeds wire shape bit-for-bit.
	Seeds []int64 `json:"seeds,omitempty"`
	// Warmup fast-forwards this many instructions functionally before each
	// cell's measured region; one warm-up snapshot per benchmark is shared
	// across the row's model cells (tracep.Sweep.Warmup).
	Warmup uint64 `json:"warmup,omitempty"`
	// WarmupFor overrides Warmup per benchmark row, keyed by benchmark
	// name (tracep.Sweep.WarmupFor). A missing key falls back to Warmup;
	// an explicit zero forces that row to run cold. Names must resolve
	// against the requested grid.
	WarmupFor map[string]uint64 `json:"warmup_for,omitempty"`
	// Tolerances optionally records the regression-gate tolerances the
	// submitter will diff the collected set under (tracep.ParseTolerances'
	// JSON shape). The server echoes it in Status — advisory metadata that
	// travels with the job so downstream gates agree on one encoding; the
	// diff itself still runs client-side. A negative bound is a 400.
	Tolerances *tracep.Tolerances `json:"tolerances,omitempty"`
}

// State is a sweep job's lifecycle phase.
type State string

const (
	// StateRunning: cells are still being simulated (or queued behind the
	// server's shared worker pool).
	StateRunning State = "running"
	// StateDone: every cell of the grid has been delivered.
	StateDone State = "done"
	// StateCancelled: the job was cancelled (DELETE, or server shutdown)
	// before the grid completed; the collected set is partial.
	StateCancelled State = "cancelled"
)

// Terminal reports whether no further cells will be delivered.
func (s State) Terminal() bool { return s == StateDone || s == StateCancelled }

// Status is one sweep job's externally visible state: the response body of
// POST /v1/sweeps and DELETE /v1/sweeps/{id}, the status part of GET
// /v1/sweeps/{id}, and the final event of a stream.
type Status struct {
	ID    string `json:"id"`
	State State  `json:"state"`

	// Benchmarks, Models and Seeds are the resolved grid axes in request
	// order — clients rebuild deterministic ResultSet ordering from them
	// (tracep.NewResultSetGrid), which is what makes a remotely collected
	// set byte-identical to an in-process one. Seeds is absent for
	// single-replicate jobs (request had no seeds axis).
	Benchmarks []string `json:"benchmarks"`
	Models     []string `json:"models"`
	Seeds      []int64  `json:"seeds,omitempty"`
	// Corpus echoes the recorded-trace workload names of the grid (a
	// subset of Benchmarks, which always carries the full row axis).
	Corpus      []string          `json:"corpus,omitempty"`
	TargetInsts uint64            `json:"target_insts"`
	Seed        int64             `json:"seed,omitempty"`
	Warmup      uint64            `json:"warmup,omitempty"`
	WarmupFor   map[string]uint64 `json:"warmup_for,omitempty"`
	// Tolerances echoes the request's advisory gate tolerances, when given.
	Tolerances *tracep.Tolerances `json:"tolerances,omitempty"`

	// Total and Completed count grid cells; Failed counts completed cells
	// that carry an error.
	Total     int `json:"total"`
	Completed int `json:"completed"`
	Failed    int `json:"failed,omitempty"`

	CreatedAt time.Time `json:"created_at"`

	// Results is the collected (possibly still growing) grid; populated
	// only by GET /v1/sweeps/{id}.
	Results *tracep.ResultSet `json:"results,omitempty"`
}

// StreamEvent is one NDJSON line of GET /v1/sweeps/{id}/stream. Exactly
// one field is set: Cell for each completed cell (in completion order,
// every cell exactly once, replayed from the start on reconnection), then
// a final Done carrying the job's terminal status.
type StreamEvent struct {
	Cell *tracep.Result `json:"cell,omitempty"`
	Done *Status        `json:"done,omitempty"`
}

// CorpusEntry describes one recorded-trace workload the server can run by
// name: an element of GET /v1/corpus.
type CorpusEntry struct {
	Name string `json:"name"`
	// Records is the recording's committed-instruction count — the ceiling
	// on target_insts a replay can verify.
	Records uint64 `json:"records"`
	// File is the base name of the backing .tptrace file.
	File string `json:"file"`
}

// Error is the JSON body of every non-2xx response.
type Error struct {
	StatusCode int    `json:"status_code"`
	Message    string `json:"error"`
}

func (e *Error) Error() string {
	return fmt.Sprintf("tracepd: %s (HTTP %d)", e.Message, e.StatusCode)
}
