// Package cluster shards tracepd sweeps across worker tracepds. The
// Coordinator implements server.Runner, so a coordinator-mode tracepd
// (tracepd -coordinator -worker URL,...) is an ordinary tracepd whose
// Manager hands rows to this package instead of the local pool: clients,
// persistence, retention and replay are untouched, and the cells that come
// back are byte-identical to local simulation — determinism means
// placement never shows through.
//
// # Placement and failure model
//
// The benchmark row is the placement unit (the node that runs it builds its
// program once and captures its warm-up snapshot once, shared by the row's
// cells — see server.RowSpec). Rows round-robin across workers; each
// placement submits a single-row sweep to the worker and follows its NDJSON
// stream. Around that sit three defences, outermost first:
//
//   - Work-stealing: if a placed row has not completed within
//     Config.StealAfter, a second attempt launches elsewhere — a worker no
//     attempt currently occupies, or the local pool — while the first
//     keeps running. Whichever attempt finishes a cell first wins; a
//     per-row dedupe map keyed by model keeps delivery exactly-once no
//     matter how many attempts race, and completing the row cancels every
//     attempt still in flight (including one wedged on a hung worker).
//   - Retry with backoff: an attempt that errors (connection refused,
//     stream cut mid-cell, corrupt payload) is retried against the same
//     worker up to Config.MaxRetries times with exponential backoff, then
//     the row moves to the next worker.
//   - Local fallback: a row that exhausts every worker runs on the
//     coordinator's own pool. A cluster with every worker down degrades to
//     exactly the single-node server, just slower.
//
// A placed row warms up on the worker that runs it, exactly like any other
// row of a sweep: the coordinator simulates only through its local pool
// (corpus rows and fallback), so its Gate bounds warm jobs as it bounds
// cold ones. Recorded-trace (corpus) rows — those whose Bench.Recorded is
// set — never move: each runs the program of a .tptrace recording that
// only the coordinator holds, so they run locally by construction. A suite row is placed even when the corpus
// holds a recording of the same name.
package cluster

import (
	"context"
	"errors"
	"expvar"
	"fmt"
	"strings"
	"sync"
	"time"

	"tracep"
	"tracep/client"
	"tracep/server"
)

// Defaults for Config fields left zero.
const (
	DefaultStealAfter   = 30 * time.Second
	DefaultMaxRetries   = 2
	DefaultRetryBackoff = 200 * time.Millisecond
)

// Config shapes a Coordinator.
type Config struct {
	// Workers lists worker tracepd base URLs. Empty means every row runs
	// locally (the coordinator degenerates to a single-node server).
	Workers []string
	// Parallelism and Gate shape the local fallback pool; pass the owning
	// Manager's values so local rows share the server-wide bound.
	Parallelism int
	Gate        *tracep.Gate
	// StealAfter is how long a placed row may run before a second attempt
	// launches elsewhere (<= 0 = DefaultStealAfter).
	StealAfter time.Duration
	// MaxRetries is how many times a failed attempt is retried against the
	// same worker before the row moves on (< 0 = no retries, 0 =
	// DefaultMaxRetries).
	MaxRetries int
	// RetryBackoff is the first retry's delay, doubling per retry
	// (<= 0 = DefaultRetryBackoff).
	RetryBackoff time.Duration
}

type worker struct {
	url string
	c   *client.Client
}

// Coordinator shards rows across workers. Safe for concurrent use; one
// Coordinator serves every job of its Manager.
type Coordinator struct {
	cfg     Config
	workers []*worker
	local   server.Runner

	// Counters, exposed via PublishMetrics:
	rowsPlaced *expvar.Int // rows placed on workers (first attempts)
	rowsStolen *expvar.Int // steal attempts launched on stalled rows
	rowsLocal  *expvar.Int // rows run on the local pool (corpus, no workers, or fallback)
	retries    *expvar.Int // attempt retries (same worker, after backoff)
	failures   *expvar.Int // workers given up on for a row (retries exhausted)
}

// New builds a coordinator over cfg.Workers.
func New(cfg Config) *Coordinator {
	if cfg.StealAfter <= 0 {
		cfg.StealAfter = DefaultStealAfter
	}
	if cfg.MaxRetries == 0 {
		cfg.MaxRetries = DefaultMaxRetries
	}
	if cfg.MaxRetries < 0 {
		cfg.MaxRetries = 0
	}
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = DefaultRetryBackoff
	}
	c := &Coordinator{
		cfg:        cfg,
		local:      server.LocalRunner(cfg.Parallelism, cfg.Gate),
		rowsPlaced: new(expvar.Int),
		rowsStolen: new(expvar.Int),
		rowsLocal:  new(expvar.Int),
		retries:    new(expvar.Int),
		failures:   new(expvar.Int),
	}
	for _, u := range cfg.Workers {
		c.workers = append(c.workers, &worker{url: strings.TrimRight(u, "/"), c: client.New(u)})
	}
	return c
}

// PublishMetrics registers the coordinator's counters in dst (typically
// the owning Manager's metrics map, so they surface on GET /metrics)
// under cluster_-prefixed names.
func (c *Coordinator) PublishMetrics(dst *expvar.Map) {
	dst.Set("cluster_workers", expvar.Func(func() any { return len(c.workers) }))
	dst.Set("cluster_rows_placed_total", c.rowsPlaced)
	dst.Set("cluster_rows_stolen_total", c.rowsStolen)
	dst.Set("cluster_rows_local_total", c.rowsLocal)
	dst.Set("cluster_worker_retries_total", c.retries)
	dst.Set("cluster_worker_failures_total", c.failures)
}

// Run implements server.Runner: every cell of every row exactly once,
// channel closed after the last, prompt cancellation.
func (c *Coordinator) Run(ctx context.Context, rows []server.RowSpec) <-chan *tracep.Result {
	total := 0
	for _, row := range rows {
		total += row.Cells()
	}
	out := make(chan *tracep.Result, total)
	var wg sync.WaitGroup
	for i, row := range rows {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.runRow(ctx, i, row, out)
		}()
	}
	go func() {
		wg.Wait()
		close(out)
	}()
	return out
}

// submitTimeout bounds a sweep POST to a worker. The POST is not cut short
// when its attempt ends (see attemptOn), so this is what stops a worker
// that never answers from holding the attempt; a healthy worker answers in
// milliseconds.
const submitTimeout = 10 * time.Second

// localSlot is the attempt-claim key for the coordinator's own pool; it
// cannot collide with a worker URL.
const localSlot = "\x00local"

// rowState tracks one row's outstanding cells across racing attempts. The
// emit path is the exactly-once gate: the first delivery of a cell wins,
// every later one — a steal finishing behind the original, a retry
// re-running a cell the cut stream already delivered — is dropped. The
// claims map keeps concurrent attempts off the same executor, which is
// what lets a steal route around a wedged worker instead of piling onto
// it.
type rowState struct {
	mu        sync.Mutex
	remaining map[string]tracep.Model // model name -> model, not yet delivered
	claims    map[string]bool         // worker URL (or localSlot) -> attempt in flight
	done      chan struct{}           // closed when remaining empties
}

func newRowState(row server.RowSpec) *rowState {
	st := &rowState{
		remaining: make(map[string]tracep.Model, len(row.Models)),
		claims:    make(map[string]bool),
		done:      make(chan struct{}),
	}
	for _, md := range row.Models {
		st.remaining[md.Name] = md
	}
	return st
}

// emit delivers res if its cell is still outstanding.
func (st *rowState) emit(res *tracep.Result, out chan<- *tracep.Result) {
	st.mu.Lock()
	_, outstanding := st.remaining[res.Model]
	if outstanding {
		delete(st.remaining, res.Model)
	}
	complete := len(st.remaining) == 0
	st.mu.Unlock()
	if outstanding {
		out <- res
		if complete {
			close(st.done)
		}
	}
}

// missing returns the models still outstanding, in the row's order.
func (st *rowState) missing(row server.RowSpec) []tracep.Model {
	st.mu.Lock()
	defer st.mu.Unlock()
	var models []tracep.Model
	for _, md := range row.Models {
		if _, ok := st.remaining[md.Name]; ok {
			models = append(models, md)
		}
	}
	return models
}

func (st *rowState) complete() bool {
	select {
	case <-st.done:
		return true
	default:
		return false
	}
}

// claim marks an attempt in flight on the named executor; it fails if one
// already is, steering rival attempts elsewhere.
func (st *rowState) claim(slot string) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.claims[slot] {
		return false
	}
	st.claims[slot] = true
	return true
}

func (st *rowState) unclaim(slot string) {
	st.mu.Lock()
	delete(st.claims, slot)
	st.mu.Unlock()
}

// runRow drives one row to completion: worker placement with steal, retry
// and fallback, or the local pool directly for corpus rows and worker-less
// clusters.
func (c *Coordinator) runRow(ctx context.Context, idx int, row server.RowSpec, out chan<- *tracep.Result) {
	st := newRowState(row)
	if row.Bench.Recorded != nil || len(c.workers) == 0 {
		c.rowsLocal.Add(1)
		c.runLocal(ctx, row, st, out)
		return
	}
	rowCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	// Steal timer: one extra attempt, launched elsewhere, if the row is
	// still incomplete after StealAfter. It walks the worker list from the
	// next offset and the claims map steers it off workers the first
	// attempt occupies, so on a multi-worker cluster the stall is routed
	// around, and on a one-worker cluster the steal lands on the local
	// pool.
	var stealWG sync.WaitGroup
	steal := time.AfterFunc(c.cfg.StealAfter, func() {
		if st.complete() || rowCtx.Err() != nil {
			return
		}
		c.rowsStolen.Add(1)
		stealWG.Add(1)
		go func() {
			defer stealWG.Done()
			if !c.tryWorkers(rowCtx, idx+1, row, st, out) && !st.complete() {
				c.runLocal(rowCtx, row, st, out)
			}
		}()
	})
	defer func() {
		steal.Stop()
		cancel() // unblock a wedged steal attempt before waiting on it
		stealWG.Wait()
	}()

	c.rowsPlaced.Add(1)
	if c.tryWorkers(rowCtx, idx, row, st, out) {
		return
	}
	if st.complete() || rowCtx.Err() != nil {
		return
	}
	// Every worker exhausted: degrade to local execution.
	c.rowsLocal.Add(1)
	c.runLocal(rowCtx, row, st, out)
}

// tryWorkers walks the worker list starting at offset start, giving each
// unclaimed worker MaxRetries+1 attempts with exponential backoff. Returns
// true once the row is complete; false when every worker is exhausted (or
// claimed by a rival attempt).
func (c *Coordinator) tryWorkers(ctx context.Context, start int, row server.RowSpec, st *rowState, out chan<- *tracep.Result) bool {
	for i := 0; i < len(c.workers); i++ {
		w := c.workers[(start+i)%len(c.workers)]
		if !st.claim(w.url) {
			continue
		}
		exhausted := func() bool {
			defer st.unclaim(w.url)
			for try := 0; ; try++ {
				if st.complete() || ctx.Err() != nil {
					return false
				}
				err := c.attemptOn(ctx, w, row, st, out)
				if st.complete() {
					return false
				}
				if err == nil {
					// The worker answered cleanly but cells are still
					// missing (its sweep was cancelled under us): treat
					// like a failure and move on.
					err = errors.New("attempt finished with cells outstanding")
				}
				if try >= c.cfg.MaxRetries {
					c.failures.Add(1)
					return true
				}
				c.retries.Add(1)
				select {
				case <-time.After(c.cfg.RetryBackoff << uint(try)):
				case <-ctx.Done():
					return false
				}
			}
		}()
		if !exhausted {
			return st.complete()
		}
	}
	return st.complete()
}

// attemptOn runs the row's outstanding cells on one worker: submit a
// single-row sweep (the worker warms the row up itself), follow its
// stream, emit each cell through the dedupe gate. Any transport or
// validation failure is an error for the retry ladder; cells that landed
// before the failure stay delivered (the dedupe gate absorbs the overlap
// when the retry re-runs them). The attempt unblocks itself the moment a
// rival attempt completes the row, so a stream wedged on a hung worker
// cannot outlive the row it was serving.
func (c *Coordinator) attemptOn(ctx context.Context, w *worker, row server.RowSpec, st *rowState, out chan<- *tracep.Result) error {
	models := st.missing(row)
	if len(models) == 0 {
		return nil
	}
	attemptCtx, cancelAttempt := context.WithCancel(ctx)
	defer cancelAttempt()
	go func() {
		select {
		case <-st.done:
			cancelAttempt()
		case <-attemptCtx.Done():
		}
	}()

	req := server.SweepRequest{
		Benchmarks:  []string{row.Bench.Name},
		Models:      modelNames(models),
		TargetInsts: row.TargetInsts,
		Seed:        row.Seed,
		Warmup:      row.Warmup,
	}
	// The POST outlives attemptCtx. Once the worker has accepted it, the
	// job exists and simulates, and only its ID lets the DELETE below stop
	// it: a submit abandoned when the coordinator job is cancelled or a
	// rival attempt completes the row would orphan the job for the whole
	// row. The timeout bounds a worker that never answers.
	submitCtx, stopSubmit := context.WithTimeout(context.WithoutCancel(attemptCtx), submitTimeout)
	sub, err := w.c.Submit(submitCtx, req)
	stopSubmit()
	if err != nil {
		return fmt.Errorf("submit to %s: %w", w.url, err)
	}
	// Whatever happens, don't leave the remote sweep running after this
	// attempt stops caring (stolen row completed elsewhere, coordinator
	// cancelled, stream error): best-effort DELETE on a fresh context.
	defer func() {
		if st.complete() || ctx.Err() != nil {
			stopCtx, stop := context.WithTimeout(context.Background(), 5*time.Second)
			defer stop()
			_, _ = w.c.Cancel(stopCtx, sub.ID)
		}
	}()

	valid := make(map[string]bool, len(models))
	for _, md := range models {
		valid[md.Name] = true
	}
	final, err := w.c.Stream(attemptCtx, sub.ID, func(res *tracep.Result) error {
		if res.Benchmark != row.Bench.Name || !valid[res.Model] || res.Seed != row.Seed {
			return fmt.Errorf("worker %s delivered foreign cell %s/%s (seed %d)", w.url, res.Benchmark, res.Model, res.Seed)
		}
		// A cell that "failed" by remote cancellation is shutdown fallout,
		// not a simulation outcome; dropping it leaves the cell
		// outstanding for the next attempt.
		if res.Error != "" && strings.Contains(res.Error, context.Canceled.Error()) {
			return nil
		}
		st.emit(res, out)
		return nil
	})
	if err != nil {
		return fmt.Errorf("stream from %s: %w", w.url, err)
	}
	if final.State != server.StateDone {
		return fmt.Errorf("worker %s finished sweep %s in state %s", w.url, sub.ID, final.State)
	}
	return nil
}

// runLocal drains the row's outstanding cells through the local pool, with
// the same dedupe gate (a steal may race a local fallback too — the second
// arrival waits instead of simulating the row twice).
func (c *Coordinator) runLocal(ctx context.Context, row server.RowSpec, st *rowState, out chan<- *tracep.Result) {
	if !st.claim(localSlot) {
		select {
		case <-st.done:
		case <-ctx.Done():
		}
		return
	}
	defer st.unclaim(localSlot)
	models := st.missing(row)
	if len(models) == 0 {
		return
	}
	local := row
	local.Models = models
	for res := range c.local.Run(ctx, []server.RowSpec{local}) {
		st.emit(res, out)
	}
}

func modelNames(models []tracep.Model) []string {
	names := make([]string, len(models))
	for i, md := range models {
		names[i] = md.Name
	}
	return names
}
