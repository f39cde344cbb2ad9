package server

import (
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"net/http"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"time"

	"tracep"
	"tracep/server/store"
)

// Defaults for Config fields left zero.
const (
	DefaultRetain      = 32
	DefaultTargetInsts = 300_000
)

// maxSweepInsts bounds the instructions one sweep may ask for: every cell's
// target plus every row's warm-up. It only stops requests that would hold
// the pool for days; the paper's 8×8 grid at 10M instructions a cell and
// ten seeds is 6.4G.
const maxSweepInsts = 1e12

// maxSweepRows bounds the rows (benchmark and corpus names) one request may
// name. Submit checks it before resolving any name, since resolving a
// scenario instance builds and calibrates its program (two emulator runs,
// ~80 µs): a 1 MiB body of distinct names would otherwise hold the handler
// for seconds. The paper's grid has 8 rows.
const maxSweepRows = 256

// Config shapes a Manager.
type Config struct {
	// Parallelism is the size of the shared simulation pool: the maximum
	// number of cells simulating at once across ALL live sweeps (<= 0 =
	// GOMAXPROCS). It is enforced with one tracep.Gate shared by every
	// job's Sweep.
	Parallelism int
	// Retain bounds how many terminal (done or cancelled) jobs are kept
	// for status queries and stream replay; the oldest are evicted first
	// (<= 0 = DefaultRetain). Live jobs are never evicted.
	Retain int
	// DefaultTargetInsts sizes workloads for requests that leave
	// TargetInsts zero (<= 0 = DefaultTargetInsts).
	DefaultTargetInsts uint64
	// Corpus is the server's recorded-trace suite (typically
	// tracep.Corpus(dir) from tracepd -corpus): workloads clients reference
	// by name via SweepRequest.Corpus and list via GET /v1/corpus. Entries
	// whose Recorded handle is nil are ignored.
	Corpus []tracep.Benchmark
	// StoreDir roots the durable job store (tracepd -store). NewManager
	// ignores it; OpenManager binds the manager to the journal there,
	// replaying finished jobs and resuming interrupted ones. See persist.go.
	StoreDir string
	// Gate, when non-nil, replaces the manager's own simulation gate: every
	// job's cells then count against this shared bound. A cluster of
	// in-process managers handed one Gate is bounded machine-wide exactly
	// like a single server (the coordinator race tests run this way);
	// Parallelism still shapes per-sweep worker pools. Nil = a fresh gate of
	// Parallelism slots.
	Gate *tracep.Gate
	// Runner, when non-nil, replaces local in-process simulation: the
	// manager hands it resolved RowSpecs and collects the returned stream.
	// This is how tracepd -coordinator mode shards rows across workers
	// (server/cluster.Coordinator) without touching the job lifecycle. Nil =
	// simulate locally on the shared gate.
	Runner Runner
}

// Manager owns the server's sweep jobs: it validates submissions, runs
// each as a tracep.Sweep whose cells are collected through Sweep.Stream,
// bounds total simulation concurrency with one shared tracep.Gate, and
// retains terminal jobs (up to Config.Retain) so their ResultSets can be
// re-fetched and their streams replayed. All methods are safe for
// concurrent use; Handler exposes the manager over HTTP.
type Manager struct {
	cfg    Config
	gate   *tracep.Gate
	runner Runner

	// store is the durable job journal (nil on a store-less manager).
	store *store.Store

	// corpus is Config.Corpus in configured order, less entries without a
	// recording and repeated names.
	corpus []tracep.Benchmark

	// metrics and the counters beneath it back GET /metrics; see metrics.go.
	metrics        *expvar.Map
	jobsSubmitted  *expvar.Int
	cellsCompleted *expvar.Int
	cellsFailed    *expvar.Int
	streamCells    *expvar.Int
	jobsRecovered  *expvar.Int
	jobsResumed    *expvar.Int
	storeErrors    *expvar.Int
	storeTruncated *expvar.Int

	mu     sync.Mutex
	jobs   map[string]*job
	order  []string // submission order, for retention eviction
	nextID int
	closed bool
}

// NewManager builds a memory-only manager (Config.StoreDir is ignored; use
// OpenManager for durability); call Close to stop every live sweep and
// wait for their workers.
func NewManager(cfg Config) *Manager {
	if cfg.Retain <= 0 {
		cfg.Retain = DefaultRetain
	}
	if cfg.DefaultTargetInsts == 0 {
		cfg.DefaultTargetInsts = DefaultTargetInsts
	}
	pool := cfg.Parallelism
	if pool <= 0 {
		pool = runtime.GOMAXPROCS(0)
	}
	gate := cfg.Gate
	if gate == nil {
		gate = tracep.NewGate(pool)
	}
	m := &Manager{cfg: cfg, jobs: make(map[string]*job), gate: gate}
	m.runner = cfg.Runner
	if m.runner == nil {
		m.runner = &localRunner{parallelism: cfg.Parallelism, gate: gate}
	}
	for _, bm := range cfg.Corpus {
		// tracep.Corpus rejects duplicates; be safe under hand-built configs.
		if bm.Recorded != nil && !slices.ContainsFunc(m.corpus, func(b tracep.Benchmark) bool { return b.Name == bm.Name }) {
			m.corpus = append(m.corpus, bm)
		}
	}
	m.initMetrics()
	return m
}

// Corpus lists the server's recorded-trace workloads in configured order.
func (m *Manager) Corpus() []CorpusEntry {
	out := make([]CorpusEntry, 0, len(m.corpus))
	for _, bm := range m.corpus {
		out = append(out, CorpusEntry{
			Name:    bm.Name,
			Records: bm.Recorded.Records(),
			File:    filepath.Base(bm.Recorded.Path()),
		})
	}
	return out
}

// job is one submitted sweep: its journaled record, the append-only cell
// log that streams replay from, the growing ResultSet, and the lifecycle
// state. changed is closed and replaced on every append or state change —
// the broadcast streams block on.
type job struct {
	id string
	// rec is the job's only description of its grid: the KindJob journal
	// payload, and the axes and options Status echoes.
	rec      jobRecord
	total    int
	cancel   context.CancelFunc
	finished chan struct{}

	mu      sync.Mutex
	cells   []*tracep.Result
	rs      *tracep.ResultSet
	failed  int
	state   State
	changed chan struct{}
	// final is the GET /v1/sweeps/{id} body of a terminal job, encoded by
	// the first such GET after the job ends (nil until then): a terminal
	// job's Status never changes again, so every later read is a write of
	// these bytes. It goes with the job at retention eviction.
	final []byte
}

// newJob builds a running job over rec, the one constructor Submit and
// resume share: it sizes the grid once, and creates the job's context
// before the job becomes visible to Cancel or Close. The caller sets id.
func newJob(rec jobRecord) (*job, context.Context) {
	axis := rec.seedAxis()
	ctx, cancel := context.WithCancel(context.Background())
	return &job{
		rec:      rec,
		total:    len(rec.Benchmarks) * len(rec.Models) * len(axis),
		rs:       tracep.NewResultSetGrid(rec.Benchmarks, rec.Models, axis),
		cancel:   cancel,
		finished: make(chan struct{}),
		state:    StateRunning,
		changed:  make(chan struct{}),
	}, ctx
}

func (j *job) broadcastLocked() {
	close(j.changed)
	j.changed = make(chan struct{})
}

// dedupeSeeds resolves a request's replicate axis: order-preserving
// dedupe when set (matching tracep.Sweep), nil otherwise.
func dedupeSeeds(seeds []int64) []int64 {
	if len(seeds) == 0 {
		return nil
	}
	seen := make(map[int64]bool, len(seeds))
	out := make([]int64, 0, len(seeds))
	for _, s := range seeds {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

// snapshot returns the job's Status; withResults attaches the live
// ResultSet (safe to marshal while workers still add cells).
func (j *job) snapshot(withResults bool) Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	rec := &j.rec
	st := Status{
		ID:          j.id,
		State:       j.state,
		Benchmarks:  rec.Benchmarks,
		Corpus:      rec.Corpus,
		Models:      rec.Models,
		Seeds:       rec.Seeds,
		TargetInsts: rec.TargetInsts,
		Seed:        rec.Seed,
		Warmup:      rec.Warmup,
		WarmupFor:   rec.WarmupFor,
		Tolerances:  rec.Tolerances,
		Total:       j.total,
		Completed:   len(j.cells),
		Failed:      j.failed,
		CreatedAt:   rec.CreatedAt,
	}
	if withResults {
		st.Results = j.rs
	}
	return st
}

// statusJSON returns the job's Status with results as compact JSON plus a
// newline, the body of GET /v1/sweeps/{id}. A running job is encoded per
// call, since its ResultSet grows; a terminal job is encoded once, outside
// j.mu, and its bytes are kept. Two first reads racing may both encode;
// they produce the same bytes and the first to finish is kept.
func (j *job) statusJSON() ([]byte, error) {
	j.mu.Lock()
	body := j.final
	j.mu.Unlock()
	if body != nil {
		return body, nil
	}
	st := j.snapshot(true)
	body, err := json.Marshal(st)
	if err != nil {
		return nil, err
	}
	body = append(body, '\n')
	if !st.State.Terminal() {
		return body, nil
	}
	j.mu.Lock()
	if j.final == nil {
		j.final = body
	}
	body = j.final
	j.mu.Unlock()
	return body, nil
}

// await blocks until cell i exists (returned with terminal=false), the job
// is terminal with no cell i (terminal=true), or ctx is cancelled.
func (j *job) await(ctx context.Context, i int) (cell *tracep.Result, terminal bool, err error) {
	for {
		j.mu.Lock()
		if i < len(j.cells) {
			cell = j.cells[i]
			j.mu.Unlock()
			return cell, false, nil
		}
		if j.state.Terminal() {
			j.mu.Unlock()
			return nil, true, nil
		}
		wait := j.changed
		j.mu.Unlock()
		select {
		case <-wait:
		case <-ctx.Done():
			return nil, false, ctx.Err()
		}
	}
}

// collect drains the runner's stream into the job. It is the only writer
// of cells/rs/state, runs on its own goroutine, and closes finished last.
// Each cell is journaled before it becomes visible to streams — a cell a
// client has seen is durable — and the terminal state is journaled for
// completion and client cancellation, but not for shutdown: a job drained
// by Close stays "running" on disk so a restart resumes it.
func (j *job) collect(m *Manager, stream <-chan *tracep.Result) {
	cancelled := 0
	for res := range stream {
		m.persistCell(j.id, res)
		if errors.Is(res.Err(), context.Canceled) {
			cancelled++
		}
		j.mu.Lock()
		j.cells = append(j.cells, res)
		j.rs.Add(res)
		if res.Err() != nil {
			j.failed++
			m.cellsFailed.Add(1)
		}
		m.cellsCompleted.Add(1)
		j.broadcastLocked()
		j.mu.Unlock()
	}
	j.mu.Lock()
	// A cell cut short by cancellation was delivered but not run, and
	// persistCell keeps it out of the journal: a job whose last cells were
	// in flight when it was cancelled or shut down is not done.
	if len(j.cells)-cancelled < j.total {
		j.state = StateCancelled
	} else {
		j.state = StateDone
	}
	state := j.state
	j.broadcastLocked()
	j.mu.Unlock()
	if state == StateDone || !m.isClosed() {
		m.persistState(j.id, state)
	}
	close(j.finished)
}

func (m *Manager) isClosed() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.closed
}

// errNoCorpus marks Resolve's unknown-corpus-name error, which Submit
// answers with a 404 (the resource, a recording on this server, does not
// exist) where every other grid error is a 400.
var errNoCorpus = errors.New("no such corpus trace")

// Resolve maps a request's names onto the grid it describes: the one
// resolver behind Submit, journal resume and cmd/experiments' in-process
// runs. The rows are req.Benchmarks (suite workloads and scenario
// instances, tracep.BenchmarkByName), then req.Corpus, resolved against
// corpus by name. Empty Benchmarks means the eight-workload suite unless
// Corpus is set (a corpus-only grid), and empty Models means all eight
// models. A workload twice in the grid, and a WarmupFor key naming no row,
// are errors.
func Resolve(req SweepRequest, corpus []tracep.Benchmark) ([]tracep.Benchmark, []tracep.Model, error) {
	var benches []tracep.Benchmark
	if len(req.Benchmarks) == 0 && len(req.Corpus) == 0 {
		benches = tracep.Benchmarks()
	}
	for _, name := range req.Benchmarks {
		bm, err := tracep.BenchmarkByName(name)
		if err != nil {
			return nil, nil, err
		}
		benches = append(benches, bm)
	}
	for _, name := range req.Corpus {
		i := slices.IndexFunc(corpus, func(bm tracep.Benchmark) bool { return bm.Name == name })
		if i < 0 {
			return nil, nil, fmt.Errorf("%w: %q (GET /v1/corpus lists available recordings)", errNoCorpus, name)
		}
		benches = append(benches, corpus[i])
	}
	seen := make(map[string]bool, len(benches))
	for _, bm := range benches {
		if seen[bm.Name] {
			return nil, nil, fmt.Errorf("workload %q appears twice in the requested grid", bm.Name)
		}
		seen[bm.Name] = true
	}
	// Sorted, so the reported name is deterministic when several are bad.
	for _, name := range sortedKeys(req.WarmupFor) {
		if !seen[name] {
			return nil, nil, fmt.Errorf("warmup_for names %q, which is not in the requested grid", name)
		}
	}
	models := tracep.Models()
	if len(req.Models) > 0 {
		models = make([]tracep.Model, 0, len(req.Models))
		for _, name := range req.Models {
			md, ok := tracep.ModelByName(name)
			if !ok {
				return nil, nil, fmt.Errorf("unknown model %q", name)
			}
			models = append(models, md)
		}
	}
	return benches, models, nil
}

// Submit bounds req's row count, resolves its grid (Resolve) and checks its
// tolerances (an unknown corpus name is a 404, any other error a 400),
// admits it, journals
// its record, starts its sweep on the shared pool, and returns the new
// job's status. The sweep runs until its grid completes, Cancel is called,
// or the manager closes.
func (m *Manager) Submit(req SweepRequest) (Status, error) {
	if rows := len(req.Benchmarks) + len(req.Corpus); rows > maxSweepRows {
		return Status{}, &Error{StatusCode: http.StatusBadRequest,
			Message: fmt.Sprintf("sweep names %d rows (benchmarks + corpus), over the limit of %d", rows, maxSweepRows)}
	}
	benches, models, err := Resolve(req, m.corpus)
	if err == nil && req.Tolerances != nil {
		err = req.Tolerances.Validate()
	}
	if err != nil {
		code := http.StatusBadRequest
		if errors.Is(err, errNoCorpus) {
			code = http.StatusNotFound
		}
		return Status{}, &Error{StatusCode: code, Message: err.Error()}
	}
	rec := jobRecord{
		Benchmarks:  make([]string, len(benches)),
		Corpus:      slices.Clone(req.Corpus),
		Models:      make([]string, len(models)),
		TargetInsts: req.TargetInsts,
		Seed:        req.Seed,
		Seeds:       dedupeSeeds(req.Seeds),
		Warmup:      req.Warmup,
		WarmupFor:   req.WarmupFor,
		Tolerances:  req.Tolerances,
		CreatedAt:   time.Now().UTC(),
	}
	for i, bm := range benches {
		rec.Benchmarks[i] = bm.Name
	}
	for i, md := range models {
		rec.Models[i] = md.Name
	}
	if rec.TargetInsts == 0 {
		rec.TargetInsts = m.cfg.DefaultTargetInsts
	}

	rowsPerBench := float64(len(rec.seedAxis()))
	insts := float64(len(rec.Benchmarks)*len(rec.Models)) * rowsPerBench * float64(rec.TargetInsts)
	for _, name := range rec.Benchmarks {
		insts += rowsPerBench * float64(rec.warmupOf(name))
	}
	if insts > maxSweepInsts {
		return Status{}, &Error{StatusCode: http.StatusBadRequest,
			Message: fmt.Sprintf("sweep asks for %.3g instructions (cells × target_insts + rows × warm-up), over the limit of %.3g",
				insts, float64(maxSweepInsts))}
	}

	j, ctx := newJob(rec)
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		j.cancel()
		return Status{}, &Error{StatusCode: http.StatusServiceUnavailable, Message: "server is shutting down"}
	}
	m.nextID++
	j.id = fmt.Sprintf("sw-%d", m.nextID)
	m.jobs[j.id] = j
	m.order = append(m.order, j.id)
	m.evictLocked()
	m.mu.Unlock()

	m.persistJob(j)
	m.jobsSubmitted.Add(1)
	m.start(ctx, j, benches, models)
	return j.snapshot(false), nil
}

// start is the one path from a job to the Runner, shared by Submit and
// resume: a fresh job is a resumed job whose journal holds no cells yet.
// It builds a RowSpec for every (benchmark, seed) row with a model j.rs
// lacks — every row of a fresh job, only the missing cells of a resumed
// one — and collects the stream on its own goroutine. An empty row set (a
// job that crashed after its last cell, before its terminal record) flows
// through collect too, which finalises the state.
func (m *Manager) start(ctx context.Context, j *job, benches []tracep.Benchmark, models []tracep.Model) {
	var rows []RowSpec
	for _, bm := range benches {
		// One row per (benchmark, seed): the row is the placement unit
		// because its warm-up snapshot embeds seed-dependent predictor state.
		for _, seed := range j.rec.seedAxis() {
			missing := make([]tracep.Model, 0, len(models))
			for _, md := range models {
				if !j.rs.HasReplicate(bm.Name, md.Name, seed) {
					missing = append(missing, md)
				}
			}
			if len(missing) > 0 {
				rows = append(rows, RowSpec{
					Bench:       bm,
					Models:      missing,
					TargetInsts: j.rec.TargetInsts,
					Seed:        seed,
					Warmup:      j.rec.warmupOf(bm.Name),
				})
			}
		}
	}
	go j.collect(m, m.runner.Run(ctx, rows))
}

// evictLocked drops the oldest terminal jobs beyond the retention bound.
func (m *Manager) evictLocked() {
	terminal := 0
	for _, id := range m.order {
		if m.jobs[id] != nil && m.jobs[id].snapshotTerminal() {
			terminal++
		}
	}
	if terminal <= m.cfg.Retain {
		return
	}
	kept := m.order[:0]
	for _, id := range m.order {
		j := m.jobs[id]
		if j != nil && terminal > m.cfg.Retain && j.snapshotTerminal() {
			delete(m.jobs, id)
			m.persist(store.Record{Kind: store.KindEvict, JobID: id})
			terminal--
			continue
		}
		kept = append(kept, id)
	}
	m.order = kept
}

// Gate returns the manager's shared simulation gate.
func (m *Manager) Gate() *tracep.Gate { return m.gate }

func (j *job) snapshotTerminal() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state.Terminal()
}

func (m *Manager) get(id string) (*job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// Status returns a job's status; withResults attaches the collected (and
// possibly still growing) ResultSet.
func (m *Manager) Status(id string, withResults bool) (Status, bool) {
	j, ok := m.get(id)
	if !ok {
		return Status{}, false
	}
	return j.snapshot(withResults), true
}

// List returns every retained job's status in submission order.
func (m *Manager) List() []Status {
	m.mu.Lock()
	ids := append([]string(nil), m.order...)
	jobs := make([]*job, 0, len(ids))
	for _, id := range ids {
		if j, ok := m.jobs[id]; ok {
			jobs = append(jobs, j)
		}
	}
	m.mu.Unlock()
	out := make([]Status, len(jobs))
	for i, j := range jobs {
		out[i] = j.snapshot(false)
	}
	return out
}

// Cancel stops a job's sweep (in-flight cells abort and land as failed
// cells, unstarted cells are never delivered) and returns its status once
// the job has reached a terminal state. Cancelling a terminal job is a
// no-op returning its final status.
func (m *Manager) Cancel(id string) (Status, bool) {
	j, ok := m.get(id)
	if !ok {
		return Status{}, false
	}
	j.cancel()
	<-j.finished
	return j.snapshot(false), true
}

// Close cancels every live job and waits for all sweep workers to drain,
// then releases the job store (if any). The manager rejects new
// submissions afterwards. Jobs interrupted by Close keep their "running"
// journal state — no terminal record is written — so reopening the same
// store directory resumes them; only their still-missing cells are
// re-simulated.
func (m *Manager) Close() {
	m.mu.Lock()
	m.closed = true
	jobs := make([]*job, 0, len(m.jobs))
	for _, id := range m.order { // submission order: deterministic shutdown
		if j, ok := m.jobs[id]; ok {
			jobs = append(jobs, j)
		}
	}
	m.mu.Unlock()
	for _, j := range jobs {
		j.cancel()
	}
	for _, j := range jobs {
		<-j.finished
	}
	if m.store != nil {
		_ = m.store.Close()
	}
}
