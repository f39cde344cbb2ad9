package server

import (
	"context"
	"expvar"
	"fmt"
	"net/http"
	"path/filepath"
	"runtime"
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

	// store is the durable job journal (nil on a store-less manager); snaps
	// is the content-addressed snapshot store — durable under StoreDir,
	// memory-only otherwise, but always present so PUT /v1/snapshots works
	// on diskless workers.
	store *store.Store
	snaps *store.SnapshotStore

	// corpus indexes Config.Corpus by workload name; corpusNames keeps the
	// configured order for GET /v1/corpus.
	corpus      map[string]tracep.Benchmark
	corpusNames []string

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
	snapsStored    *expvar.Int

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
	// Memory-only snapshot store; OpenManager swaps in a durable one.
	m.snaps, _ = store.NewSnapshotStore("")
	m.corpus = make(map[string]tracep.Benchmark, len(cfg.Corpus))
	for _, bm := range cfg.Corpus {
		if bm.Recorded == nil {
			continue
		}
		if _, dup := m.corpus[bm.Name]; dup {
			continue // tracep.Corpus rejects duplicates; be safe under hand-built configs
		}
		m.corpus[bm.Name] = bm
		m.corpusNames = append(m.corpusNames, bm.Name)
	}
	m.initMetrics()
	return m
}

// Corpus lists the server's recorded-trace workloads in configured order.
func (m *Manager) Corpus() []CorpusEntry {
	out := make([]CorpusEntry, 0, len(m.corpusNames))
	for _, name := range m.corpusNames {
		bm := m.corpus[name]
		out = append(out, CorpusEntry{
			Name:    name,
			Records: bm.Recorded.Records(),
			File:    filepath.Base(bm.Recorded.Path()),
		})
	}
	return out
}

// job is one submitted sweep: its resolved grid, the append-only cell log
// that streams replay from, the growing ResultSet, and the lifecycle
// state. changed is closed and replaced on every append or state change —
// the broadcast streams block on.
type job struct {
	id          string
	benches     []string
	corpus      []string
	models      []string
	targetInsts uint64
	seed        int64
	// seeds is the job's replicate axis (deduped SweepRequest.Seeds); nil
	// for single-replicate jobs, whose one implicit seed is seed.
	seeds     []int64
	warmup    uint64
	warmupFor map[string]uint64
	// tol echoes the request's advisory gate tolerances (may be nil).
	tol *tracep.Tolerances
	// snapKeys maps benchmark rows to content-addressed snapshot keys
	// (SweepRequest.Snapshots): journaled with the job so a resume can
	// re-fetch the same snapshots from the durable snapshot store.
	snapKeys  map[string]string
	total     int
	createdAt time.Time
	cancel    context.CancelFunc
	finished  chan struct{}

	mu      sync.Mutex
	cells   []*tracep.Result
	rs      *tracep.ResultSet
	failed  int
	state   State
	changed chan struct{}
}

func (j *job) broadcastLocked() {
	close(j.changed)
	j.changed = make(chan struct{})
}

// seedAxis returns the job's effective replicate axis: the request's seeds
// when it had one, else the single implicit {seed} — mirroring
// tracep.Sweep's Seeds/Seed resolution so remotely collected sets stay
// byte-identical to in-process ones.
func (j *job) seedAxis() []int64 {
	if len(j.seeds) > 0 {
		return j.seeds
	}
	return []int64{j.seed}
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
	st := Status{
		ID:          j.id,
		State:       j.state,
		Benchmarks:  j.benches,
		Corpus:      j.corpus,
		Models:      j.models,
		Seeds:       j.seeds,
		TargetInsts: j.targetInsts,
		Seed:        j.seed,
		Warmup:      j.warmup,
		WarmupFor:   j.warmupFor,
		Tolerances:  j.tol,
		Total:       j.total,
		Completed:   len(j.cells),
		Failed:      j.failed,
		CreatedAt:   j.createdAt,
	}
	if withResults {
		st.Results = j.rs
	}
	return st
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
	for res := range stream {
		m.persistCell(j.id, res)
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
	if len(j.cells) < j.total {
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

// resolveRequest maps a wire request onto suite benchmarks, the server's
// recorded-trace corpus, and paper models. Unknown suite/model names are
// 400s; an unknown corpus name is a 404 (the resource — a recording on this
// server — does not exist). Corpus rows follow suite rows; with only Corpus
// set the grid is corpus-only, and with neither it is the full suite.
func (m *Manager) resolveRequest(req SweepRequest) ([]tracep.Benchmark, []tracep.Model, error) {
	var benches []tracep.Benchmark
	if len(req.Benchmarks) == 0 && len(req.Corpus) == 0 {
		benches = tracep.Benchmarks()
	} else {
		for _, name := range req.Benchmarks {
			bm, err := tracep.BenchmarkByName(name)
			if err != nil {
				return nil, nil, &Error{StatusCode: http.StatusBadRequest, Message: err.Error()}
			}
			benches = append(benches, bm)
		}
		for _, name := range req.Corpus {
			bm, ok := m.corpus[name]
			if !ok {
				return nil, nil, &Error{StatusCode: http.StatusNotFound,
					Message: fmt.Sprintf("no such corpus trace: %q (GET /v1/corpus lists available recordings)", name)}
			}
			benches = append(benches, bm)
		}
		seen := make(map[string]bool, len(benches))
		for _, bm := range benches {
			if seen[bm.Name] {
				return nil, nil, &Error{StatusCode: http.StatusBadRequest,
					Message: fmt.Sprintf("workload %q appears twice in the requested grid", bm.Name)}
			}
			seen[bm.Name] = true
		}
	}
	var models []tracep.Model
	if len(req.Models) == 0 {
		models = tracep.Models()
	} else {
		for _, name := range req.Models {
			m, ok := tracep.ModelByName(name)
			if !ok {
				return nil, nil, &Error{StatusCode: http.StatusBadRequest, Message: fmt.Sprintf("unknown model %q", name)}
			}
			models = append(models, m)
		}
	}
	return benches, models, nil
}

// Submit validates req, starts its sweep on the shared pool, and returns
// the new job's status. The sweep runs until its grid completes, Cancel is
// called, or the manager closes.
func (m *Manager) Submit(req SweepRequest) (Status, error) {
	benches, models, err := m.resolveRequest(req)
	if err != nil {
		return Status{}, err
	}
	target := req.TargetInsts
	if target == 0 {
		target = m.cfg.DefaultTargetInsts
	}

	benchNames := make([]string, len(benches))
	for i, bm := range benches {
		benchNames[i] = bm.Name
	}
	modelNames := make([]string, len(models))
	for i, md := range models {
		modelNames[i] = md.Name
	}
	// Validate name-keyed maps in sorted order so the reported name is
	// deterministic when several are bad (map iteration order is not).
	inGrid := func(name string) bool {
		for _, bn := range benchNames {
			if bn == name {
				return true
			}
		}
		return false
	}
	for _, name := range sortedKeys(req.WarmupFor) {
		if !inGrid(name) {
			return Status{}, &Error{StatusCode: http.StatusBadRequest,
				Message: fmt.Sprintf("warmup_for names %q, which is not in the requested grid", name)}
		}
	}
	for _, name := range sortedKeys(req.Snapshots) {
		if !inGrid(name) {
			return Status{}, &Error{StatusCode: http.StatusBadRequest,
				Message: fmt.Sprintf("snapshots names %q, which is not in the requested grid", name)}
		}
		key := req.Snapshots[name]
		if !store.ValidKey(key) {
			return Status{}, &Error{StatusCode: http.StatusBadRequest,
				Message: fmt.Sprintf("snapshots[%q]: malformed snapshot key %q", name, key)}
		}
		if !m.snaps.Has(key) {
			return Status{}, &Error{StatusCode: http.StatusNotFound,
				Message: fmt.Sprintf("no such snapshot: %s (PUT /v1/snapshots/{key} first)", key)}
		}
	}

	if req.Tolerances != nil {
		if err := req.Tolerances.Validate(); err != nil {
			return Status{}, &Error{StatusCode: http.StatusBadRequest, Message: err.Error()}
		}
	}

	seeds := dedupeSeeds(req.Seeds)
	rowsPerBench := float64(max(len(seeds), 1))
	insts := float64(len(benches)*len(models)) * rowsPerBench * float64(target)
	for _, name := range benchNames {
		warmup := req.Warmup
		if n, ok := req.WarmupFor[name]; ok {
			warmup = n
		}
		insts += rowsPerBench * float64(warmup)
	}
	if insts > maxSweepInsts {
		return Status{}, &Error{StatusCode: http.StatusBadRequest,
			Message: fmt.Sprintf("sweep asks for %.3g instructions (cells × target_insts + rows × warm-up), over the limit of %.3g",
				insts, float64(maxSweepInsts))}
	}

	ctx, cancel := context.WithCancel(context.Background())
	j := &job{
		benches:     benchNames,
		corpus:      append([]string(nil), req.Corpus...),
		models:      modelNames,
		targetInsts: target,
		seed:        req.Seed,
		seeds:       seeds,
		warmup:      req.Warmup,
		warmupFor:   req.WarmupFor,
		snapKeys:    req.Snapshots,
		tol:         req.Tolerances,
		createdAt:   time.Now().UTC(),
		cancel:      cancel,
		finished:    make(chan struct{}),
		state:       StateRunning,
		changed:     make(chan struct{}),
	}
	axis := j.seedAxis()
	j.total = len(benches) * len(models) * len(axis)
	j.rs = tracep.NewResultSetGrid(benchNames, modelNames, axis)

	// One row per (benchmark, seed): the row is the placement unit because
	// its warm-up snapshot embeds seed-dependent predictor state.
	rows := make([]RowSpec, 0, len(benches)*len(axis))
	for _, bm := range benches {
		for _, seed := range axis {
			rows = append(rows, m.rowSpec(bm, models, j, seed))
		}
	}

	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		cancel()
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
	go j.collect(m, m.runner.Run(ctx, rows))
	return j.snapshot(false), nil
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

// inCorpus reports whether name is one of the server's recorded-trace
// workloads.
func (m *Manager) inCorpus(name string) bool {
	_, ok := m.corpus[name]
	return ok
}

// Snapshots exposes the manager's content-addressed snapshot store (durable
// under Config.StoreDir via OpenManager, memory-only otherwise) — what the
// HTTP snapshot endpoints and the cluster coordinator's shipping layer
// read and write.
func (m *Manager) Snapshots() *store.SnapshotStore { return m.snaps }

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
