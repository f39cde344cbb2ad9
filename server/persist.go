package server

import (
	"context"
	"encoding/json"
	"errors"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"tracep"
	"tracep/server/store"
)

// Durability: with Config.StoreDir set (OpenManager, tracepd -store) the
// manager journals every job to an fsync'd append-only log (tracep/server/
// store) — one KindJob record at submission, one KindCell record per
// completed cell, one KindState record at client cancellation or
// completion, one KindEvict at retention eviction. Restarting over the
// same directory rebuilds the world from the log: terminal jobs replay
// without a single re-simulation (their streams and ResultSets serve from
// the journal), and non-terminal jobs — killed mid-sweep — resume with
// RowSpecs covering exactly the cells that were not yet durable.
// Determinism makes the resume honest: a re-simulated cell is
// byte-identical to the one the crash destroyed, so a client collecting a
// resumed job sees the same bytes as one that never crashed.
//
// The KindJob payload, jobRecord, is also the job's in-memory description
// of its grid, and a fresh job is a resumed job whose journal holds no
// cells yet: Submit and resume build the job with newJob, resolve its grid
// with Resolve, and reach the Runner through start. A corpus row is
// one whose RowSpec.Bench.Recorded is set.
//
// Shutdown via Close deliberately writes no terminal record for running
// jobs: a drained-but-unfinished sweep is "unfinished" on disk and resumes
// on restart. Only client cancellation persists StateCancelled.

// jobRecord is the KindJob payload: everything needed to rebuild and, if
// necessary, resume the job, and the job's only description of its grid.
// Benchmarks is the full row axis (suite rows, then corpus rows); Corpus
// names the rows that replay one of the server's recordings. Its JSON must
// not change: journals written by earlier servers replay through it
// (server/testdata/journal). Fields those servers wrote that no longer
// exist, such as a "snapshots" map of warm-up keys, are ignored on decode
// and kept byte for byte by compaction.
type jobRecord struct {
	Benchmarks  []string           `json:"benchmarks"`
	Corpus      []string           `json:"corpus,omitempty"`
	Models      []string           `json:"models"`
	TargetInsts uint64             `json:"target_insts"`
	Seed        int64              `json:"seed,omitempty"`
	Seeds       []int64            `json:"seeds,omitempty"`
	Warmup      uint64             `json:"warmup,omitempty"`
	WarmupFor   map[string]uint64  `json:"warmup_for,omitempty"`
	Tolerances  *tracep.Tolerances `json:"tolerances,omitempty"`
	CreatedAt   time.Time          `json:"created_at"`
}

// seedAxis returns the job's effective replicate axis: the request's seeds
// when it had one, else the single implicit {Seed} — mirroring
// tracep.Sweep's Seeds/Seed resolution so remotely collected sets stay
// byte-identical to in-process ones.
func (r *jobRecord) seedAxis() []int64 {
	if len(r.Seeds) > 0 {
		return r.Seeds
	}
	return []int64{r.Seed}
}

// request is the SweepRequest the record resolves as on resume: its
// recordings as Corpus and its other rows as Benchmarks. Submit writes
// corpus rows last, so Resolve returns the rows in the record's order.
func (r *jobRecord) request() SweepRequest {
	req := SweepRequest{Corpus: r.Corpus, Models: r.Models, WarmupFor: r.WarmupFor}
	for _, name := range r.Benchmarks {
		if !slices.Contains(r.Corpus, name) {
			req.Benchmarks = append(req.Benchmarks, name)
		}
	}
	return req
}

// warmupOf returns a row's effective warm-up: its WarmupFor entry when
// present (an explicit zero runs the row cold), else Warmup.
func (r *jobRecord) warmupOf(bench string) uint64 {
	if n, ok := r.WarmupFor[bench]; ok {
		return n
	}
	return r.Warmup
}

// persist appends rec to the job log (no-op on a store-less manager). A
// failed append is counted, not fatal: the server keeps serving from
// memory and the worst outcome of lost durability is re-simulation after
// a restart — never wrong results.
func (m *Manager) persist(rec store.Record) {
	if m.store == nil {
		return
	}
	if err := m.store.Append(rec); err != nil {
		m.storeErrors.Add(1)
	}
}

func (m *Manager) persistJob(j *job) {
	payload, err := json.Marshal(&j.rec)
	if err != nil {
		m.storeErrors.Add(1)
		return
	}
	m.persist(store.Record{Kind: store.KindJob, JobID: j.id, Payload: payload})
}

func (m *Manager) persistCell(id string, res *tracep.Result) {
	if m.store == nil {
		return
	}
	// A cell that "failed" because its run was cancelled is an artifact of
	// shutdown or DELETE, not a simulation outcome. Journaling it would
	// poison a later resume — the cell would replay as failed instead of
	// being re-simulated — so cancellation-failed cells stay memory-only.
	if errors.Is(res.Err(), context.Canceled) {
		return
	}
	payload, err := json.Marshal(res)
	if err != nil {
		m.storeErrors.Add(1)
		return
	}
	m.persist(store.Record{Kind: store.KindCell, JobID: id, Payload: payload})
}

func (m *Manager) persistState(id string, st State) {
	m.persist(store.Record{Kind: store.KindState, JobID: id, Payload: []byte(st)})
}

// recovered is one job reassembled from the log.
type recovered struct {
	id    string
	meta  jobRecord
	cells []*tracep.Result
	state State // "" when the job never reached a terminal record
}

// replayLog folds the journal into per-job recovered state (submission
// order) plus the compacted record list — the journal minus evicted jobs,
// orphaned records and damage-stranded fragments.
func replayLog(recs []store.Record) (jobs []*recovered, keep []store.Record) {
	byID := make(map[string]*recovered)
	evicted := make(map[string]bool)
	for _, rec := range recs {
		if rec.Kind == store.KindEvict {
			evicted[rec.JobID] = true
			delete(byID, rec.JobID)
			continue
		}
		if evicted[rec.JobID] {
			continue // a job ID never comes back after eviction
		}
		switch rec.Kind {
		case store.KindJob:
			var meta jobRecord
			if json.Unmarshal(rec.Payload, &meta) != nil {
				continue
			}
			if _, dup := byID[rec.JobID]; dup {
				continue
			}
			r := &recovered{id: rec.JobID, meta: meta}
			byID[rec.JobID] = r
			jobs = append(jobs, r)
		case store.KindCell:
			r, ok := byID[rec.JobID]
			if !ok {
				continue // cell without a job record: stranded, drop
			}
			var res tracep.Result
			if json.Unmarshal(rec.Payload, &res) != nil {
				continue
			}
			r.cells = append(r.cells, &res)
		case store.KindState:
			if r, ok := byID[rec.JobID]; ok {
				r.state = State(rec.Payload)
			}
		}
	}
	kept := make([]*recovered, 0, len(jobs))
	for _, r := range jobs {
		if !evicted[r.id] {
			kept = append(kept, r)
		}
	}
	for _, rec := range recs {
		if rec.Kind != store.KindEvict && byID[rec.JobID] != nil {
			keep = append(keep, rec)
		}
	}
	return kept, keep
}

// OpenManager builds a manager like NewManager and, when cfg.StoreDir is
// set, binds it to the durable job store in that directory: recovered
// terminal jobs are retained for status/stream replay without
// re-simulation, and recovered running jobs — interrupted by a crash or a
// shutdown — resume, re-simulating only the cells the journal does not
// hold. The journal is compacted on open (evicted jobs and stranded
// fragments drop out), so restart cost stays proportional to retained
// work.
func OpenManager(cfg Config) (*Manager, error) {
	m := NewManager(cfg)
	if cfg.StoreDir == "" {
		return m, nil
	}
	st, rec, err := store.Open(cfg.StoreDir)
	if err != nil {
		return nil, err
	}
	m.store = st
	if rec.TruncatedBytes > 0 {
		m.storeTruncated.Add(int64(rec.TruncatedBytes))
	}
	jobs, keep := replayLog(rec.Records)
	if len(keep) != len(rec.Records) || rec.TruncatedBytes > 0 {
		if err := st.Compact(keep); err != nil {
			st.Close()
			return nil, err
		}
	}
	for _, r := range jobs {
		m.adoptRecovered(r)
	}
	return m, nil
}

// adoptRecovered installs one journaled job into the manager. A terminal
// job becomes replayable history without resolving a single name, so a
// recording that has since left the corpus does not matter to it. A
// non-terminal job goes back through start, exactly like a Submit whose
// journal already holds some cells; one whose grid no longer resolves is
// journaled as cancelled.
func (m *Manager) adoptRecovered(r *recovered) {
	j, ctx := newJob(r.meta)
	j.id = r.id
	for _, res := range r.cells {
		// Dedupe defensively: a cell journaled twice (possible only through
		// log surgery, never through collect) must not inflate the count.
		if j.rs.HasReplicate(res.Benchmark, res.Model, res.Seed) {
			continue
		}
		j.cells = append(j.cells, res)
		j.rs.Add(res)
		if res.Err() != nil {
			j.failed++
		}
	}

	m.mu.Lock()
	if n := jobSeq(r.id); n > m.nextID {
		m.nextID = n
	}
	m.jobs[j.id] = j
	m.order = append(m.order, j.id)
	m.mu.Unlock()

	state := r.state
	if !state.Terminal() {
		benches, models, err := Resolve(j.rec.request(), m.corpus)
		if err == nil {
			m.jobsResumed.Add(1)
			m.start(ctx, j, benches, models)
			return
		}
		// The grid no longer resolves (e.g. a corpus recording disappeared
		// from this server). The job cannot continue; finalise it as
		// cancelled rather than dropping history.
		state = StateCancelled
		m.persistState(j.id, state)
	}
	j.state = state
	j.cancel()
	close(j.finished)
	m.jobsRecovered.Add(1)
}

// jobSeq extracts N from a "sw-N" job ID (0 if the ID has another shape),
// so a restarted manager continues the ID sequence past every recovered
// job instead of reissuing IDs.
func jobSeq(id string) int {
	rest, ok := strings.CutPrefix(id, "sw-")
	if !ok {
		return 0
	}
	n, err := strconv.Atoi(rest)
	if err != nil || n < 0 {
		return 0
	}
	return n
}

// sortedKeys returns a string-keyed map's keys in sorted order, for
// deterministic validation messages.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m { //tracep:orderinvariant sorted below
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
