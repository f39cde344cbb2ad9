package tracep

import (
	"encoding/json"
	"errors"
	"sync"

	"tracep/internal/report"
)

// Result is the outcome of one simulation run: one (benchmark, model, seed)
// replicate. Exactly one of Stats and Error is meaningful: a successful run
// carries statistics, a failed one carries the error text (and, on a live
// set, the original error via Err).
//
// Seed is the replicate's position on the sweep's seed axis (Sweep.Seeds);
// a single-seed sweep stamps every cell with that one seed, and seed 0 —
// the canonical predictor reset — is omitted from JSON, so pre-seeds
// baselines round-trip byte-identically.
//
// A warmed-up run records its fast-forwarded prefix in Stats.WarmupInsts
// (surfaced via Warmup); the metadata travels with the cell through JSON
// round-trips and the wire, and ResultSet.Diff refuses to compare cells
// whose warm-ups differ — they measure different regions of the program.
type Result struct {
	Benchmark string `json:"benchmark"`
	Model     string `json:"model"`
	Seed      int64  `json:"seed,omitempty"`
	Stats     *Stats `json:"stats,omitempty"`
	// Error is the failure text of an unsuccessful run ("" on success). It
	// survives JSON round-trips, unlike the wrapped error itself.
	Error string `json:"error,omitempty"`

	err error
}

// Err returns the run's failure as an error, or nil on success. On a live
// result the original error (supporting errors.Is, e.g. against
// context.Canceled or ErrInvalidConfig) is returned; after a JSON
// round-trip only the text survives.
func (r *Result) Err() error {
	if r.err != nil {
		return r.err
	}
	if r.Error != "" {
		return errors.New(r.Error)
	}
	return nil
}

// Warmup returns the number of instructions the run fast-forwarded before
// its measured region (0 for cold or failed runs).
func (r *Result) Warmup() uint64 {
	if r.Stats == nil {
		return 0
	}
	return r.Stats.WarmupInsts
}

// CellStats is the aggregated view of one (benchmark, model) cell across
// its seed replicates: a Dist (mean, stddev, 95% CI half-width via
// Student-t, min/max, N) per gated metric. See ResultSet.Cell.
type CellStats = report.CellStats

// Dist is one metric's distribution across a cell's seed replicates. A
// single-replicate Dist degenerates to its point: Stddev and CIHalf are
// exactly 0.
type Dist = report.Dist

// repKey addresses one replicate of the (benchmark × model × seed) grid.
type repKey struct {
	bench, model string
	seed         int64
}

// ResultSet is a (benchmark × model × seed) grid of simulation results
// with deterministic axis ordering, per-run error capture, and JSON
// marshalling for downstream tooling. Every (benchmark, model) cell holds
// one replicate per seed; single-seed sets — the pre-replicate shape —
// behave exactly as before, and their JSON is byte-identical. It is safe
// for concurrent use: the Sweep runner's workers fill one set in parallel.
//
// Raw replicates are reached through Lookup and Replicates; Cell (and Row)
// aggregate a cell's replicates into CellStats distributions. ResultSet
// implements internal/report's Results interface, so the paper's table and
// figure renderers consume it directly, error bars included.
type ResultSet struct {
	mu      sync.RWMutex
	byKey   map[repKey]*Result
	benches []string
	models  []string
	seeds   []int64
	seenB   map[string]bool
	seenM   map[string]bool
	seenS   map[int64]bool
}

// NewResultSet builds an empty result set; axes appear in first-Add order.
func NewResultSet() *ResultSet {
	return &ResultSet{
		byKey: make(map[repKey]*Result),
		seenB: make(map[string]bool),
		seenM: make(map[string]bool),
		seenS: make(map[int64]bool),
	}
}

// NewResultSetGrid builds an empty result set with all three axis orders —
// benchmarks, models, seeds — fixed up front, so concurrent writers (Sweep
// workers, stream collectors) cannot perturb any axis however their runs
// interleave. A nil seeds axis builds in first-Add order.
func NewResultSetGrid(benches, models []string, seeds []int64) *ResultSet {
	r := NewResultSet()
	for _, b := range benches {
		r.noteBench(b)
	}
	for _, m := range models {
		r.noteModel(m)
	}
	for _, s := range seeds {
		r.noteSeed(s)
	}
	return r
}

func (r *ResultSet) noteBench(b string) {
	if !r.seenB[b] {
		r.seenB[b] = true
		r.benches = append(r.benches, b)
	}
}

func (r *ResultSet) noteModel(m string) {
	if !r.seenM[m] {
		r.seenM[m] = true
		r.models = append(r.models, m)
	}
}

func (r *ResultSet) noteSeed(s int64) {
	if !r.seenS[s] {
		r.seenS[s] = true
		r.seeds = append(r.seeds, s)
	}
}

// Add records one run result, overwriting any previous result for the same
// (benchmark, model, seed) replicate.
func (r *ResultSet) Add(res *Result) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.noteBench(res.Benchmark)
	r.noteModel(res.Model)
	r.noteSeed(res.Seed)
	r.byKey[repKey{res.Benchmark, res.Model, res.Seed}] = res
}

// Lookup returns the cell's first recorded replicate in seed-axis order
// (including failed runs) — on a single-seed set, the cell itself. Use
// Replicates for the full replicate list.
func (r *ResultSet) Lookup(bench, model string) (*Result, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, s := range r.seeds {
		if res, ok := r.byKey[repKey{bench, model, s}]; ok {
			return res, true
		}
	}
	return nil, false
}

// Replicates returns every recorded replicate of one cell in seed-axis
// order (including failed runs). Empty when the cell is absent.
func (r *ResultSet) Replicates(bench, model string) []*Result {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var out []*Result
	for _, s := range r.seeds {
		if res, ok := r.byKey[repKey{bench, model, s}]; ok {
			out = append(out, res)
		}
	}
	return out
}

// Get returns the statistics of the cell's first successful replicate in
// seed-axis order; cells with no successful replicate report false. It is
// exact on single-seed sets; use Cell for the aggregated distribution of a
// multi-seed cell.
func (r *ResultSet) Get(bench, model string) (*Stats, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, s := range r.seeds {
		if res, ok := r.byKey[repKey{bench, model, s}]; ok && res.Stats != nil {
			return res.Stats, true
		}
	}
	return nil, false
}

// Cell aggregates one cell's successful replicates into per-metric
// distributions (mean, stddev, 95% CI half-width, min/max); false when the
// cell has no successful replicate. On a single-seed set the distributions
// degenerate to the cell's exact point values with zero half-widths.
func (r *ResultSet) Cell(bench, model string) (CellStats, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.cellLocked(bench, model)
}

func (r *ResultSet) cellLocked(bench, model string) (CellStats, bool) {
	var stats []*Stats
	for _, s := range r.seeds {
		if res, ok := r.byKey[repKey{bench, model, s}]; ok && res.Stats != nil {
			stats = append(stats, res.Stats)
		}
	}
	if len(stats) == 0 {
		return CellStats{}, false
	}
	return report.CellOf(bench, model, stats), true
}

// Benches returns the benchmark row order.
func (r *ResultSet) Benches() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return append([]string(nil), r.benches...)
}

// Models returns the model column order.
func (r *ResultSet) Models() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return append([]string(nil), r.models...)
}

// Seeds returns the seed axis order. A pre-seeds set has the single seed
// its cells were added with (typically 0).
func (r *ResultSet) Seeds() []int64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return append([]int64(nil), r.seeds...)
}

// Has reports whether the (bench, model) cell has at least one recorded
// replicate (successful or failed).
func (r *ResultSet) Has(bench, model string) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, s := range r.seeds {
		if _, ok := r.byKey[repKey{bench, model, s}]; ok {
			return true
		}
	}
	return false
}

// HasReplicate reports whether the exact (bench, model, seed) replicate has
// a recorded result (successful or failed). It is the replicate-level
// presence test the cluster's placement layer dedupes on: a stolen or
// resumed row re-delivers only the replicates not already present.
func (r *ResultSet) HasReplicate(bench, model string, seed int64) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	_, ok := r.byKey[repKey{bench, model, seed}]
	return ok
}

// Row returns one benchmark row's aggregated cells in model-column order.
// Cells without a successful replicate are skipped, so len(Row(b)) <
// len(Models()) identifies a row with outstanding or failed work.
func (r *ResultSet) Row(bench string) []CellStats {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]CellStats, 0, len(r.models))
	for _, m := range r.models {
		if c, ok := r.cellLocked(bench, m); ok {
			out = append(out, c)
		}
	}
	return out
}

// Len returns the number of recorded replicates.
func (r *ResultSet) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.byKey)
}

// Results returns every recorded replicate in deterministic grid order —
// benchmark-major, then model, then seed — regardless of the order runs
// completed in. A cell's replicates are therefore adjacent.
func (r *ResultSet) Results() []*Result {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]*Result, 0, len(r.byKey))
	for _, b := range r.benches {
		for _, m := range r.models {
			for _, s := range r.seeds {
				if res, ok := r.byKey[repKey{b, m, s}]; ok {
					out = append(out, res)
				}
			}
		}
	}
	return out
}

// Err joins the errors of every failed run in deterministic order, or
// returns nil when all recorded runs succeeded.
func (r *ResultSet) Err() error {
	var errs []error
	for _, res := range r.Results() {
		if e := res.Err(); e != nil {
			errs = append(errs, e)
		}
	}
	return errors.Join(errs...)
}

// HarmonicMeanIPC returns the harmonic mean over the set's benchmarks of
// model's per-cell mean IPC, and whether any cell contributed (false for
// an unknown model or a model with no successful cells, mirroring
// Improvement's shape). On single-seed sets a cell's mean is its point IPC
// bit-for-bit.
func (r *ResultSet) HarmonicMeanIPC(model string) (float64, bool) {
	return report.HarmonicMeanIPC(r, model)
}

// Improvement returns the % IPC improvement of model over base for bench,
// comparing per-cell mean IPCs.
func (r *ResultSet) Improvement(bench, model, base string) (float64, bool) {
	return report.Improvement(r, bench, model, base)
}

// resultSetJSON is the wire form: axis orders are explicit so a round-trip
// reproduces the set bit-for-bit. The seeds axis appears only for
// multi-seed sets — a single-seed set's axis is recoverable from its
// cells' seed fields, which keeps pre-seeds baselines byte-identical.
type resultSetJSON struct {
	Benchmarks []string  `json:"benchmarks"`
	Models     []string  `json:"models"`
	Seeds      []int64   `json:"seeds,omitempty"`
	Results    []*Result `json:"results"`
}

// MarshalJSON encodes the set with explicit axis orders and the replicates
// in deterministic grid order (benchmark-major, then model, then seed).
func (r *ResultSet) MarshalJSON() ([]byte, error) {
	seeds := r.Seeds()
	if len(seeds) <= 1 {
		seeds = nil
	}
	return json.Marshal(resultSetJSON{
		Benchmarks: r.Benches(),
		Models:     r.Models(),
		Seeds:      seeds,
		Results:    r.Results(),
	})
}

// UnmarshalJSON rebuilds a set marshalled by MarshalJSON — including
// pre-seeds files, whose absent seeds axis rebuilds from the cells
// themselves as a single-replicate grid. Wrapped run errors do not survive
// the trip; Result.Error text does.
func (r *ResultSet) UnmarshalJSON(data []byte) error {
	var wire resultSetJSON
	if err := json.Unmarshal(data, &wire); err != nil {
		return err
	}
	fresh := NewResultSetGrid(wire.Benchmarks, wire.Models, wire.Seeds)
	for _, res := range wire.Results {
		fresh.Add(res)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.byKey, r.benches, r.models, r.seeds = fresh.byKey, fresh.benches, fresh.models, fresh.seeds
	r.seenB, r.seenM, r.seenS = fresh.seenB, fresh.seenM, fresh.seenS
	return nil
}
