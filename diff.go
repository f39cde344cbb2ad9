package tracep

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// cellKey addresses one (benchmark, model) cell of the comparison grid.
// Diff compares cells — a multi-seed set's replicates are aggregated into
// their cell's distributions first — so the key carries no seed.
type cellKey struct {
	bench, model string
}

// Tolerances bounds the drift a Diff accepts before flagging a cell as a
// regression. The zero value is the strictest gate: any IPC drop, any rise
// in trace mispredictions or recoveries, regresses, and every baseline
// cell must be present in the current set. Simulations are deterministic,
// so the strict gate is the natural default; tolerances exist to absorb
// intended small perturbations. Every bound is non-negative or +Inf
// (Validate).
type Tolerances struct {
	// IPCPct is the maximum tolerated relative IPC drop, in percent (2.0
	// allows up to a 2% slowdown per cell). Improvements are never
	// regressions.
	IPCPct float64 `json:"ipc_pct"`
	// TraceMispPer1000 is the maximum tolerated rise in trace
	// mispredictions per 1000 retired instructions (Stats.TraceMispPer1000,
	// an absolute delta — 0.5 allows half an extra misprediction per 1000
	// insts). Drops are never regressions.
	//
	// Note that every trace misprediction triggers one recovery, so this
	// and RecoveriesPct watch the same event through different lenses: this
	// gate is a rate, robust to runs retiring different instruction counts;
	// RecoveriesPct bounds the raw count. For same-length runs a rise trips
	// both (and Detail reports both reasons); to absorb an intended
	// perturbation, loosen both.
	TraceMispPer1000 float64 `json:"trace_misp_per_1000,omitempty"`
	// RecoveriesPct is the maximum tolerated relative rise in the total
	// recovery count (Stats.Recoveries), in percent. A baseline cell with
	// zero recoveries regresses on any rise at all — there is no base to
	// scale the tolerance by. See the TraceMispPer1000 note on how the two
	// gates relate.
	RecoveriesPct float64 `json:"recoveries_pct,omitempty"`
	// CacheMissPer1000 is the maximum tolerated rise in cache misses per
	// 1000 retired instructions, applied to the instruction cache and the
	// data cache independently (Stats.ICMissPer1000, Stats.DCMissPer1000;
	// absolute deltas, like TraceMispPer1000). Drops are never regressions.
	CacheMissPer1000 float64 `json:"cache_miss_per_1000,omitempty"`
	// AllowMissing tolerates baseline cells that are absent from (or
	// failed in) the current set — e.g. when gating a deliberately smaller
	// sweep against a full baseline.
	AllowMissing bool `json:"allow_missing,omitempty"`
}

// ParseTolerances parses a Tolerances from one flag-friendly string, in
// either of two encodings:
//
//   - JSON, when the spec starts with "{": the Tolerances JSON shape,
//     unknown fields rejected — e.g. {"ipc_pct":2,"allow_missing":true}.
//   - comma-separated k=v pairs otherwise, with short keys: ipc (IPCPct),
//     tmisp (TraceMispPer1000), recoveries (RecoveriesPct), miss
//     (CacheMissPer1000), and allow-missing (bool; bare "allow-missing"
//     means true) — e.g. "ipc=2,miss=0.5,allow-missing".
//
// An empty spec returns the zero (strictest) Tolerances. Every bound must
// be non-negative (see Validate). cmd/experiments' -tolerances flag and
// server.SweepRequest.Tolerances both speak this encoding.
func ParseTolerances(spec string) (Tolerances, error) {
	var tol Tolerances
	s := strings.TrimSpace(spec)
	if s == "" {
		return tol, nil
	}
	if strings.HasPrefix(s, "{") {
		dec := json.NewDecoder(strings.NewReader(s))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&tol); err != nil {
			return Tolerances{}, fmt.Errorf("tracep: parsing tolerances JSON: %w", err)
		}
		if err := tol.Validate(); err != nil {
			return Tolerances{}, err
		}
		return tol, nil
	}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		key, val, hasVal := strings.Cut(part, "=")
		key = strings.TrimSpace(key)
		val = strings.TrimSpace(val)
		num := func() (float64, error) {
			if !hasVal {
				return 0, fmt.Errorf("tracep: tolerance %q needs a value (%s=<number>)", key, key)
			}
			v, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return 0, fmt.Errorf("tracep: tolerance %q: %w", key, err)
			}
			return v, nil
		}
		var err error
		switch key {
		case "ipc":
			tol.IPCPct, err = num()
		case "tmisp":
			tol.TraceMispPer1000, err = num()
		case "recoveries":
			tol.RecoveriesPct, err = num()
		case "miss":
			tol.CacheMissPer1000, err = num()
		case "allow-missing":
			if !hasVal {
				tol.AllowMissing = true
			} else if tol.AllowMissing, err = strconv.ParseBool(val); err != nil {
				err = fmt.Errorf("tracep: tolerance %q: %w", key, err)
			}
		default:
			err = fmt.Errorf("tracep: unknown tolerance key %q (want ipc, tmisp, recoveries, miss, allow-missing)", key)
		}
		if err != nil {
			return Tolerances{}, err
		}
	}
	if err := tol.Validate(); err != nil {
		return Tolerances{}, err
	}
	return tol, nil
}

// Validate rejects bounds the gate cannot honour: a negative bound would
// flag an unchanged cell, and NaN fails every comparison, so any drop
// would pass. +Inf is allowed.
func (t Tolerances) Validate() error {
	for _, b := range []struct {
		field, key string
		v          float64
	}{
		{"ipc_pct", "ipc", t.IPCPct},
		{"trace_misp_per_1000", "tmisp", t.TraceMispPer1000},
		{"recoveries_pct", "recoveries", t.RecoveriesPct},
		{"cache_miss_per_1000", "miss", t.CacheMissPer1000},
	} {
		if !(b.v >= 0) {
			return fmt.Errorf("tracep: tolerance %s (%s) is %v; tolerances must be non-negative", b.field, b.key, b.v)
		}
	}
	return nil
}

// DiffKind classifies one cell of a Diff.
type DiffKind string

const (
	// DiffOK: both sets have statistics and the IPC delta is within
	// tolerance (improvements included).
	DiffOK DiffKind = "ok"
	// DiffRegression: both sets have statistics and current IPC dropped
	// beyond Tolerances.IPCPct.
	DiffRegression DiffKind = "regression"
	// DiffMissing: the baseline cell succeeded but the current set has no
	// statistics for it (absent, or failed — Detail carries the error
	// text). A regression unless Tolerances.AllowMissing is set.
	DiffMissing DiffKind = "missing"
	// DiffNew: the current cell succeeded but the baseline has no
	// statistics for it. Informational, never a regression.
	DiffNew DiffKind = "new"
	// DiffIncomparable: both sets have statistics but they measure
	// different regions — their warm-up instruction counts differ — so no
	// number is comparable. Always a regression: either align the warm-up
	// configuration or refresh the baseline (see the baseline-refresh CI
	// workflow).
	DiffIncomparable DiffKind = "incomparable"
)

// CellDelta is one (benchmark, model) cell of a Diff.
type CellDelta struct {
	Benchmark string   `json:"benchmark"`
	Model     string   `json:"model"`
	Kind      DiffKind `json:"kind"`
	// BaselineIPC and CurrentIPC are 0 when the respective side has no
	// statistics for the cell. On a multi-replicate side they are the
	// cell's mean IPC; on a single-replicate side the point IPC exactly.
	BaselineIPC float64 `json:"baseline_ipc,omitempty"`
	CurrentIPC  float64 `json:"current_ipc,omitempty"`
	// BaselineN/CurrentN count each side's successful seed replicates, and
	// BaselineIPCCI/CurrentIPCCI carry the 95% CI half-widths on the mean
	// IPC. Populated only when either side has N > 1; a comparison of two
	// points leaves them zero, keeping pre-seeds diff JSON byte-identical.
	BaselineN     int     `json:"baseline_n,omitempty"`
	CurrentN      int     `json:"current_n,omitempty"`
	BaselineIPCCI float64 `json:"baseline_ipc_ci,omitempty"`
	CurrentIPCCI  float64 `json:"current_ipc_ci,omitempty"`
	// DeltaPct is the relative IPC change in percent (negative = slower);
	// meaningful only when both sides have statistics.
	DeltaPct float64 `json:"delta_pct,omitempty"`
	// Trace mispredictions per 1000 retired instructions and total recovery
	// counts on each side, for the Tolerances.TraceMispPer1000 and
	// Tolerances.RecoveriesPct checks; 0 when the side has no statistics.
	BaselineTraceMisp  float64 `json:"baseline_trace_misp,omitempty"`
	CurrentTraceMisp   float64 `json:"current_trace_misp,omitempty"`
	BaselineRecoveries uint64  `json:"baseline_recoveries,omitempty"`
	CurrentRecoveries  uint64  `json:"current_recoveries,omitempty"`
	// Cache misses per 1000 retired instructions on each side, for the
	// Tolerances.CacheMissPer1000 check; 0 when the side has no statistics.
	BaselineICacheMiss float64 `json:"baseline_icache_miss,omitempty"`
	CurrentICacheMiss  float64 `json:"current_icache_miss,omitempty"`
	BaselineDCacheMiss float64 `json:"baseline_dcache_miss,omitempty"`
	CurrentDCacheMiss  float64 `json:"current_dcache_miss,omitempty"`
	// Warm-up instruction counts on each side (Stats.WarmupInsts). A
	// mismatch makes the cell DiffIncomparable.
	BaselineWarmup uint64 `json:"baseline_warmup,omitempty"`
	CurrentWarmup  uint64 `json:"current_warmup,omitempty"`
	// Detail carries context for non-ok cells, e.g. the failed run's error
	// text.
	Detail string `json:"detail,omitempty"`
	// Regression marks the cell as failing the gate under the Diff's
	// tolerances.
	Regression bool `json:"regression,omitempty"`
}

// Diff is the cell-by-cell comparison of a current ResultSet against a
// baseline, under a Tolerances gate. Cells appear in deterministic order:
// the baseline's benchmark-major grid first, then current-only cells in
// the current set's grid order. Diff marshals to JSON directly; WriteText
// renders the human table.
type Diff struct {
	Tolerances Tolerances  `json:"tolerances"`
	Cells      []CellDelta `json:"cells"`
}

// Diff compares r (the current results) against baseline under tol,
// cell by cell — a multi-seed set's replicates are aggregated into their
// cell's CellStats distributions first, and a single-replicate cell is a
// zero-width interval around its point. A metric regresses when its mean
// drifts beyond tolerance AND the two 95% confidence intervals are
// disjoint, so replicate noise within overlapping intervals never fails
// the gate; for two points the interval condition is the drift itself.
//
// Only cells with statistics participate as successes; failed cells count
// as absent on their side (a baseline failure that now succeeds is
// DiffNew, a baseline success that now fails is DiffMissing with the error
// text in Detail).
func (r *ResultSet) Diff(baseline *ResultSet, tol Tolerances) *Diff {
	d := &Diff{Tolerances: tol}
	seen := make(map[cellKey]bool)
	for _, b := range baseline.Benches() {
		for _, m := range baseline.Models() {
			base, ok := baseline.Cell(b, m)
			if !ok {
				continue
			}
			seen[cellKey{b, m}] = true
			d.Cells = append(d.Cells, compareCell(r, baseline, base, tol))
		}
	}
	for _, b := range r.Benches() {
		for _, m := range r.Models() {
			if seen[cellKey{b, m}] {
				continue
			}
			cur, ok := r.Cell(b, m)
			if !ok {
				continue
			}
			c := CellDelta{Benchmark: b, Model: m, Kind: DiffNew, CurrentIPC: cur.IPC.Mean}
			if cur.N > 1 {
				c.CurrentN, c.CurrentIPCCI = cur.N, cur.IPC.CIHalf
			}
			d.Cells = append(d.Cells, c)
		}
	}
	return d
}

// compareCell gates one baseline cell against the same cell of r: every
// metric regresses only when its mean drifts beyond the tolerance AND the
// two 95% confidence intervals are disjoint in the regressing direction.
// Replicate counts, IPC half-widths and the "95% CIs disjoint" wording
// appear only when a side aggregated replicates, so a diff of two point
// sets reads as a plain point comparison.
func compareCell(r, baseline *ResultSet, base CellStats, tol Tolerances) CellDelta {
	bench, model := base.Benchmark, base.Model
	c := CellDelta{Benchmark: bench, Model: model, BaselineIPC: base.IPC.Mean}
	cur, ok := r.Cell(bench, model)
	if !ok {
		c.Kind = DiffMissing
		c.Regression = !tol.AllowMissing
		if res, found := r.Lookup(bench, model); found && res.Error != "" {
			c.Detail = res.Error
		} else {
			c.Detail = "cell absent from current set"
		}
		return c
	}
	c.CurrentIPC = cur.IPC.Mean
	baseStats, _ := baseline.Get(bench, model)
	curStats, _ := r.Get(bench, model)
	c.BaselineWarmup, c.CurrentWarmup = baseStats.WarmupInsts, curStats.WarmupInsts
	if c.BaselineWarmup != c.CurrentWarmup {
		// The two sides measure different regions of the program; comparing
		// any counter would be meaningless. Like-for-like only.
		c.Kind = DiffIncomparable
		c.Regression = true
		c.Detail = fmt.Sprintf("warm-up mismatch: baseline %d insts, current %d — align -warmup or refresh the baseline",
			c.BaselineWarmup, c.CurrentWarmup)
		return c
	}
	disjoint := ""
	if base.N > 1 || cur.N > 1 {
		c.BaselineN, c.CurrentN = base.N, cur.N
		c.BaselineIPCCI, c.CurrentIPCCI = base.IPC.CIHalf, cur.IPC.CIHalf
		disjoint = ", 95% CIs disjoint"
	}
	c.BaselineTraceMisp = base.TraceMispPer1000.Mean
	c.CurrentTraceMisp = cur.TraceMispPer1000.Mean
	c.BaselineRecoveries = uint64(math.Round(base.Recoveries.Mean))
	c.CurrentRecoveries = uint64(math.Round(cur.Recoveries.Mean))
	c.BaselineICacheMiss = base.ICMissPer1000.Mean
	c.CurrentICacheMiss = cur.ICMissPer1000.Mean
	c.BaselineDCacheMiss = base.DCMissPer1000.Mean
	c.CurrentDCacheMiss = cur.DCMissPer1000.Mean
	if c.BaselineIPC > 0 {
		c.DeltaPct = 100 * (c.CurrentIPC - c.BaselineIPC) / c.BaselineIPC
	}

	var reasons []string
	if c.DeltaPct < -tol.IPCPct && base.IPC.Above(cur.IPC) {
		reasons = append(reasons, fmt.Sprintf("IPC dropped %.2f%% (tolerance %.2f%%%s)",
			-c.DeltaPct, tol.IPCPct, disjoint))
	}
	if rise := c.CurrentTraceMisp - c.BaselineTraceMisp; rise > tol.TraceMispPer1000 && cur.TraceMispPer1000.Above(base.TraceMispPer1000) {
		reasons = append(reasons, fmt.Sprintf("trace mispredictions rose %.2f/1000 insts (tolerance %.2f%s)",
			rise, tol.TraceMispPer1000, disjoint))
	}
	if cur.Recoveries.Above(base.Recoveries) {
		exceeded := base.Recoveries.Mean == 0
		if !exceeded {
			pct := 100 * (cur.Recoveries.Mean - base.Recoveries.Mean) / base.Recoveries.Mean
			exceeded = pct > tol.RecoveriesPct
		}
		if exceeded {
			reasons = append(reasons, fmt.Sprintf("recoveries rose %d -> %d (tolerance %.2f%%%s)",
				c.BaselineRecoveries, c.CurrentRecoveries, tol.RecoveriesPct, disjoint))
		}
	}
	if rise := c.CurrentICacheMiss - c.BaselineICacheMiss; rise > tol.CacheMissPer1000 && cur.ICMissPer1000.Above(base.ICMissPer1000) {
		reasons = append(reasons, fmt.Sprintf("I-cache misses rose %.2f/1000 insts (tolerance %.2f%s)",
			rise, tol.CacheMissPer1000, disjoint))
	}
	if rise := c.CurrentDCacheMiss - c.BaselineDCacheMiss; rise > tol.CacheMissPer1000 && cur.DCMissPer1000.Above(base.DCMissPer1000) {
		reasons = append(reasons, fmt.Sprintf("D-cache misses rose %.2f/1000 insts (tolerance %.2f%s)",
			rise, tol.CacheMissPer1000, disjoint))
	}
	if len(reasons) > 0 {
		c.Kind = DiffRegression
		c.Regression = true
		c.Detail = strings.Join(reasons, "; ")
	} else {
		c.Kind = DiffOK
	}
	return c
}

// Regressions returns the cells that fail the gate, in Diff order.
func (d *Diff) Regressions() []CellDelta {
	var out []CellDelta
	for _, c := range d.Cells {
		if c.Regression {
			out = append(out, c)
		}
	}
	return out
}

// Compared returns how many cells actually had their numbers checked
// (kinds DiffOK and DiffRegression). Incomparable cells — statistics on
// both sides but mismatched warm-ups — do not count: nothing was compared.
func (d *Diff) Compared() int {
	n := 0
	for _, c := range d.Cells {
		if c.Kind == DiffOK || c.Kind == DiffRegression {
			n++
		}
	}
	return n
}

// Incomparable returns how many cells had statistics on both sides but
// mismatched warm-ups.
func (d *Diff) Incomparable() int {
	n := 0
	for _, c := range d.Cells {
		if c.Kind == DiffIncomparable {
			n++
		}
	}
	return n
}

// OK reports whether the gate passed: no cell regressed AND at least one
// IPC comparison actually happened. A baseline that shares no successful
// cells with the current set (empty file, renamed benchmarks/models) would
// otherwise pass vacuously — even under AllowMissing — and that is a
// broken gate, not a green one.
func (d *Diff) OK() bool { return d.Compared() > 0 && len(d.Regressions()) == 0 }

// WriteText renders the diff as an aligned human-readable table, one row
// per cell, followed by a one-line verdict.
func (d *Diff) WriteText(w io.Writer) {
	fmt.Fprintf(w, "RESULTSET DIFF (tolerance: IPC -%.2f%%, trace misp +%.2f/1000, recoveries +%.2f%%, cache miss +%.2f/1000",
		d.Tolerances.IPCPct, d.Tolerances.TraceMispPer1000, d.Tolerances.RecoveriesPct, d.Tolerances.CacheMissPer1000)
	if d.Tolerances.AllowMissing {
		fmt.Fprint(w, ", missing cells allowed")
	}
	fmt.Fprintln(w, ")")
	fmt.Fprintf(w, "  %-10s %-13s %10s %10s %8s  %s\n",
		"benchmark", "model", "baseline", "current", "delta", "verdict")
	for _, c := range d.Cells {
		verdict := string(c.Kind)
		if c.Regression {
			verdict = "REGRESSION"
		}
		if c.Detail != "" {
			verdict += " (" + c.Detail + ")"
		}
		fmt.Fprintf(w, "  %-10s %-13s %10s %10s %8s  %s\n",
			c.Benchmark, c.Model,
			ipcCIText(c.BaselineIPC, c.BaselineIPCCI, c.BaselineN),
			ipcCIText(c.CurrentIPC, c.CurrentIPCCI, c.CurrentN),
			deltaText(c), verdict)
	}
	switch reg := d.Regressions(); {
	case d.Compared() == 0 && d.Incomparable() > 0:
		fmt.Fprintf(w, "FAIL: %d cells incomparable (warm-up mismatch) and none compared — align -warmup or refresh the baseline\n",
			d.Incomparable())
	case d.Compared() == 0:
		fmt.Fprintln(w, "FAIL: no cells compared — baseline shares no cells with the current set")
	case len(reg) > 0:
		fmt.Fprintf(w, "FAIL: %d of %d cells regressed\n", len(reg), len(d.Cells))
	default:
		fmt.Fprintf(w, "OK: %d cells within tolerance\n", len(d.Cells))
	}
}

func ipcText(ipc float64) string {
	if ipc == 0 {
		return "-"
	}
	return fmt.Sprintf("%.3f", ipc)
}

// ipcCIText renders one side's IPC, as "mean±half" error-bar notation when
// the side aggregated replicates and the plain point otherwise.
func ipcCIText(ipc, ci float64, n int) string {
	if n > 1 {
		return fmt.Sprintf("%.3f±%.3f", ipc, ci)
	}
	return ipcText(ipc)
}

func deltaText(c CellDelta) string {
	// Incomparable cells never had a delta computed: both IPCs are present
	// but deliberately not compared, so rendering "0.000%" would misread as
	// "no change".
	if c.Kind == DiffIncomparable || c.BaselineIPC == 0 || c.CurrentIPC == 0 {
		return "-"
	}
	if math.Abs(c.DeltaPct) < 0.0005 {
		return "0.000%"
	}
	return fmt.Sprintf("%+.3f%%", c.DeltaPct)
}
