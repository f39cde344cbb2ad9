// Package report renders the paper's evaluation tables and figures
// (Tables 1-5, Figures 9-10) from simulation results, in the same
// rows/series layout the paper uses.
//
// The package is a pure rendering layer: it consumes any Results
// implementation — in practice the public tracep.ResultSet, whether filled
// in parallel by the tracep.Sweep runner or replayed from a saved JSON
// file (cmd/experiments -results) — and owns no result storage of its own.
// Absent or failed cells render as "-".
package report

import (
	"fmt"
	"io"
	"math"
	"strings"

	"tracep/internal/proc"
)

// Results is the read-side view the renderers consume: a (benchmark, model)
// grid of statistics with deterministic row/column orders, whose cells
// aggregate their seed replicates.
type Results interface {
	// Benches returns the benchmark row order.
	Benches() []string
	// Models returns the model column order.
	Models() []string
	// Get returns the stats of one cell's first successful replicate, or
	// false when the cell is absent (not simulated, or failed).
	Get(bench, model string) (*proc.Stats, bool)
	// Cell returns the aggregated distribution of one cell, or false when
	// the cell has no successful replicate. A single-replicate cell is its
	// point: the mean is the replicate's value exactly, the half-width 0.
	Cell(bench, model string) (CellStats, bool)
}

// HarmonicMeanIPC returns the harmonic mean over r's benchmarks of model's
// per-cell mean IPC, and whether any cell contributed.
func HarmonicMeanIPC(r Results, model string) (float64, bool) {
	sum, n := 0.0, 0
	for _, b := range r.Benches() {
		if c, ok := r.Cell(b, model); ok && c.IPC.Mean > 0 {
			sum += 1 / c.IPC.Mean
			n++
		}
	}
	if n == 0 || sum == 0 {
		return 0, false
	}
	return float64(n) / sum, true
}

// Improvement returns the % IPC improvement of model over base for bench,
// comparing per-cell mean IPCs.
func Improvement(r Results, bench, model, base string) (float64, bool) {
	s, ok1 := r.Cell(bench, model)
	b, ok2 := r.Cell(bench, base)
	if !ok1 || !ok2 || b.IPC.Mean == 0 {
		return 0, false
	}
	return 100 * (s.IPC.Mean - b.IPC.Mean) / b.IPC.Mean, true
}

// benchColWidth sizes the benchmark row-label column: the paper's fixed 10
// unless a name (scenario instances like "dense-branch-1") needs more, so
// the SPEC-analogue tables render byte-identically to before.
func benchColWidth(r Results) int {
	w := 10
	for _, b := range r.Benches() {
		if len(b)+1 > w {
			w = len(b) + 1
		}
	}
	return w
}

// Table3 renders "IPC without control independence" over the selection-only
// models. Multi-seed cells render as "mean±ci" error bars; single-replicate
// cells keep the paper's plain point format (Dist.String).
func Table3(w io.Writer, r Results, models []string) {
	bw := benchColWidth(r)
	fmt.Fprintln(w, "TABLE 3: IPC without control independence.")
	fmt.Fprintf(w, "%-*s", bw, "")
	for _, m := range models {
		fmt.Fprintf(w, "%14s", m)
	}
	fmt.Fprintln(w)
	for _, b := range r.Benches() {
		fmt.Fprintf(w, "%-*s", bw, b)
		for _, m := range models {
			if c, ok := r.Cell(b, m); ok {
				fmt.Fprintf(w, "%14s", c.IPC.String())
			} else {
				fmt.Fprintf(w, "%14s", "-")
			}
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "%-*s", bw, "Harm.Mean")
	for _, m := range models {
		hm, _ := HarmonicMeanIPC(r, m)
		fmt.Fprintf(w, "%14.2f", hm)
	}
	fmt.Fprintln(w)
}

// Table4 renders the impact of trace selection on trace length, trace
// mispredictions and trace cache misses.
func Table4(w io.Writer, r Results, models []string) {
	fmt.Fprintln(w, "TABLE 4: Impact of trace selection on trace length, trace mispredictions, and trace cache misses.")
	fmt.Fprintf(w, "%-14s %-22s", "model", "metric")
	for _, b := range r.Benches() {
		fmt.Fprintf(w, "%10s", trunc(b, 9))
	}
	fmt.Fprintln(w)
	for _, m := range models {
		rows := []struct {
			name string
			get  func(*proc.Stats) string
		}{
			{"avg. trace length", func(s *proc.Stats) string { return fmt.Sprintf("%.1f", s.AvgTraceLen()) }},
			{"trace misp. rate", func(s *proc.Stats) string {
				return fmt.Sprintf("%.1f(%.1f%%)", s.TraceMispPer1000(), 100*s.TraceMispRate())
			}},
			{"trace $ miss rate", func(s *proc.Stats) string {
				return fmt.Sprintf("%.1f(%.1f%%)", s.TCMissPer1000(), 100*s.TCMissRate())
			}},
		}
		for i, row := range rows {
			label := ""
			if i == 0 {
				label = m
			}
			fmt.Fprintf(w, "%-14s %-22s", label, row.name)
			for _, b := range r.Benches() {
				if s, ok := r.Get(b, m); ok {
					fmt.Fprintf(w, "%10s", row.get(s))
				} else {
					fmt.Fprintf(w, "%10s", "-")
				}
			}
			fmt.Fprintln(w)
		}
	}
}

// Table5 renders the conditional branch statistics of the base model.
func Table5(w io.Writer, r Results, model string) {
	fmt.Fprintln(w, "TABLE 5: Conditional branch statistics.")
	fmt.Fprintf(w, "%-34s", "")
	for _, b := range r.Benches() {
		fmt.Fprintf(w, "%9s", trunc(b, 8))
	}
	fmt.Fprintln(w)

	row := func(label string, get func(*proc.Stats) string) {
		fmt.Fprintf(w, "%-34s", label)
		for _, b := range r.Benches() {
			if s, ok := r.Get(b, model); ok {
				fmt.Fprintf(w, "%9s", get(s))
			} else {
				fmt.Fprintf(w, "%9s", "-")
			}
		}
		fmt.Fprintln(w)
	}
	pct := func(num, den uint64) string {
		if den == 0 {
			return "0.0%"
		}
		return fmt.Sprintf("%.1f%%", 100*float64(num)/float64(den))
	}
	avg := func(sum, n uint64) string {
		if n == 0 {
			return "-"
		}
		return fmt.Sprintf("%.1f", float64(sum)/float64(n))
	}

	row("FGCI<=32  frac. br.", func(s *proc.Stats) string { return pct(s.FGCISmall().Dynamic, s.CondBranches()) })
	row("          frac. misp.", func(s *proc.Stats) string { return pct(s.FGCISmall().Mispredicted, s.CondMispredictions()) })
	row("FGCI>32   frac. br.", func(s *proc.Stats) string { return pct(s.FGCIBig().Dynamic, s.CondBranches()) })
	row("          frac. misp.", func(s *proc.Stats) string { return pct(s.FGCIBig().Mispredicted, s.CondMispredictions()) })
	row("FGCI      misp. rate", func(s *proc.Stats) string {
		d := s.FGCISmall().Dynamic + s.FGCIBig().Dynamic
		m := s.FGCISmall().Mispredicted + s.FGCIBig().Mispredicted
		return pct(m, d)
	})
	row("          dyn. region size", func(s *proc.Stats) string {
		c := s.FGCISmall()
		big := s.FGCIBig()
		return avg(c.DynSizeSum+big.DynSizeSum, c.Dynamic+big.Dynamic)
	})
	row("          stat. region size", func(s *proc.Stats) string {
		c := s.FGCISmall()
		big := s.FGCIBig()
		return avg(c.StaticSizeSum+big.StaticSizeSum, c.Dynamic+big.Dynamic)
	})
	row("          # cond. br. in reg.", func(s *proc.Stats) string {
		c := s.FGCISmall()
		big := s.FGCIBig()
		return avg(c.CondBrSum+big.CondBrSum, c.Dynamic+big.Dynamic)
	})
	row("other fwd frac. br.", func(s *proc.Stats) string { return pct(s.OtherForward().Dynamic, s.CondBranches()) })
	row("          frac. misp.", func(s *proc.Stats) string { return pct(s.OtherForward().Mispredicted, s.CondMispredictions()) })
	row("          misp. rate", func(s *proc.Stats) string { return pct(s.OtherForward().Mispredicted, s.OtherForward().Dynamic) })
	row("backward  frac. br.", func(s *proc.Stats) string { return pct(s.Backward().Dynamic, s.CondBranches()) })
	row("          frac. misp.", func(s *proc.Stats) string { return pct(s.Backward().Mispredicted, s.CondMispredictions()) })
	row("          misp. rate", func(s *proc.Stats) string { return pct(s.Backward().Mispredicted, s.Backward().Dynamic) })
	row("overall branch misp. rate", func(s *proc.Stats) string { return fmt.Sprintf("%.1f%%", 100*s.BranchMispRate()) })
	row("branch misp./1000 instr.", func(s *proc.Stats) string { return fmt.Sprintf("%.1f", s.BranchMispPer1000()) })
}

// Figure renders a %-improvement-over-base bar chart (Figures 9 and 10) as
// aligned text with ASCII bars.
func Figure(w io.Writer, title string, r Results, models []string, base string) {
	bw := benchColWidth(r)
	fmt.Fprintln(w, title)
	fmt.Fprintf(w, "%-*s", bw, "")
	for _, m := range models {
		fmt.Fprintf(w, "%14s", m)
	}
	fmt.Fprintln(w)
	sums := make(map[string]float64)
	for _, b := range r.Benches() {
		fmt.Fprintf(w, "%-*s", bw, b)
		for _, m := range models {
			if imp, ok := Improvement(r, b, m, base); ok {
				fmt.Fprintf(w, "%13.1f%%", imp)
				sums[m] += imp
			} else {
				fmt.Fprintf(w, "%14s", "-")
			}
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "%-*s", bw, "average")
	for _, m := range models {
		fmt.Fprintf(w, "%13.1f%%", sums[m]/float64(max(len(r.Benches()), 1)))
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w)
	// ASCII bars per benchmark for the first model ordering.
	maxImp := 1.0
	for _, b := range r.Benches() {
		for _, m := range models {
			if imp, ok := Improvement(r, b, m, base); ok {
				maxImp = math.Max(maxImp, math.Abs(imp))
			}
		}
	}
	for _, b := range r.Benches() {
		for _, m := range models {
			imp, ok := Improvement(r, b, m, base)
			if !ok {
				continue
			}
			bar := int(math.Round(math.Abs(imp) / maxImp * 40))
			sign := ""
			if imp < 0 {
				sign = "-"
			}
			fmt.Fprintf(w, "  %-9s %-13s %6.1f%% |%s%s\n", b, m, imp, sign, strings.Repeat("#", bar))
		}
	}
}

// BestPerBenchmark reports, per benchmark, the best CI model's improvement
// over base — the paper's "using the best-performing technique" summary
// (13% average; 17% over benchmarks with significant misprediction rates).
func BestPerBenchmark(w io.Writer, r Results, ciModels []string, base string) (avg float64) {
	fmt.Fprintln(w, "Best-performing CI technique per benchmark:")
	var sum float64
	for _, b := range r.Benches() {
		best, bestModel := math.Inf(-1), ""
		for _, m := range ciModels {
			if imp, ok := Improvement(r, b, m, base); ok && imp > best {
				best, bestModel = imp, m
			}
		}
		if bestModel == "" {
			continue
		}
		fmt.Fprintf(w, "  %-10s %-13s %+.1f%%\n", b, bestModel, best)
		sum += best
	}
	avg = sum / float64(max(len(r.Benches()), 1))
	fmt.Fprintf(w, "  average best-technique improvement: %+.1f%%\n", avg)
	return avg
}

func trunc(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n]
}
