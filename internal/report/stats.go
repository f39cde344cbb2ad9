package report

import (
	"fmt"
	"math"

	"tracep/internal/proc"
)

// Dist summarises one metric across the seed replicates of a cell: the
// sample mean, the sample standard deviation (Bessel-corrected), and the
// half-width of the two-sided 95% confidence interval on the mean,
// computed with the Student-t quantile for N-1 degrees of freedom. A
// single-replicate distribution degenerates to the point it was built
// from: Stddev and CIHalf are exactly 0, so every consumer that gates or
// renders on intervals reduces to the pre-replicate point behaviour.
type Dist struct {
	N      int     `json:"n"`
	Mean   float64 `json:"mean"`
	Stddev float64 `json:"stddev,omitempty"`
	CIHalf float64 `json:"ci_half,omitempty"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
}

// Interval returns the 95% confidence interval on the mean.
func (d Dist) Interval() (lo, hi float64) { return d.Mean - d.CIHalf, d.Mean + d.CIHalf }

// Above reports whether d's 95% confidence interval lies wholly above o's:
// d is credibly greater, not merely greater in the mean. For two points
// (zero half-widths) it is d.Mean > o.Mean.
func (d Dist) Above(o Dist) bool {
	lo, _ := d.Interval()
	_, hi := o.Interval()
	return lo > hi
}

// String renders "mean" for a point and "mean±half" for a distribution,
// with two decimals — the error-bar notation the paper figures use.
func (d Dist) String() string {
	if d.N <= 1 {
		return fmt.Sprintf("%.2f", d.Mean)
	}
	return fmt.Sprintf("%.2f±%.2f", d.Mean, d.CIHalf)
}

// DistOf builds the distribution of one metric over replicate samples.
// A one-sample distribution is exact: Mean is the sample bit-for-bit
// (sum/1), Stddev and CIHalf are 0.
func DistOf(samples []float64) Dist {
	n := len(samples)
	if n == 0 {
		return Dist{}
	}
	d := Dist{N: n, Min: samples[0], Max: samples[0]}
	sum := 0.0
	for _, v := range samples {
		sum += v
		if v < d.Min {
			d.Min = v
		}
		if v > d.Max {
			d.Max = v
		}
	}
	d.Mean = sum / float64(n)
	if n > 1 {
		ss := 0.0
		for _, v := range samples {
			dv := v - d.Mean
			ss += dv * dv
		}
		d.Stddev = math.Sqrt(ss / float64(n-1))
		d.CIHalf = tQuantile95(n-1) * d.Stddev / math.Sqrt(float64(n))
	}
	return d
}

// t95 holds the two-sided 95% Student-t quantiles for 1..30 degrees of
// freedom; beyond the table the quantile is within 3% of the normal
// asymptote, approached through the standard 40/60/120-dof anchors.
var t95 = [...]float64{
	12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
	2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
	2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
}

// tQuantile95 returns the two-sided 95% Student-t quantile for dof degrees
// of freedom.
func tQuantile95(dof int) float64 {
	switch {
	case dof <= 0:
		return 0
	case dof <= len(t95):
		return t95[dof-1]
	case dof <= 40:
		return 2.021
	case dof <= 60:
		return 2.000
	case dof <= 120:
		return 1.980
	}
	return 1.960
}

// CellStats is the aggregated view of one (benchmark, model) cell across
// its seed replicates: a Dist per gated metric. N counts the successful
// replicates the distributions were built from.
type CellStats struct {
	Benchmark string `json:"benchmark"`
	Model     string `json:"model"`
	N         int    `json:"n"`

	IPC              Dist `json:"ipc"`
	TraceMispPer1000 Dist `json:"trace_misp_per_1000"`
	Recoveries       Dist `json:"recoveries"`
	ICMissPer1000    Dist `json:"icache_miss_per_1000"`
	DCMissPer1000    Dist `json:"dcache_miss_per_1000"`
}

// CellOf aggregates replicate statistics (in seed-axis order) into the
// cell's per-metric distributions.
func CellOf(bench, model string, stats []*proc.Stats) CellStats {
	c := CellStats{Benchmark: bench, Model: model, N: len(stats)}
	metric := func(get func(*proc.Stats) float64) Dist {
		samples := make([]float64, len(stats))
		for i, s := range stats {
			samples[i] = get(s)
		}
		return DistOf(samples)
	}
	c.IPC = metric((*proc.Stats).IPC)
	c.TraceMispPer1000 = metric((*proc.Stats).TraceMispPer1000)
	c.Recoveries = metric(func(s *proc.Stats) float64 { return float64(s.Recoveries) })
	c.ICMissPer1000 = metric((*proc.Stats).ICMissPer1000)
	c.DCMissPer1000 = metric((*proc.Stats).DCMissPer1000)
	return c
}
