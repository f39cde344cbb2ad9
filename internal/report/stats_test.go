package report

import (
	"math"
	"testing"

	"tracep/internal/proc"
)

func near(got, want, eps float64) bool { return math.Abs(got-want) <= eps }

func TestDistOfHandComputed(t *testing.T) {
	// {1,2,3}: mean 2, Bessel-corrected stddev 1, CI half = t95(dof=2)/sqrt(3).
	d := DistOf([]float64{1, 2, 3})
	if d.N != 3 || d.Mean != 2 || d.Stddev != 1 {
		t.Fatalf("DistOf({1,2,3}) = %+v, want N=3 mean=2 stddev=1", d)
	}
	wantHalf := 4.303 / math.Sqrt(3) // ≈ 2.48434
	if !near(d.CIHalf, wantHalf, 1e-9) {
		t.Errorf("CIHalf = %v, want %v", d.CIHalf, wantHalf)
	}
	if d.Min != 1 || d.Max != 3 {
		t.Errorf("Min/Max = %v/%v, want 1/3", d.Min, d.Max)
	}
	lo, hi := d.Interval()
	if !near(lo, 2-wantHalf, 1e-9) || !near(hi, 2+wantHalf, 1e-9) {
		t.Errorf("Interval() = (%v, %v)", lo, hi)
	}
}

func TestDistOfSingleSampleExact(t *testing.T) {
	// One sample degenerates to the point bit-for-bit: mean is sum/1.
	v := 1.234567891234
	d := DistOf([]float64{v})
	if d.N != 1 || d.Mean != v || d.Stddev != 0 || d.CIHalf != 0 {
		t.Fatalf("DistOf({v}) = %+v, want exact point", d)
	}
	if d.Min != v || d.Max != v {
		t.Errorf("Min/Max = %v/%v, want %v", d.Min, d.Max, v)
	}
	if got := d.String(); got != "1.23" {
		t.Errorf("String() = %q, want point rendering", got)
	}
}

func TestDistOfEmpty(t *testing.T) {
	if d := DistOf(nil); d != (Dist{}) {
		t.Errorf("DistOf(nil) = %+v, want zero", d)
	}
}

func TestDistStringWithSpread(t *testing.T) {
	d := DistOf([]float64{1, 2, 3})
	if got := d.String(); got != "2.00±2.48" {
		t.Errorf("String() = %q, want 2.00±2.48", got)
	}
}

func TestTQuantile95Anchors(t *testing.T) {
	cases := []struct {
		dof  int
		want float64
	}{
		{0, 0}, {-3, 0},
		{1, 12.706}, {2, 4.303}, {10, 2.228}, {30, 2.042},
		{31, 2.021}, {40, 2.021},
		{41, 2.000}, {60, 2.000},
		{61, 1.980}, {120, 1.980},
		{121, 1.960}, {10000, 1.960},
	}
	for _, c := range cases {
		if got := tQuantile95(c.dof); got != c.want {
			t.Errorf("tQuantile95(%d) = %v, want %v", c.dof, got, c.want)
		}
	}
}

func TestCellOfAggregatesReplicates(t *testing.T) {
	reps := []*proc.Stats{fakeStats(1.0), fakeStats(2.0), fakeStats(3.0)}
	c := CellOf("bench", "model", reps)
	if c.Benchmark != "bench" || c.Model != "model" || c.N != 3 {
		t.Fatalf("CellOf header = %+v", c)
	}
	if c.IPC.Mean != 2 || !near(c.IPC.CIHalf, 4.303/math.Sqrt(3), 1e-9) {
		t.Errorf("IPC dist = %+v", c.IPC)
	}
	// Every fakeStats replicate shares the same branch stats, so the
	// misprediction metric collapses to a zero-width distribution.
	if c.TraceMispPer1000.N != 3 || c.TraceMispPer1000.CIHalf != 0 {
		t.Errorf("TraceMispPer1000 = %+v, want zero spread across identical replicates", c.TraceMispPer1000)
	}
	if c.Recoveries.Mean != float64(reps[0].Recoveries) {
		t.Errorf("Recoveries mean = %v", c.Recoveries.Mean)
	}
}

func TestCellOfSingleReplicateIsPoint(t *testing.T) {
	s := fakeStats(1.7)
	c := CellOf("b", "m", []*proc.Stats{s})
	if c.N != 1 {
		t.Fatalf("N = %d", c.N)
	}
	if c.IPC.Mean != s.IPC() || c.IPC.CIHalf != 0 {
		t.Errorf("IPC = %+v, want exact point %v", c.IPC, s.IPC())
	}
}

// TestDistAbove: Above is strict interval separation — touching or
// overlapping intervals are not above, and for points it is the plain
// ordering of the means.
func TestDistAbove(t *testing.T) {
	pt := func(v float64) Dist { return DistOf([]float64{v}) }
	if !pt(2).Above(pt(1)) || pt(1).Above(pt(2)) || pt(1).Above(pt(1)) {
		t.Error("point ordering wrong")
	}
	wide := Dist{N: 3, Mean: 2, CIHalf: 0.5} // [1.5, 2.5]
	if wide.Above(pt(1.6)) || pt(2.4).Above(wide) {
		t.Error("a point inside an interval is neither above nor below it")
	}
	if !wide.Above(pt(1.4)) || !pt(2.6).Above(wide) {
		t.Error("a point outside an interval must order against it")
	}
	if (Dist{N: 3, Mean: 3, CIHalf: 0.5}).Above(wide) {
		t.Error("touching intervals ([1.5,2.5] and [2.5,3.5]) are not disjoint")
	}
}
