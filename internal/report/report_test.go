package report

import (
	"math"
	"strings"
	"testing"

	"tracep/internal/proc"
)

// grid is a minimal single-replicate Results implementation for rendering
// tests; the production implementation is the public tracep.ResultSet.
type grid struct {
	benches []string
	models  []string
	cells   map[[2]string]*proc.Stats
}

func newGrid() *grid { return &grid{cells: make(map[[2]string]*proc.Stats)} }

func (g *grid) Add(bench, model string, s *proc.Stats) {
	if _, ok := g.cells[[2]string{bench, model}]; !ok {
		if !containsStr(g.benches, bench) {
			g.benches = append(g.benches, bench)
		}
		if !containsStr(g.models, model) {
			g.models = append(g.models, model)
		}
	}
	g.cells[[2]string{bench, model}] = s
}

func (g *grid) Benches() []string { return g.benches }
func (g *grid) Models() []string  { return g.models }
func (g *grid) Get(bench, model string) (*proc.Stats, bool) {
	s, ok := g.cells[[2]string{bench, model}]
	return s, ok
}
func (g *grid) Cell(bench, model string) (CellStats, bool) {
	s, ok := g.Get(bench, model)
	if !ok {
		return CellStats{}, false
	}
	return CellOf(bench, model, []*proc.Stats{s}), true
}

func containsStr(xs []string, x string) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

func fakeStats(ipc float64) *proc.Stats {
	// IPC = retired/cycles; build stats with the desired ratio.
	s := &proc.Stats{RetiredInsts: uint64(ipc * 1000), Cycles: 1000, RetiredTraces: 100, RetiredTraceLenSum: 2000}
	s.BranchClasses[0] = proc.ClassStats{Dynamic: 100, Mispredicted: 10, DynSizeSum: 500, StaticSizeSum: 700, CondBrSum: 200}
	s.BranchClasses[2] = proc.ClassStats{Dynamic: 50, Mispredicted: 5}
	s.BranchClasses[3] = proc.ClassStats{Dynamic: 30, Mispredicted: 3}
	return s
}

func TestHarmonicMean(t *testing.T) {
	rs := newGrid()
	rs.Add("a", "m", fakeStats(2))
	rs.Add("b", "m", fakeStats(4))
	// HM of 2 and 4 = 2/(1/2+1/4) = 8/3.
	hm, ok := HarmonicMeanIPC(rs, "m")
	if !ok || math.Abs(hm-8.0/3) > 1e-9 {
		t.Errorf("harmonic mean = %v (%v), want %v", hm, ok, 8.0/3)
	}
	if hm, ok := HarmonicMeanIPC(rs, "missing"); ok || hm != 0 {
		t.Errorf("missing model HM = %v (%v), want 0, false", hm, ok)
	}
}

func TestImprovement(t *testing.T) {
	rs := newGrid()
	rs.Add("a", "base", fakeStats(2))
	rs.Add("a", "ci", fakeStats(3))
	imp, ok := Improvement(rs, "a", "ci", "base")
	if !ok || math.Abs(imp-50) > 1e-9 {
		t.Errorf("improvement = %v (%v), want 50", imp, ok)
	}
	if _, ok := Improvement(rs, "a", "missing", "base"); ok {
		t.Error("missing model must not report improvement")
	}
}

func TestTableRendering(t *testing.T) {
	rs := newGrid()
	for _, bench := range []string{"compress", "gcc"} {
		for i, m := range []string{"base", "base(ntb)"} {
			rs.Add(bench, m, fakeStats(float64(2+i)))
		}
	}
	var sb strings.Builder
	Table3(&sb, rs, []string{"base", "base(ntb)"})
	out := sb.String()
	for _, want := range []string{"TABLE 3", "compress", "gcc", "Harm.Mean", "2.00", "3.00"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table3 output missing %q:\n%s", want, out)
		}
	}

	sb.Reset()
	Table4(&sb, rs, []string{"base"})
	out = sb.String()
	for _, want := range []string{"TABLE 4", "avg. trace length", "trace misp. rate", "trace $ miss rate", "20.0"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table4 output missing %q:\n%s", want, out)
		}
	}

	sb.Reset()
	Table5(&sb, rs, "base")
	out = sb.String()
	for _, want := range []string{"TABLE 5", "FGCI<=32", "frac. br.", "backward", "overall branch misp. rate", "55.6%"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table5 output missing %q:\n%s", want, out)
		}
	}

	sb.Reset()
	Figure(&sb, "FIGURE X", rs, []string{"base(ntb)"}, "base")
	out = sb.String()
	for _, want := range []string{"FIGURE X", "average", "50.0%", "#"} {
		if !strings.Contains(out, want) {
			t.Errorf("Figure output missing %q:\n%s", want, out)
		}
	}

	sb.Reset()
	avg := BestPerBenchmark(&sb, rs, []string{"base(ntb)"}, "base")
	if math.Abs(avg-50) > 1e-9 {
		t.Errorf("best average = %v, want 50", avg)
	}
}

func TestMissingCellsRenderDashes(t *testing.T) {
	rs := newGrid()
	rs.Add("compress", "base", fakeStats(2))
	rs.Add("gcc", "base(ntb)", fakeStats(3)) // compress/base(ntb) and gcc/base absent
	var sb strings.Builder
	Table3(&sb, rs, []string{"base", "base(ntb)"})
	if !strings.Contains(sb.String(), "-") {
		t.Errorf("absent cells should render as dashes:\n%s", sb.String())
	}
}
