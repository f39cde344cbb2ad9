package tracep_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"tracep"
)

// pointDiffGolden holds the marshalled Diff JSON and WriteText rendering of
// pointDiffSides under each of pointDiffTolerances.
const pointDiffGolden = "testdata/point-diff.golden"

// pointDiffTolerances are the -tolerances specs the golden pins.
var pointDiffTolerances = []string{"", "ipc=2,miss=0.5", "allow-missing"}

// loadCIBaseline reads testdata/ci-baseline.json, a single-seed (point) set.
func loadCIBaseline(t *testing.T) *tracep.ResultSet {
	t.Helper()
	data, err := os.ReadFile("testdata/ci-baseline.json")
	if err != nil {
		t.Fatal(err)
	}
	rs := tracep.NewResultSet()
	if err := json.Unmarshal(data, rs); err != nil {
		t.Fatal(err)
	}
	return rs
}

// pointDiffSides returns the two point sets the golden compares. The
// baseline is testdata/ci-baseline.json with compress/base(ntb)'s
// recoveries zeroed, so the current side's count rises from 0. The current
// side is the same file with one deterministic perturbation per gate:
//
//   - compress/base: IPC drops 3% (cycles ×100/97);
//   - compress/base(ntb): recoveries rise from 0 (the unmodified count);
//   - compress/FG: warm-up mismatch (1000 insts against a cold baseline);
//   - compress/MLB-RET: the run failed, so the cell is missing with an error;
//   - vortex/base: trace mispredictions rise (recoveries 14 -> 16);
//   - vortex/FG: I-cache misses rise 4 -> 6 and D-cache misses 30 -> 36;
//   - vortex/RET: absent;
//   - li/base: a cell the baseline lacks.
func pointDiffSides(t *testing.T) (cur, base *tracep.ResultSet) {
	t.Helper()
	base = loadCIBaseline(t)
	stats := func(rs *tracep.ResultSet, bench, model string) *tracep.Stats {
		t.Helper()
		s, ok := rs.Get(bench, model)
		if !ok {
			t.Fatalf("%s/%s missing from testdata/ci-baseline.json", bench, model)
		}
		return s
	}
	stats(base, "compress", "base(ntb)").Recoveries = 0

	src := loadCIBaseline(t)
	s := stats(src, "compress", "base")
	s.Cycles = s.Cycles * 100 / 97
	stats(src, "compress", "FG").WarmupInsts = 1000
	stats(src, "vortex", "base").Recoveries += 2
	s = stats(src, "vortex", "FG")
	s.ICMisses += 2
	s.DCMisses += 6

	cur = tracep.NewResultSetGrid(src.Benches(), src.Models(), nil)
	for _, res := range src.Results() {
		switch res.Benchmark + "/" + res.Model {
		case "vortex/RET":
			continue
		case "compress/MLB-RET":
			res = &tracep.Result{Benchmark: res.Benchmark, Model: res.Model, Error: "proc: watchdog: no retirement"}
		}
		cur.Add(res)
	}
	extra := *stats(src, "vortex", "base(ntb)")
	cur.Add(&tracep.Result{Benchmark: "li", Model: "base", Stats: &extra})
	return cur, base
}

// renderPointDiffs renders the golden: per tolerance spec, a header line,
// the indented Diff JSON and the WriteText table.
func renderPointDiffs(t *testing.T) []byte {
	t.Helper()
	cur, base := pointDiffSides(t)
	var buf bytes.Buffer
	for _, spec := range pointDiffTolerances {
		tol, err := tracep.ParseTolerances(spec)
		if err != nil {
			t.Fatal(err)
		}
		d := cur.Diff(base, tol)
		js, err := json.MarshalIndent(d, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&buf, "== tolerances %q\n%s\n", spec, js)
		d.WriteText(&buf)
	}
	return buf.Bytes()
}

// TestPointDiffGolden holds the Diff of two single-seed sets — JSON and
// text — to its committed golden at zero tolerance. Set
// TRACEP_WRITE_GOLDEN=1 to rewrite the golden from the current code.
func TestPointDiffGolden(t *testing.T) {
	got := renderPointDiffs(t)
	if os.Getenv("TRACEP_WRITE_GOLDEN") != "" {
		if err := os.WriteFile(pointDiffGolden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(pointDiffGolden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("point diff output is not byte-identical to %s:\n%s", pointDiffGolden, got)
	}
}
