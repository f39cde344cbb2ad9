package tracep_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"tracep"
)

// inertPairs are the four model pairs that share one trace-selection policy.
// Within a pair the second model only adds a control-independence recovery
// mechanism (§4, §5) to the first.
var inertPairs = [][2]tracep.Model{
	{tracep.ModelBase, tracep.ModelRET},
	{tracep.ModelBaseNTB, tracep.ModelMLBRET},
	{tracep.ModelBaseFG, tracep.ModelFG},
	{tracep.ModelBaseFGNTB, tracep.ModelFGMLBRET},
}

// checkInert applies the inert-mechanism law to one pair's runs of the same
// program, budget and seed: if the control-independence run fired no FGCI
// or CGCI recovery, the mechanism never acted, so its Stats must equal its
// partner's byte for byte. It reports whether the law applied.
func checkInert(t *testing.T, label string, base, ci *tracep.Stats) bool {
	t.Helper()
	if ci.FGCIRecoveries+ci.CGCIRecoveries != 0 {
		return false
	}
	b, err := json.Marshal(base)
	if err != nil {
		t.Fatal(err)
	}
	c, err := json.Marshal(ci)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b, c) {
		t.Errorf("%s: no CI recovery fired, yet Stats differ from the partner's:\n%s\n%s", label, b, c)
	}
	return true
}

// TestInertMechanismLawCommittedGrids checks the law over the CI grids'
// committed results, which TestPooledEngineByteIdentity and
// TestSeededByteIdentity hold to the simulator at zero tolerance. Seeded
// vortex under FG fires no FGCI recovery, so the law is not vacuous here.
func TestInertMechanismLawCommittedGrids(t *testing.T) {
	applied := 0
	for _, file := range []string{"testdata/ci-baseline.json", "testdata/ci-baseline-seeded.json"} {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		var rs struct {
			Results []tracep.Result `json:"results"`
		}
		if err := json.Unmarshal(data, &rs); err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		cells := make(map[string]*tracep.Stats, len(rs.Results))
		for _, res := range rs.Results {
			cells[fmt.Sprintf("%s/%s/%d", res.Benchmark, res.Model, res.Seed)] = res.Stats
		}
		for _, res := range rs.Results {
			for _, pair := range inertPairs {
				if res.Model != pair[1].Name {
					continue
				}
				base := cells[fmt.Sprintf("%s/%s/%d", res.Benchmark, pair[0].Name, res.Seed)]
				if base == nil || res.Stats == nil {
					t.Fatalf("%s: %s/%s seed %d lacks a cell of the pair", file, res.Benchmark, res.Model, res.Seed)
				}
				label := fmt.Sprintf("%s: %s seed %d, %s vs %s", file, res.Benchmark, res.Seed, pair[0].Name, pair[1].Name)
				if checkInert(t, label, base, res.Stats) {
					applied++
				}
			}
		}
	}
	if applied == 0 {
		t.Error("no control-independence cell of the committed grids fired zero CI recoveries: the law checked nothing")
	}
}

// TestInertMechanismLawHandPrograms checks the law on two hand programs: a
// branch-free one, where no model can recover at all, and a fixed-trip
// loop nest, whose loop exits mispredict in every model. In the loop, RET
// and FG find nothing to act on (no return-bounded or hammock region), so
// those two pairs must be identical despite the mispredictions; MLB-RET
// recovers the loop branches, so its pairs may differ.
func TestInertMechanismLawHandPrograms(t *testing.T) {
	straight := tracep.NewProgram("branch-free")
	for i := int64(0); i < 500; i++ {
		straight.Addi(1, 1, 3).Addi(2, 2, i).Add(3, 1, 2).Store(3, 0, i%64).Load(4, 0, (i+17)%64).Add(5, 5, 4)
	}
	straight.Halt()

	loop := tracep.NewProgram("fixed-trip")
	loop.Li(5, 400)
	loop.Label("outer")
	loop.Addi(1, 0, 0)
	loop.Li(2, 12)
	loop.Label("loop")
	loop.Addi(1, 1, 1)
	loop.Add(3, 3, 1)
	loop.Blt(1, 2, "loop")
	loop.Addi(5, 5, -1)
	loop.Bne(5, 0, "outer")
	loop.Halt()

	for _, b := range []*tracep.Builder{straight, loop} {
		prog, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		stats := make(map[string]*tracep.Stats)
		for _, m := range tracep.Models() {
			res, err := tracep.New(prog, tracep.WithModel(m)).Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			stats[m.Name] = res.Stats
		}
		name := prog.Name
		applied, mispredicting := 0, 0
		for _, pair := range inertPairs {
			base := stats[pair[0].Name]
			if checkInert(t, fmt.Sprintf("%s: %s vs %s", name, pair[0].Name, pair[1].Name), base, stats[pair[1].Name]) {
				applied++
				if base.Recoveries > 0 {
					mispredicting++
				}
			}
		}
		switch name {
		case "branch-free":
			if applied != len(inertPairs) {
				t.Errorf("%s: the law applied to %d pairs, want all %d", name, applied, len(inertPairs))
			}
		case "fixed-trip":
			if mispredicting < 2 {
				t.Errorf("%s: the law applied to %d pairs whose runs recover from mispredictions, want at least 2", name, mispredicting)
			}
		}
	}
}
