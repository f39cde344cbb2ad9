package tracep

import (
	"fmt"
	"reflect"
	"testing"

	"tracep/internal/isa"
)

// feedLog runs sw's feeder and returns, in order, every program build and
// every job it issued. Its send refuses once the log holds limit lines
// (never when limit < 0).
func feedLog(t *testing.T, sw *Sweep, limit int) []string {
	t.Helper()
	var log []string
	benches := sw.Benchmarks
	sw.Benchmarks = make([]Benchmark, len(benches))
	for i, bm := range benches {
		if bm.Build != nil {
			build := bm.Build
			bm.Build = func(scale int64) *isa.Program {
				log = append(log, "build "+bm.Name)
				return build(scale)
			}
		}
		sw.Benchmarks[i] = bm
	}
	sw.feed(sw.effectiveSeeds(), func(job sweepJob) bool {
		if limit >= 0 && len(log) >= limit {
			return false
		}
		row := fmt.Sprintf("%s/%d", job.row.bench, job.row.seed)
		if job.captureOnly {
			log = append(log, "capture "+row)
		} else {
			log = append(log, "cell "+row+"/"+job.model.Name)
		}
		return true
	})
	return log
}

// TestFeedCapturesOneRowAhead pins the feeder's order: each row's first
// cell, then a capture-only job for the next row, then the row's remaining
// cells. The next row's program is built only after the current row's first
// cell is out, and rows that capture nothing get no capture-only job.
func TestFeedCapturesOneRowAhead(t *testing.T) {
	compress, err := BenchmarkByName("compress")
	if err != nil {
		t.Fatal(err)
	}
	vortex, err := BenchmarkByName("vortex")
	if err != nil {
		t.Fatal(err)
	}
	models := []Model{ModelBase, ModelFG}
	base, fg := ModelBase.Name, ModelFG.Name
	sweep := func() *Sweep {
		return &Sweep{Benchmarks: []Benchmark{compress, vortex}, Models: models,
			TargetInsts: 2000, Seeds: []int64{1, 2}, Warmup: 100}
	}

	t.Run("warm", func(t *testing.T) {
		want := []string{
			"build compress",
			"cell compress/1/" + base,
			"capture compress/2",
			"cell compress/1/" + fg,
			"cell compress/2/" + base,
			"build vortex",
			"capture vortex/1",
			"cell compress/2/" + fg,
			"cell vortex/1/" + base,
			"capture vortex/2",
			"cell vortex/1/" + fg,
			"cell vortex/2/" + base,
			"cell vortex/2/" + fg,
		}
		if got := feedLog(t, sweep(), -1); !reflect.DeepEqual(got, want) {
			t.Fatalf("feed order\ngot  %q\nwant %q", got, want)
		}
	})

	t.Run("stops when send refuses", func(t *testing.T) {
		want := []string{"build compress", "cell compress/1/" + base, "capture compress/2"}
		if got := feedLog(t, sweep(), 3); !reflect.DeepEqual(got, want) {
			t.Fatalf("feed after refusal\ngot  %q\nwant %q", got, want)
		}
	})

	cellsOnly := []string{
		"cell compress/1/" + base, "cell compress/1/" + fg,
		"cell compress/2/" + base, "cell compress/2/" + fg,
		"cell vortex/1/" + base, "cell vortex/1/" + fg,
		"cell vortex/2/" + base, "cell vortex/2/" + fg,
	}
	for name, edit := range map[string]func(*Sweep){
		"cold": func(sw *Sweep) { sw.Warmup = 0 },
		"cold rows": func(sw *Sweep) {
			sw.WarmupFor = map[string]uint64{"compress": 0, "vortex": 0}
		},
	} {
		t.Run(name, func(t *testing.T) {
			sw := sweep()
			edit(sw)
			var got []string
			for _, line := range feedLog(t, sw, -1) {
				if line != "build compress" && line != "build vortex" {
					got = append(got, line)
				}
			}
			if !reflect.DeepEqual(got, cellsOnly) {
				t.Fatalf("feed order\ngot  %q\nwant %q", got, cellsOnly)
			}
		})
	}

	t.Run("unbuildable row", func(t *testing.T) {
		sw := sweep()
		sw.Benchmarks = []Benchmark{compress, {Name: "broken"}}
		sw.Seeds = nil
		want := []string{
			"build compress",
			"cell compress/0/" + base,
			"cell compress/0/" + fg,
			"cell broken/0/" + base,
			"cell broken/0/" + fg,
		}
		if got := feedLog(t, sw, -1); !reflect.DeepEqual(got, want) {
			t.Fatalf("feed order\ngot  %q\nwant %q", got, want)
		}
	})
}
