package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"tracep"
)

// resolved is what a command line asks to sweep: its rows, models, seeds
// and run size.
type resolved struct {
	Rows, Models []string
	Seeds        []int64
	TargetInsts  uint64
	Warmup       uint64
}

func resolveArgs(t *testing.T, args ...string) resolved {
	t.Helper()
	o, err := parseArgs(args, os.Stderr)
	if err != nil {
		t.Fatalf("%v: %v", args, err)
	}
	rows, models, err := o.grid.resolve(o.displayModels())
	if err != nil {
		t.Fatalf("%v: %v", args, err)
	}
	r := resolved{Models: modelNames(models), Seeds: o.grid.Seeds, TargetInsts: o.grid.TargetInsts, Warmup: o.grid.Warmup}
	for _, bm := range rows {
		r.Rows = append(r.Rows, bm.Name)
	}
	return r
}

func writeSpec(t *testing.T, spec string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "grid.json")
	if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestFlagsAndSpecResolveAlike checks that grid flags and the equivalent
// -spec file resolve to the same rows, models, seeds and run size.
func TestFlagsAndSpecResolveAlike(t *testing.T) {
	cases := []struct {
		flags   []string
		spec    string
		display []string // display flags, given to both command lines
		want    resolved
	}{
		{
			flags:   []string{"-scenarios", "mixed", "-scenario-seeds", "1", "-seeds", "1,2", "-n", "5000"},
			spec:    "testdata/mixed.json",
			display: []string{"-table", "3", "-json"},
			want: resolved{
				Rows:        []string{"mixed-1"},
				Models:      modelNames(tracep.SelectionModels()),
				Seeds:       []int64{1, 2},
				TargetInsts: 5000,
			},
		},
		{
			flags: []string{"-scenarios", "dense-branch, ptr-chase", "-scenario-seeds", "2,3", "-bench", "compress",
				"-models", "base,FG", "-seeds", "4", "-n", "7000", "-warmup", "100"},
			spec: writeSpec(t, `{"scenarios": ["dense-branch", "ptr-chase"], "scenario_seeds": [2, 3],
				"benchmarks": ["compress"], "models": ["base", "FG"], "seeds": [4], "target_insts": 7000, "warmup": 100}`),
			want: resolved{
				Rows:        []string{"dense-branch-2", "dense-branch-3", "ptr-chase-2", "ptr-chase-3", "compress"},
				Models:      []string{"base", "FG"},
				Seeds:       []int64{4},
				TargetInsts: 7000,
				Warmup:      100,
			},
		},
	}
	for _, c := range cases {
		fromFlags := resolveArgs(t, append(c.flags, c.display...)...)
		if !reflect.DeepEqual(fromFlags, c.want) {
			t.Errorf("%v resolved to %+v, want %+v", c.flags, fromFlags, c.want)
		}
		fromSpec := resolveArgs(t, append([]string{"-spec", c.spec}, c.display...)...)
		if !reflect.DeepEqual(fromSpec, c.want) {
			t.Errorf("-spec %s resolved to %+v, want %+v", c.spec, fromSpec, c.want)
		}
	}
}

// TestSpecFieldsOverrideFlags checks that a spec field replaces its flag
// and an absent field keeps the flag's value.
func TestSpecFieldsOverrideFlags(t *testing.T) {
	spec := writeSpec(t, `{"benchmarks": ["vortex"]}`)
	got := resolveArgs(t, "-spec", spec, "-bench", "compress", "-n", "1234", "-models", "RET")
	want := resolved{Rows: []string{"vortex"}, Models: []string{"RET"}, TargetInsts: 1234}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("resolved to %+v, want %+v", got, want)
	}
}

// TestGridErrors checks that an unknown spec field, scenario or model is
// an error rather than a silently different grid.
func TestGridErrors(t *testing.T) {
	if _, err := parseArgs([]string{"-spec", writeSpec(t, `{"scenario": ["mixed"]}`)}, os.Stderr); err == nil ||
		!strings.Contains(err.Error(), "unknown field") {
		t.Errorf("unknown spec field: err = %v", err)
	}
	for _, args := range [][]string{
		{"-scenarios", "mixed,no-such-family"},
		{"-bench", "compress", "-models", "base,no-such-model"},
		{"-spec", writeSpec(t, `{"models": ["no-such-model"]}`)},
	} {
		o, err := parseArgs(args, os.Stderr)
		if err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		if _, _, err := o.grid.resolve(o.displayModels()); err == nil || !strings.Contains(err.Error(), "no-such") {
			t.Errorf("%v: err = %v, want an error naming the unknown entry", args, err)
		}
	}
}

// TestScenariosRejectedOnServer checks that -scenarios with -server exits
// 1 before printing anything or contacting the server: a SweepRequest has
// no scenario axis.
func TestScenariosRejectedOnServer(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run(context.Background(), []string{"-scenarios", "mixed", "-server", "http://127.0.0.1:1"}, &stdout, &stderr)
	if code != 1 || stdout.Len() != 0 || !strings.Contains(stderr.String(), "no scenario axis") {
		t.Errorf("exit %d, stdout %q, stderr %q; want exit 1, no output and a scenario-axis message", code, stdout.String(), stderr.String())
	}
}

// TestCellsBlock checks -cells against the single-run statistics block,
// formatted line for line from a Simulator run of the same cell.
func TestCellsBlock(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(context.Background(), []string{"-bench", "compress", "-models", "FG", "-n", "2000", "-cells"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}

	bm, err := tracep.BenchmarkByName("compress")
	if err != nil {
		t.Fatal(err)
	}
	res, err := tracep.NewBenchmark(bm, 2000, tracep.WithModel(tracep.ModelFG)).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	s := res.Stats
	var want strings.Builder
	fmt.Fprintf(&want, "%-9s %-13s IPC=%.2f insts=%d cycles=%d traceLen=%.1f traceMisp/1k=%.1f tc$miss/1k=%.1f brMisp=%.1f%%\n",
		"compress", "FG", s.IPC(), s.RetiredInsts, s.Cycles, s.AvgTraceLen(),
		s.TraceMispPer1000(), s.TCMissPer1000(), 100*s.BranchMispRate())
	fmt.Fprintf(&want, "  recoveries=%d (fgci=%d cgci=%d base=%d) reconv=%d degenerate=%d reclaims=%d\n",
		s.Recoveries, s.FGCIRecoveries, s.CGCIRecoveries, s.BaseRecoveries,
		s.Reconvergences, s.CGCIDegenerate, s.TailReclaims)
	fmt.Fprintf(&want, "  reissues=%d loadSnoopReissues=%d redispatched=%d rebinds=%d broadcasts=%d tracePreds=%d\n",
		s.Reissues, s.LoadSnoopReissues, s.RedispatchedTraces, s.RedispatchRebinds, s.Broadcasts, s.TPredictions)
	fg := s.FGCISmall()
	fmt.Fprintf(&want, "  branches: fgci<=32 %d (misp %.1f%%) fgci>32 %d otherFwd %d (misp %.1f%%) backward %d (misp %.1f%%)\n",
		fg.Dynamic, 100*fg.MispRate(), s.FGCIBig().Dynamic,
		s.OtherForward().Dynamic, 100*s.OtherForward().MispRate(),
		s.Backward().Dynamic, 100*s.Backward().MispRate())

	if got := stdout.String(); got != want.String() {
		t.Errorf("-cells printed\n%s\nwant\n%s", got, want.String())
	}
}

// TestProgressLines checks -progress in process: exactly one "done" line
// per cell over a normal grid, and exactly one "fail" line per cell when
// an impossible -warmup fails every row.
func TestProgressLines(t *testing.T) {
	grid := []string{"-bench", "compress,vortex", "-models", "base,FG", "-n", "2000", "-progress", "-json"}
	cells := []string{"compress/base", "compress/FG", "vortex/base", "vortex/FG"}
	for _, tc := range []struct {
		name, verb string
		extra      []string
		code       int
	}{
		{"normal", "done", nil, 0},
		{"impossible warm-up", "fail", []string{"-warmup", "1000000"}, 1},
	} {
		var stdout, stderr bytes.Buffer
		args := append(append([]string{}, grid...), tc.extra...)
		if code := run(context.Background(), args, &stdout, &stderr); code != tc.code {
			t.Fatalf("%s: exit %d, want %d: %s", tc.name, code, tc.code, stderr.String())
		}
		seen := map[string]int{}
		for _, line := range strings.Split(stderr.String(), "\n") {
			f := strings.Fields(line)
			if len(f) < 3 || (f[0] != "done" && f[0] != "fail") {
				continue
			}
			if f[0] != tc.verb {
				t.Errorf("%s: unexpected line %q", tc.name, line)
			}
			seen[f[1]+"/"+f[2]]++
		}
		for _, cell := range cells {
			if seen[cell] != 1 {
				t.Errorf("%s: %d %q lines for %s, want 1", tc.name, seen[cell], tc.verb, cell)
			}
		}
		if len(seen) != len(cells) {
			t.Errorf("%s: progress lines for %d cells, want %d: %v", tc.name, len(seen), len(cells), seen)
		}
	}
}
