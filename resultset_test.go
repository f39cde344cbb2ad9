package tracep_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"

	"tracep"
)

func cell(bench, model string, ipc float64) *tracep.Result {
	return &tracep.Result{
		Benchmark: bench,
		Model:     model,
		Stats:     &tracep.Stats{RetiredInsts: uint64(ipc * 1000), Cycles: 1000},
	}
}

func TestResultSetDeterministicOrdering(t *testing.T) {
	rs := tracep.NewResultSetGrid([]string{"a", "b"}, []string{"m1", "m2"}, nil)
	// Add in scrambled completion order; registered order must win.
	rs.Add(cell("b", "m2", 4))
	rs.Add(cell("a", "m2", 3))
	rs.Add(cell("b", "m1", 2))
	rs.Add(cell("a", "m1", 1))

	if got := rs.Benches(); !reflect.DeepEqual(got, []string{"a", "b"}) {
		t.Errorf("benches = %v", got)
	}
	if got := rs.Models(); !reflect.DeepEqual(got, []string{"m1", "m2"}) {
		t.Errorf("models = %v", got)
	}
	var order []string
	for _, res := range rs.Results() {
		order = append(order, res.Benchmark+"/"+res.Model)
	}
	want := []string{"a/m1", "a/m2", "b/m1", "b/m2"}
	if !reflect.DeepEqual(order, want) {
		t.Errorf("Results order = %v, want %v", order, want)
	}

	// Unregistered names still work, appended after the fixed order.
	rs.Add(cell("c", "m1", 5))
	if got := rs.Benches(); !reflect.DeepEqual(got, []string{"a", "b", "c"}) {
		t.Errorf("benches after late add = %v", got)
	}
}

func TestResultSetJSONRoundTrip(t *testing.T) {
	rs := tracep.NewResultSetGrid([]string{"compress", "gcc"}, []string{"base", "FG"}, nil)
	rs.Add(cell("compress", "base", 2))
	rs.Add(cell("gcc", "FG", 3))
	rs.Add(&tracep.Result{Benchmark: "gcc", Model: "base", Error: "watchdog: stuck"})

	out, err := json.Marshal(rs)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"benchmarks"`, `"models"`, `"results"`, `"watchdog: stuck"`} {
		if !strings.Contains(string(out), want) {
			t.Errorf("JSON missing %s:\n%s", want, out)
		}
	}

	var back tracep.ResultSet
	if err := json.Unmarshal(out, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.Benches(), rs.Benches()) || !reflect.DeepEqual(back.Models(), rs.Models()) {
		t.Error("orders did not survive the round trip")
	}
	if s, ok := back.Get("compress", "base"); !ok || s.IPC() != 2 {
		t.Errorf("compress/base after round trip: %v %v", s, ok)
	}
	res, ok := back.Lookup("gcc", "base")
	if !ok || res.Err() == nil || res.Err().Error() != "watchdog: stuck" {
		t.Errorf("failed cell after round trip: %+v", res)
	}
	if _, ok := back.Get("gcc", "base"); ok {
		t.Error("Get must not expose the failed cell")
	}

	out2, err := json.Marshal(&back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, out2) {
		t.Error("re-marshalling a round-tripped set must be byte-identical")
	}
}

// TestResultSetRoundTripErrorSemantics pins the documented asymmetry for
// failed cells: on a live set the wrapped error supports errors.Is; after
// a JSON round-trip only the Error text survives, so errors.Is no longer
// matches while Err() still reports the failure.
func TestResultSetRoundTripErrorSemantics(t *testing.T) {
	// Produce a live failed cell with a genuinely wrapped sentinel: a sweep
	// cancelled mid-run records context.Canceled per cell.
	bm, err := tracep.BenchmarkByName("compress")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	gate := tracep.NewGate(1)
	sw := tracep.Sweep{
		Benchmarks:  []tracep.Benchmark{bm},
		Models:      []tracep.Model{tracep.ModelBase},
		TargetInsts: 50_000_000,
		Parallelism: 1,
		Gate:        gate,
	}
	var rs *tracep.ResultSet
	var runErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		rs, runErr = sw.Run(ctx)
	}()
	waitInUse(t, gate, 1) // cancel once the run is demonstrably in flight
	cancel()
	<-done
	if !errors.Is(runErr, context.Canceled) {
		t.Fatalf("sweep error = %v, want context.Canceled", runErr)
	}
	live, ok := rs.Lookup("compress", "base")
	if !ok {
		t.Fatal("cancelled in-flight cell must be recorded")
	}
	if !errors.Is(live.Err(), context.Canceled) {
		t.Fatalf("live Err() = %v, want errors.Is(context.Canceled)", live.Err())
	}

	out, err := json.Marshal(rs)
	if err != nil {
		t.Fatal(err)
	}
	var back tracep.ResultSet
	if err := json.Unmarshal(out, &back); err != nil {
		t.Fatal(err)
	}
	res, ok := back.Lookup("compress", "base")
	if !ok {
		t.Fatal("failed cell lost in round trip")
	}
	if res.Err() == nil || res.Err().Error() != live.Error {
		t.Errorf("round-tripped Err() = %v, want text %q", res.Err(), live.Error)
	}
	if errors.Is(res.Err(), context.Canceled) {
		t.Error("wrapped sentinel must NOT survive the JSON round trip")
	}
}

func TestResultSetMetricsDelegation(t *testing.T) {
	rs := tracep.NewResultSet()
	rs.Add(cell("a", "base", 2))
	rs.Add(cell("b", "base", 4))
	rs.Add(cell("a", "ci", 3))
	// HM of 2 and 4 = 8/3.
	if hm, ok := rs.HarmonicMeanIPC("base"); !ok || hm < 2.66 || hm > 2.67 {
		t.Errorf("harmonic mean = %v (%v)", hm, ok)
	}
	if hm, ok := rs.HarmonicMeanIPC("missing"); ok || hm != 0 {
		t.Errorf("missing model HM = %v (%v), want 0, false", hm, ok)
	}
	imp, ok := rs.Improvement("a", "ci", "base")
	if !ok || imp < 49.9 || imp > 50.1 {
		t.Errorf("improvement = %v (%v)", imp, ok)
	}
}
