package tracep_test

import (
	"context"
	"encoding/json"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"tracep"
)

// lookaheadSweep is a warmed 3-benchmark × 8-model sweep: every row after
// the first is captured by a lookahead job while the row before it runs.
func lookaheadSweep(t *testing.T, seeds []int64) tracep.Sweep {
	return tracep.Sweep{
		Benchmarks:  []tracep.Benchmark{mustBench(t, "compress"), mustBench(t, "gcc"), mustBench(t, "vortex")},
		Models:      tracep.Models(),
		TargetInsts: 4000,
		Warmup:      1500,
		Seeds:       seeds,
	}
}

// TestLookaheadByteIdentical: capturing the next row's snapshot ahead of
// its cells changes when work runs, never what it computes. Single-seed and
// two-seed sweeps serialise identically at Parallelism 1, 2 and 8 and when
// both run at once under one shared Gate. At Parallelism 1 the first result
// is row 0's first cell.
func TestLookaheadByteIdentical(t *testing.T) {
	ctx := context.Background()
	encode := func(sw tracep.Sweep) []byte {
		t.Helper()
		rs, err := sw.Run(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if err := rs.Err(); err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(rs)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	seedAxes := [][]int64{nil, {1, 2}}
	ref := make([][]byte, len(seedAxes))
	for i, seeds := range seedAxes {
		sw := lookaheadSweep(t, seeds)
		sw.Parallelism = 1
		stream := sw.Stream(ctx)
		first := <-stream
		for range stream {
		}
		if first.Benchmark != "compress" || first.Model != sw.Models[0].Name {
			t.Errorf("seeds %v: first result at Parallelism 1 is %s/%s, want compress/%s",
				seeds, first.Benchmark, first.Model, sw.Models[0].Name)
		}
		ref[i] = encode(sw)
		for _, j := range []int{2, 8} {
			sw.Parallelism = j
			if got := encode(sw); string(got) != string(ref[i]) {
				t.Errorf("seeds %v: Parallelism %d differs from Parallelism 1", seeds, j)
			}
		}
	}

	gate := tracep.NewGate(2)
	got := make([][]byte, len(seedAxes))
	var wg sync.WaitGroup
	for i, seeds := range seedAxes {
		sw := lookaheadSweep(t, seeds)
		sw.Parallelism, sw.Gate = 8, gate
		wg.Add(1)
		go func() {
			defer wg.Done()
			rs, err := sw.Run(ctx)
			if err == nil {
				got[i], err = json.Marshal(rs)
			}
			if err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	for i, seeds := range seedAxes {
		if string(got[i]) != string(ref[i]) {
			t.Errorf("seeds %v: shared-gate sweep differs from Parallelism 1", seeds)
		}
	}
}

// TestLookaheadWarmupPastHaltFailsEachCellOnce: a row whose warm-up runs
// past the program's halt is captured by the lookahead job, not by one of
// its cells, and still fails every one of its cells exactly once while the
// rows around it succeed.
func TestLookaheadWarmupPastHaltFailsEachCellOnce(t *testing.T) {
	for _, j := range []int{1, 2} {
		sw := lookaheadSweep(t, nil)
		sw.Parallelism = j
		sw.WarmupFor = map[string]uint64{"gcc": 1_000_000}
		seen := make(map[string]int)
		for res := range sw.Stream(context.Background()) {
			key := res.Benchmark + "/" + res.Model
			seen[key]++
			switch err := res.Err(); {
			case res.Benchmark == "gcc" && err == nil:
				t.Errorf("j=%d: %s succeeded with a warm-up past halt", j, key)
			case res.Benchmark != "gcc" && err != nil:
				t.Errorf("j=%d: %s: %v", j, key, err)
			}
		}
		if want := len(sw.Benchmarks) * len(sw.Models); len(seen) != want {
			t.Errorf("j=%d: %d distinct cells delivered, want %d", j, len(seen), want)
		}
		for key, n := range seen {
			if n != 1 {
				t.Errorf("j=%d: %s delivered %d times, want once", j, key, n)
			}
		}
	}
}

// TestLookaheadCancelDuringCapture cancels a sweep while a lookahead job
// captures the second row's long warm-up. The stream must close promptly,
// deliver no cell of the uncaptured row, and leave no goroutine behind.
func TestLookaheadCancelDuringCapture(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	gate := tracep.NewGate(2)
	sw := tracep.Sweep{
		Benchmarks: []tracep.Benchmark{mustBench(t, "compress"), mustBench(t, "vortex")},
		Models:     []tracep.Model{tracep.ModelBase, tracep.ModelFG},
		// Row 0 runs cold and starts simulating at once; row 1's warm-up
		// takes seconds, far longer than the test allows the stream to
		// stay open after cancelling.
		TargetInsts: 1_000_000_000,
		WarmupFor:   map[string]uint64{"vortex": 900_000_000},
		Parallelism: 2,
		Gate:        gate,
	}
	stream := sw.Stream(ctx)
	// Both slots held: row 0's first cell simulates and row 1 captures.
	waitInUse(t, gate, 2)
	cancelledAt := make(chan time.Time, 1)
	time.AfterFunc(20*time.Millisecond, func() {
		cancelledAt <- time.Now()
		cancel()
	})
	for res := range stream {
		if res.Benchmark == "vortex" {
			t.Errorf("delivered %s/%s from the row whose capture was cancelled", res.Benchmark, res.Model)
		}
		if err := res.Err(); err != nil && !errors.Is(err, context.Canceled) {
			t.Errorf("%s/%s failed with %v, want cancellation", res.Benchmark, res.Model, err)
		}
	}
	select {
	case at := <-cancelledAt:
		if wait := time.Since(at); wait > 5*time.Second {
			t.Errorf("stream closed %v after cancel, want prompt", wait)
		}
	default:
		t.Fatal("stream closed before the sweep was cancelled")
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("%d goroutines after the stream closed, %d before", n, before)
	}
}
