package proc

import (
	"testing"

	"tracep/internal/asm"
	"tracep/internal/bench"
	"tracep/internal/isa"
)

// loopProgram builds a long, fully predictable counted loop: after the
// first few iterations every structure is warm — one resident trace
// descriptor per loop position, no mispredictions, no recoveries — so the
// engine's steady state over it is allocation-free by construction.
func loopProgram(iters int64) *isa.Program {
	b := asm.New("steady-loop")
	b.Addi(1, 0, 0).Addi(2, 0, 1).Li(3, iters).Li(28, 4096)
	b.Label("loop")
	b.Add(1, 1, 2)
	b.Andi(4, 1, 63)
	b.Add(4, 4, 28)
	b.Load(5, 4, 0)
	b.Addi(5, 5, 1)
	b.Store(5, 4, 0)
	b.Addi(2, 2, 1)
	b.Bge(3, 2, "loop")
	b.Store(1, 0, 500)
	b.Halt()
	return b.MustBuild()
}

// warmed advances p past its cold-start region (cache and predictor fills,
// pool and arena growth) and fails the test if the run ends prematurely.
func warmed(t testing.TB, p *Processor, warmCycles int) *Processor {
	t.Helper()
	for i := 0; i < warmCycles && !p.Halted() && p.Err() == nil; i++ {
		p.Step()
	}
	if err := p.Err(); err != nil {
		t.Fatal(err)
	}
	if p.Halted() {
		t.Fatal("workload halted during warm-up; enlarge the program")
	}
	return p
}

// measureWindow reports the average heap allocations across runs of
// window-many cycles on the warmed processor.
func measureWindow(t testing.TB, p *Processor, runs, window int) float64 {
	t.Helper()
	avg := testing.AllocsPerRun(runs, func() {
		for i := 0; i < window; i++ {
			p.Step()
		}
	})
	if err := p.Err(); err != nil {
		t.Fatal(err)
	}
	if p.Halted() {
		t.Fatal("workload halted during measurement; enlarge the program")
	}
	return avg
}

// TestSteadyStateAllocs is the zero-allocation gate for the cycle engine:
// once warm, the cycle loop — dispatch, issue, intra-PE bypass, result-bus
// arbitration, memory snooping, retirement, and the tag GC — runs
// out of pooled state (per-PE instruction arenas, the event ring, recycled
// subscriber/load-record/ARB storage, the rename-entry pool) and must not
// touch the heap. On a predictable workload, whose steady state constructs
// no new traces, windows of a thousand cycles must average ~0 allocations.
//
// The engine's only legitimate steady-state allocations are proportional to
// the trace-cache miss rate (every compulsory miss builds one persistent
// pre-renamed trace) and are covered by the churn bound below, not by this
// gate.
func TestSteadyStateAllocs(t *testing.T) {
	for _, model := range []Model{ModelBase, ModelFGMLBRET} {
		t.Run(model.Name, func(t *testing.T) {
			cfg := testConfig()
			cfg.Verify = false // the oracle is harness, not engine
			p := warmed(t, New(loopProgram(3_000_000), model, cfg), 50_000)
			const window = 1000
			avg := measureWindow(t, p, 20, window)
			t.Logf("%s: %.2f allocs per %d-cycle window", model.Name, avg, window)
			// ~0 allocs/op, with a little headroom for rare amortised
			// refills (a pool block, a map rehash). A reintroduced
			// per-cycle or per-dispatch allocation is hundreds per window.
			if avg > 25 {
				t.Fatalf("steady-state cycle loop allocates: %.1f allocs per %d cycles (want <= 25)", avg, window)
			}
		})
	}
}

// fanoutProgram builds a predictable loop whose producer register feeds a
// wide burst of consumers every iteration: each Add of r1 wakes eight
// waiting instructions at once, so the batched event path — queueWake
// dedupe, the per-cycle drainWakes sweep — runs at full fan-out every cycle.
func fanoutProgram(iters int64) *isa.Program {
	b := asm.New("fanout-loop")
	b.Addi(1, 0, 0).Addi(2, 0, 1).Li(3, iters)
	b.Label("loop")
	b.Add(1, 1, 2) // producer: everything below waits on r1
	b.Add(4, 1, 2)
	b.Add(5, 1, 2)
	b.Add(6, 1, 2)
	b.Add(7, 1, 2)
	b.Add(8, 1, 2)
	b.Add(9, 1, 2)
	b.Add(10, 1, 2)
	b.Add(11, 1, 2)
	b.Add(12, 4, 5) // second wave off the woken values
	b.Add(13, 6, 7)
	b.Add(14, 8, 9)
	b.Addi(2, 2, 1)
	b.Bge(3, 2, "loop")
	b.Halt()
	return b.MustBuild()
}

// TestBatchedDeliveryAllocs gates the batched event-delivery path in
// isolation: wakeups queued during result broadcast are deduplicated on the
// instruction's wakePending flag and drained in one slot-order sweep per
// delivery, all through pooled storage — so even at maximal wakeup fan-out a
// thousand-cycle window must average ~0 heap allocations.
func TestBatchedDeliveryAllocs(t *testing.T) {
	cfg := testConfig()
	cfg.Verify = false
	p := warmed(t, New(fanoutProgram(3_000_000), ModelFGMLBRET, cfg), 50_000)
	const window = 1000
	avg := measureWindow(t, p, 20, window)
	t.Logf("fanout/FG+MLB-RET: %.2f allocs per %d-cycle window", avg, window)
	if avg > 25 {
		t.Fatalf("batched delivery path allocates: %.1f allocs per %d cycles (want <= 25)", avg, window)
	}
}

// TestAllocChurnBound bounds the allocation rate on a hostile workload:
// compress's data-dependent hammocks embed their outcomes in trace
// descriptors, so its working set of distinct traces overflows the trace
// cache and the frontend keeps constructing persistent traces. That is
// workload churn, not engine waste — but it must stay proportional to the
// miss rate. Before the pooled engine this measured ~13 allocations per
// cycle; the bound catches any such regression with a wide margin over the
// current ~1.2.
func TestAllocChurnBound(t *testing.T) {
	bm, err := bench.ByName("compress")
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	cfg.Verify = false
	p := warmed(t, New(bm.Build(bm.ScaleFor(2_000_000)), ModelFGMLBRET, cfg), 100_000)
	const window = 1000
	avg := measureWindow(t, p, 10, window)
	t.Logf("compress/FG+MLB-RET: %.2f allocs per %d-cycle window", avg, window)
	if avg > 4*window {
		t.Fatalf("allocation churn regressed: %.1f allocs per %d cycles (want <= %d)", avg, window, 4*window)
	}
}

// BenchmarkCycleLoop reports the engine's steady-state per-cycle cost with
// -benchmem, complementing the gates above with ns/op and B/op trend data.
func BenchmarkCycleLoop(b *testing.B) {
	cfg := testConfig()
	cfg.Verify = false
	cfg.WatchdogCycles = 200_000
	p := warmed(b, New(loopProgram(1_000_000_000), ModelFGMLBRET, cfg), 50_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Step()
	}
	if err := p.Err(); err != nil {
		b.Fatal(err)
	}
	if p.Halted() {
		b.Fatalf("workload halted after %d cycles; enlarge the program", p.Cycle())
	}
}
