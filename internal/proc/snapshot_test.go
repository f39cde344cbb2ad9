package proc

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"tracep/internal/asm"
	"tracep/internal/bench"
	"tracep/internal/isa"
	"tracep/internal/trace"
)

// snapProgram is a warm-up-worthy workload: an LCG-driven hammock with
// memory traffic and calls, so warm-up touches the branch predictor, RAS,
// BIT, and both caches.
func snapProgram(iters int64) *isa.Program {
	b := asm.New("snapwork")
	b.Li(1, 987654321) // LCG state
	b.Li(2, 1103515245)
	b.Li(3, 12345)
	b.Addi(4, 0, 0) // i
	b.Li(5, iters)  // limit
	b.Addi(6, 0, 0) // acc
	b.Label("loop")
	b.Call("step")
	b.Addi(4, 4, 1)
	b.Blt(4, 5, "loop")
	b.Store(6, 0, 900)
	b.Halt()
	b.Label("step")
	b.Mul(1, 1, 2)
	b.Add(1, 1, 3)
	b.Shri(7, 1, 16)
	b.Andi(8, 7, 63) // pseudo-random word offset
	b.Andi(7, 7, 1)  // pseudo-random bit
	b.Beq(7, 0, "else")
	b.Add(9, 0, 8)
	b.Store(6, 9, 100) // scatter into mem[100..163]
	b.Addi(6, 6, 3)
	b.Jump("join")
	b.Label("else")
	b.Load(10, 8, 100)
	b.Add(6, 6, 10)
	b.Label("join")
	b.Ret()
	return b.MustBuild()
}

// runFromSnapshot restores snap under model and runs to halt.
func runFromSnapshot(t *testing.T, snap *Snapshot, model Model, cfg Config) *Stats {
	t.Helper()
	p, err := NewFromSnapshot(snap, model, cfg)
	if err != nil {
		t.Fatalf("NewFromSnapshot: %v", err)
	}
	stats, err := p.Run(5_000_000)
	if err != nil {
		t.Fatalf("restored %s: %v", model.Name, err)
	}
	if !p.Halted() {
		t.Fatalf("restored %s: did not halt", model.Name)
	}
	return stats
}

// TestSnapshotZeroWarmupMatchesCold proves the restore path introduces zero
// perturbation: a snapshot captured before any instruction executes restores
// into a processor whose entire run is identical to a cold New, for every
// model.
func TestSnapshotZeroWarmupMatchesCold(t *testing.T) {
	prog := snapProgram(150)
	cfg := testConfig()
	snap, err := CaptureSnapshot(context.Background(), prog, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range allModels {
		cold := runProgram(t, prog, m)
		restored := runFromSnapshot(t, snap, m, cfg)
		if !reflect.DeepEqual(cold, restored) {
			t.Errorf("%s: zero-warm-up restored stats differ from cold run\ncold:     %+v\nrestored: %+v",
				m.Name, cold, restored)
		}
	}
}

// TestCaptureDeterminism: two independent captures of the same warm-up are
// interchangeable — runs restored from either produce identical statistics.
func TestCaptureDeterminism(t *testing.T) {
	prog := snapProgram(200)
	cfg := testConfig()
	a, err := CaptureSnapshot(context.Background(), prog, cfg, 1000)
	if err != nil {
		t.Fatal(err)
	}
	b, err := CaptureSnapshot(context.Background(), prog, cfg, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if a.PC() != b.PC() || a.WarmupInsts() != b.WarmupInsts() {
		t.Fatalf("capture metadata diverged: pc %d/%d, warm-up %d/%d",
			a.PC(), b.PC(), a.WarmupInsts(), b.WarmupInsts())
	}
	for _, m := range allModels {
		sa := runFromSnapshot(t, a, m, cfg)
		sb := runFromSnapshot(t, b, m, cfg)
		if !reflect.DeepEqual(sa, sb) {
			t.Errorf("%s: runs from two identical captures diverged", m.Name)
		}
	}
}

// TestRestoreIsolation is the aliasing gate for every Clone method: many
// processors forked from one snapshot, run back to back (each run mutating
// everything a restore touches — memory, caches, predictors, the rename
// file), must all produce identical statistics. Any state shared by accident
// between the snapshot and a restored processor fails this.
func TestRestoreIsolation(t *testing.T) {
	prog := snapProgram(200)
	cfg := testConfig()
	snap, err := CaptureSnapshot(context.Background(), prog, cfg, 2000)
	if err != nil {
		t.Fatal(err)
	}
	var first *Stats
	for round := 0; round < 3; round++ {
		for _, m := range allModels {
			stats := runFromSnapshot(t, snap, m, cfg)
			if m == ModelBase {
				if first == nil {
					first = stats
				} else if !reflect.DeepEqual(first, stats) {
					t.Fatalf("round %d: base-model run diverged from the first restore — snapshot state was mutated", round)
				}
			}
		}
	}
}

// TestSnapshotSharedAcrossGoroutines: runs restored concurrently from one
// seeded snapshot — as a sweep row's model cells fork from it on several
// workers — all agree. Under -race it also proves that restore never writes
// to the shared snapshot.
func TestSnapshotSharedAcrossGoroutines(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed = 7
	snap, err := CaptureSnapshot(context.Background(), snapProgram(4000), cfg, 12_000)
	if err != nil {
		t.Fatal(err)
	}
	const n = 3
	var (
		wg    sync.WaitGroup
		stats [n]*Stats
	)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p, err := NewFromSnapshot(snap, ModelFGMLBRET, cfg)
			if err != nil {
				t.Error(err)
				return
			}
			if stats[i], err = p.Run(20_000); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if !reflect.DeepEqual(stats[i], stats[0]) {
			t.Fatal("concurrent restores of one snapshot disagree")
		}
	}
}

// TestWarmupSkipsMeasuredRegion: the measured region is exactly the program
// minus the warm-up prefix, and warm-up metadata lands in Stats.
func TestWarmupSkipsMeasuredRegion(t *testing.T) {
	prog := snapProgram(150)
	cfg := testConfig()
	total := runProgram(t, prog, ModelBase).RetiredInsts

	const warm = 777
	snap, err := CaptureSnapshot(context.Background(), prog, cfg, warm)
	if err != nil {
		t.Fatal(err)
	}
	stats := runFromSnapshot(t, snap, ModelBase, cfg)
	if stats.WarmupInsts != warm {
		t.Errorf("WarmupInsts = %d, want %d", stats.WarmupInsts, warm)
	}
	if got, want := stats.RetiredInsts, total-warm; got != want {
		t.Errorf("measured region retired %d insts, want %d (total %d - warm-up %d)", got, want, total, warm)
	}
}

// TestWarmupPastHaltErrors: fast-forwarding into (or beyond) the halt
// instruction leaves nothing to measure and must fail loudly.
func TestWarmupPastHaltErrors(t *testing.T) {
	b := asm.New("tiny")
	b.Addi(1, 0, 1).Addi(2, 0, 2).Add(3, 1, 2).Halt()
	prog := b.MustBuild()
	if _, err := CaptureSnapshot(context.Background(), prog, testConfig(), 4); err == nil {
		t.Error("warm-up running into halt: want error, got nil")
	}
	if _, err := CaptureSnapshot(context.Background(), prog, testConfig(), 1000); err == nil {
		t.Error("warm-up past program end: want error, got nil")
	}
	if _, err := CaptureSnapshot(context.Background(), prog, testConfig(), 3); err != nil {
		t.Errorf("warm-up stopping just before halt: %v", err)
	}
}

// TestSnapshotCompatibility: restoring under a configuration that re-sizes
// or re-seeds any snapshotted structure is refused with
// ErrIncompatibleSnapshot; purely measured-side fields may change freely.
func TestSnapshotCompatibility(t *testing.T) {
	prog := snapProgram(100)
	cfg := testConfig()
	snap, err := CaptureSnapshot(context.Background(), prog, cfg, 500)
	if err != nil {
		t.Fatal(err)
	}

	reject := []struct {
		name string
		edit func(*Config)
	}{
		{"ICache", func(c *Config) { c.ICache.SizeInsts = 8192 }},
		{"DCache", func(c *Config) { c.DCache.MissPenalty = 99 }},
		{"TCache", func(c *Config) { c.TCache.Sets = 128 }},
		{"BPred", func(c *Config) { c.BPred.Entries = 8192 }},
		{"TPred", func(c *Config) { c.TPred.HistLen = 4 }},
		{"BIT", func(c *Config) { c.BIT.Entries = 4096 }},
		{"MaxTraceLen", func(c *Config) { c.MaxTraceLen = 16 }},
		{"Seed", func(c *Config) { c.Seed = 42 }},
	}
	for _, tc := range reject {
		bad := cfg
		tc.edit(&bad)
		if _, err := NewFromSnapshot(snap, ModelBase, bad); !errors.Is(err, ErrIncompatibleSnapshot) {
			t.Errorf("%s change: want ErrIncompatibleSnapshot, got %v", tc.name, err)
		}
	}

	// Measured-side fields are free: a window-sizing sweep can share one
	// warm-up.
	loose := cfg
	loose.NumPEs = 8
	loose.PEIssueWidth = 2
	loose.Verify = false
	loose.WatchdogCycles = 50000
	if _, err := NewFromSnapshot(snap, ModelFGMLBRET, loose); err != nil {
		t.Errorf("measured-side config change: %v", err)
	}
}

// TestWarmupIsObservable is the methodology check: a warmed run must not
// look like a cold machine — the warmed instruction cache should miss less
// over the measured region than the cold run does over the whole program.
func TestWarmupIsObservable(t *testing.T) {
	prog := snapProgram(400)
	cfg := testConfig()
	snap, err := CaptureSnapshot(context.Background(), prog, cfg, 5000)
	if err != nil {
		t.Fatal(err)
	}
	warm := runFromSnapshot(t, snap, ModelBase, cfg)
	cold := runProgram(t, prog, ModelBase)
	if warm.RetiredInsts >= cold.RetiredInsts {
		t.Fatalf("measured region (%d insts) should be smaller than the whole program (%d)",
			warm.RetiredInsts, cold.RetiredInsts)
	}
	if warm.ICMisses >= cold.ICMisses {
		t.Errorf("warmed I-cache should miss less: warm %d, cold %d", warm.ICMisses, cold.ICMisses)
	}
}

// TestResetMatchesNew runs a mixed sequence of cells — different programs,
// models and window shapes, a snapshot restore and runs abandoned part-way —
// on one reused engine, and requires each cell's Stats to equal a freshly
// built processor's. Nothing of one run may leak into
// the next through the storage Reset keeps. That storage includes every
// trace: a reset recycles the previous run's traces, so each cell builds
// into traces of other shapes — another trace-cache geometry, another
// maximum trace length, another selection model — and one cell is
// abandoned mid-recovery, so its PE, fetch-queue and repair traces are all
// live when the engine resets.
func TestResetMatchesNew(t *testing.T) {
	small := testConfig()
	small.NumPEs, small.MaxTraceLen = 6, 16
	noVerify := testConfig()
	noVerify.Verify = false
	tinyTC := testConfig()
	tinyTC.TCache = trace.CacheConfig{Sets: 8, Assoc: 2}
	len16 := testConfig()
	len16.MaxTraceLen = 16
	warmProg := lcgProgram(300)
	compress, err := bench.ByName("compress")
	if err != nil {
		t.Fatal(err)
	}
	hammocks := compress.Build(compress.ScaleFor(5000))
	snap, err := CaptureSnapshot(context.Background(), warmProg, testConfig(), 1500)
	if err != nil {
		t.Fatal(err)
	}
	cells := []struct {
		prog     *isa.Program
		model    Model
		cfg      Config
		snap     *Snapshot
		maxInsts uint64
		// midRecovery abandons the run at the first cycle with a repair
		// trace in flight, PEs in the window and fetch-queue entries.
		midRecovery bool
	}{
		{prog: lcgProgram(200), model: ModelFGMLBRET, cfg: testConfig()},
		{prog: unpredictableLoop(60), model: ModelRET, cfg: testConfig(), maxInsts: 1500}, // abandoned mid-run
		{prog: unpredictableLoop(60), model: ModelBase, cfg: small},
		{prog: warmProg, model: ModelMLBRET, cfg: testConfig(), snap: snap},
		{prog: lcgProgram(200), model: ModelFGMLBRET, cfg: noVerify},
		{prog: warmProg, model: ModelFGMLBRET, cfg: testConfig(), snap: snap},
		// Trace-cache geometry: down to 16 lines and back.
		{prog: unpredictableLoop(60), model: ModelFGMLBRET, cfg: tinyTC},
		{prog: unpredictableLoop(60), model: ModelFGMLBRET, cfg: testConfig()},
		// Maximum trace length 32 -> 16 -> 32.
		{prog: lcgProgram(200), model: ModelMLBRET, cfg: len16},
		{prog: lcgProgram(200), model: ModelMLBRET, cfg: testConfig()},
		// Selection model: fg and ntb on, then each alone.
		{prog: unpredictableLoop(60), model: ModelBaseFGNTB, cfg: testConfig()},
		{prog: unpredictableLoop(60), model: ModelBaseNTB, cfg: testConfig()},
		{prog: unpredictableLoop(60), model: ModelBaseFG, cfg: testConfig()},
		// Abandoned mid-recovery, then a cell on another program.
		{prog: hammocks, model: ModelFG, cfg: testConfig(), midRecovery: true},
		{prog: lcgProgram(200), model: ModelFGMLBRET, cfg: testConfig()},
	}
	engine := &Processor{}
	for i, c := range cells {
		fresh := New(c.prog, c.model, c.cfg)
		engine.Reset(c.prog, c.model, c.cfg)
		if c.snap != nil {
			if fresh, err = NewFromSnapshot(c.snap, c.model, c.cfg); err != nil {
				t.Fatal(err)
			}
			if err := engine.ResetFromSnapshot(c.snap, c.model, c.cfg); err != nil {
				t.Fatal(err)
			}
		}
		run := func(p *Processor) (*Stats, error) {
			if c.midRecovery {
				return runToRecovery(p)
			}
			return p.Run(c.maxInsts)
		}
		want, err := run(fresh)
		if err != nil {
			t.Fatalf("cell %d (%s/%s) fresh: %v", i, c.prog.Name, c.model.Name, err)
		}
		got, err := run(engine)
		if err != nil {
			t.Fatalf("cell %d (%s/%s) reused: %v", i, c.prog.Name, c.model.Name, err)
		}
		if *got != *want {
			t.Errorf("cell %d (%s/%s): reused engine diverges from a new one:\n got %+v\nwant %+v",
				i, c.prog.Name, c.model.Name, *got, *want)
		}
	}
}

// runToRecovery steps p to the first cycle at which a repair trace, window
// PEs and fetch-queue entries are all live, and returns its Stats there.
func runToRecovery(p *Processor) (*Stats, error) {
	for !p.Halted() && p.Err() == nil {
		p.Step()
		if p.rec.active && p.rec.newTrace != nil && p.head >= 0 && p.fe.queue.len() > 0 {
			p.Stats.Cycles = uint64(p.cycle)
			p.finalizeStats()
			stats := p.Stats
			return &stats, nil
		}
	}
	if err := p.Err(); err != nil {
		return nil, err
	}
	return nil, fmt.Errorf("%s halted without a recovery that leaves fetch-queue entries live", p.prog.Name)
}

// BenchmarkCaptureSnapshot measures the warm-up capture layer alone: one op
// fast-forwards a suite program by warm instructions, warming the caches,
// the branch predictor and the BIT along the committed path. It reports the
// capture rate in Minsts/s.
func BenchmarkCaptureSnapshot(b *testing.B) {
	const warm = 1_000_000
	bm, err := bench.ByName("gcc")
	if err != nil {
		b.Fatal(err)
	}
	prog := bm.Build(bm.ScaleFor(2 * warm))
	cfg := DefaultConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := CaptureSnapshot(context.Background(), prog, cfg, warm); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(warm)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Minsts/s")
}
