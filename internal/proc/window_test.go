package proc

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"testing/quick"

	"tracep/internal/arb"
	"tracep/internal/asm"
	"tracep/internal/bench"
	"tracep/internal/isa"
)

// TestLinkedListInvariants drives random alloc/unlink sequences against the
// PE linked-list control structure and checks: logical numbering strictly
// increases along the list, prev/next are mutually consistent, and
// free+live = all PEs.
func TestLinkedListInvariants(t *testing.T) {
	f := func(ops []uint8) bool {
		prog := asm.New("t").Halt().MustBuild()
		p := New(prog, ModelBase, testConfig())
		var live []*peState
		for _, op := range ops {
			if op%2 == 0 && len(p.free) > 0 {
				// Insert after a random live PE (or at head).
				prev := -1
				if len(live) > 0 {
					prev = live[int(op/2)%len(live)].id
				}
				pe := p.allocPE(prev)
				pe.tr = nil
				live = append(live, pe)
			} else if len(live) > 0 {
				idx := int(op/2) % len(live)
				pe := live[idx]
				p.unlinkPE(pe)
				live = append(live[:idx], live[idx+1:]...)
			}
			if err := checkList(p); err != nil {
				t.Log(err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// checkList checks the PE list's structure: it is acyclic, logical
// positions strictly increase along it (only their relative order is read,
// so they need not be dense), prev links mirror next links, tail is its last
// PE, and free PEs plus window PEs account for all NumPEs.
func checkList(p *Processor) error {
	n := 0
	prev := -1
	for id := p.head; id >= 0; id = p.pes[id].next {
		if n == len(p.pes) {
			return fmt.Errorf("PE list from head %d is cyclic", p.head)
		}
		pe := p.pes[id]
		if pe.prev != prev || !pe.active || (prev >= 0 && pe.logical <= p.pes[prev].logical) {
			return fmt.Errorf("PE %d at position %d: logical=%d prev=%d (want %d) active=%v", id, n, pe.logical, pe.prev, prev, pe.active)
		}
		prev = id
		n++
	}
	if p.tail != prev {
		return fmt.Errorf("tail is PE %d, list ends at PE %d", p.tail, prev)
	}
	if n+len(p.free) != p.cfg.NumPEs {
		return fmt.Errorf("%d window PEs + %d free PEs != NumPEs %d", n, len(p.free), p.cfg.NumPEs)
	}
	return nil
}

// checkMachine checks the structural laws that must hold between cycles:
// the PE list is sound (checkList); the fetch rings fit their fixed
// capacity, every job being a queue entry (jobs ≤ queue ≤ NumPEs), and
// every job is still under construction (completing one pops it); every
// PE-resident trace and the repair trace fit a PE's arena (Len ≤
// MaxTraceLen); outside a recovery, each trace starts at its predecessor's
// successor PC unless the predecessor ends in an indirect jump or a halt (a
// recovery repairs the window one trace at a time, so the chain is broken
// while it runs); and every instruction that can issue — resident, not
// cancelled, waiting, both operands ready — has its bit set in its PE's
// candidate set, which is all issueAll looks at.
func checkMachine(p *Processor) error {
	if err := checkList(p); err != nil {
		return err
	}
	if jobs, queue := p.fe.jobs.len(), p.fe.queue.len(); jobs > queue || queue > p.cfg.NumPEs {
		return fmt.Errorf("fetch rings hold %d jobs and %d queue entries, want jobs ≤ queue ≤ NumPEs %d", jobs, queue, p.cfg.NumPEs)
	}
	for i := 0; i < p.fe.jobs.len(); i++ {
		if !p.fe.jobs.at(i).constructing {
			return fmt.Errorf("fetch job %d of %d is not under construction", i, p.fe.jobs.len())
		}
	}
	if tr := p.rec.newTrace; tr != nil && tr.Len() > p.cfg.MaxTraceLen {
		return fmt.Errorf("repair trace at pc %d has %d instructions, more than MaxTraceLen %d", tr.Desc.StartPC, tr.Len(), p.cfg.MaxTraceLen)
	}
	for id := p.head; id >= 0; id = p.pes[id].next {
		pe := p.pes[id]
		if pe.tr.Len() > p.cfg.MaxTraceLen {
			return fmt.Errorf("PE %d's trace at pc %d has %d instructions, more than MaxTraceLen %d", id, pe.tr.Desc.StartPC, pe.tr.Len(), p.cfg.MaxTraceLen)
		}
		if next := pe.next; next >= 0 && !p.rec.active && !pe.tr.EndsIndirect && !pe.tr.EndsHalt &&
			pe.tr.NextPC != p.pes[next].tr.Desc.StartPC {
			return fmt.Errorf("PE %d's trace continues at pc %d, but the next PE %d's trace starts at pc %d",
				id, pe.tr.NextPC, next, p.pes[next].tr.Desc.StartPC)
		}
		for slot := range pe.insts {
			st := &pe.insts[slot]
			issuable := !st.cancelled && st.status == stWaiting && st.src[0].ready && st.src[1].ready
			if issuable && pe.cand[slot>>6]&(1<<(slot&63)) == 0 {
				return fmt.Errorf("PE %d slot %d (pc %d) can issue but is not an issue candidate", id, slot, st.cold().pc)
			}
		}
	}
	return nil
}

// runChecked steps p until it halts, fails or retires maxInsts
// instructions, checking the machine after every cycle and the Stats laws
// at the end.
func runChecked(t *testing.T, label string, p *Processor, maxInsts uint64) {
	t.Helper()
	for !p.Halted() && p.Err() == nil && p.Stats.RetiredInsts < maxInsts {
		stepChecked(t, label, p)
	}
	endChecked(t, label, p)
}

// stepChecked advances p one cycle and checks the machine.
func stepChecked(t *testing.T, label string, p *Processor) {
	t.Helper()
	p.Step()
	if err := checkMachine(p); err != nil {
		t.Fatalf("%s cycle %d: %v", label, p.cycle, err)
	}
}

// endChecked fails on p's error, such as an oracle mismatch, and checks the
// Stats laws over the cycles run so far.
func endChecked(t *testing.T, label string, p *Processor) {
	t.Helper()
	if err := p.Err(); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	p.Stats.Cycles = uint64(p.cycle)
	p.finalizeStats() // the cache counters reach Stats only here
	if err := p.checkStatsLaws(); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
}

// TestStatsLawsCatchCorruption: each Stats law rejects counters corrupted
// to break it, and a verified run whose counters break a law fails with
// ErrStatsLaw, while an unverified run does not check.
func TestStatsLawsCatchCorruption(t *testing.T) {
	prog := lcgProgram(200)
	p := New(prog, ModelFGMLBRET, testConfig())
	if _, err := p.Run(0); err != nil {
		t.Fatal(err)
	}
	if err := p.checkStatsLaws(); err != nil {
		t.Fatalf("uncorrupted run: %v", err)
	}
	good := p.Stats
	for _, tc := range []struct {
		law     string
		corrupt func(s *Stats)
	}{
		{"recovery kinds", func(s *Stats) { s.BaseRecoveries++ }},
		{"retired trace lengths", func(s *Stats) { s.RetiredTraceLenSum-- }},
		{"one trace retires per cycle", func(s *Stats) { s.Cycles = 1 }},
		{"trace-cache misses", func(s *Stats) { s.TCMisses = s.TCLookups + 1 }},
		{"instruction-cache misses", func(s *Stats) { s.ICMisses = s.ICAccesses + 1 }},
		{"data-cache misses", func(s *Stats) { s.DCMisses = s.DCAccesses + 1 }},
		{"dispatched traces", func(s *Stats) { s.DispatchedTraces++ }},
		{"branch classes", func(s *Stats) { s.BranchClasses[1].Dynamic++ }},
	} {
		p.Stats = good
		tc.corrupt(&p.Stats)
		if err := p.checkStatsLaws(); !errors.Is(err, ErrStatsLaw) {
			t.Errorf("%s: corrupted Stats gave %v, want ErrStatsLaw", tc.law, err)
		}
	}
	if good.BranchClasses == ([4]ClassStats{}) {
		t.Fatal("the run retired no conditional branch, so the branch-class law went unchecked")
	}

	// A recovery in a mode the model lacks breaks a law even when the
	// recovery kinds still sum.
	base := New(prog, ModelBase, testConfig())
	if _, err := base.Run(0); err != nil {
		t.Fatal(err)
	}
	good = base.Stats
	for _, tc := range []struct {
		law     string
		corrupt func(s *Stats)
	}{
		{"FGCI recoveries without FGCI", func(s *Stats) { s.FGCIRecoveries++; s.Recoveries++ }},
		{"CGCI recoveries without CGCI", func(s *Stats) { s.CGCIRecoveries++; s.Recoveries++ }},
	} {
		base.Stats = good
		if err := base.checkStatsLaws(); err != nil {
			t.Fatalf("uncorrupted base run: %v", err)
		}
		tc.corrupt(&base.Stats)
		if err := base.checkStatsLaws(); !errors.Is(err, ErrStatsLaw) {
			t.Errorf("%s: corrupted Stats gave %v, want ErrStatsLaw", tc.law, err)
		}
	}

	// The retirement tap runs on the simulation goroutine, so it can
	// corrupt a counter mid-run.
	corrupt := func() { p.Stats.SquashedTraces++ }
	p.Reset(prog, ModelFGMLBRET, testConfig())
	if _, err := p.RunContext(context.Background(), 0, 100, corrupt); !errors.Is(err, ErrStatsLaw) {
		t.Errorf("verified run with corrupted counters: err = %v, want ErrStatsLaw", err)
	}
	unverified := testConfig()
	unverified.Verify = false
	p.Reset(prog, ModelFGMLBRET, unverified)
	if _, err := p.RunContext(context.Background(), 0, 100, corrupt); err != nil {
		t.Errorf("unverified run: %v, want no law check", err)
	}
}

// TestMachineChecksItself runs checkMachine after every cycle, and
// checkStatsLaws at the end of every cell, of the CI baseline grid (every
// model), of a scenario grid of narrow and multi-word windows with one
// cache bus, and of runs restored from a warm-up snapshot.
func TestMachineChecksItself(t *testing.T) {
	const n = 5000
	var progs []*isa.Program
	for _, name := range []string{"compress", "vortex"} {
		bm, err := bench.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, bm.Build(bm.ScaleFor(n)))
	}
	t.Run("baseline", func(t *testing.T) {
		for _, prog := range progs {
			for _, m := range allModels {
				runChecked(t, prog.Name+"/"+m.Name, New(prog, m, DefaultConfig()), n)
			}
		}
	})
	t.Run("scenarios", func(t *testing.T) {
		for _, maxLen := range []int{8, 128} {
			for _, width := range []int{1, 2} {
				cfg := testConfig()
				cfg.MaxTraceLen, cfg.PEIssueWidth = maxLen, width
				cfg.CacheBuses, cfg.MaxCachePerPE = 1, 1
				for _, prog := range progs {
					for _, m := range []Model{ModelBase, ModelFG, ModelFGMLBRET} {
						label := fmt.Sprintf("%s/%s len=%d width=%d", prog.Name, m.Name, maxLen, width)
						runChecked(t, label, New(prog, m, cfg), n)
					}
				}
			}
		}
	})
	t.Run("snapshot", func(t *testing.T) {
		snap, err := CaptureSnapshot(context.Background(), snapProgram(400), testConfig(), 2000)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range allModels {
			p, err := NewFromSnapshot(snap, m, testConfig())
			if err != nil {
				t.Fatal(err)
			}
			runChecked(t, "snapshot/"+m.Name, p, n)
		}
	})
}

// TestEventRingGrowsMidRun: initEventRing sizes the event ring from
// BusLatency alone, so a data-cache miss penalty past the ring's end makes
// schedule grow it mid-run. The run that grows it passes the oracle,
// checkMachine and the Stats laws, and a Reset engine, whose ring is
// already large, gives identical Stats.
func TestEventRingGrowsMidRun(t *testing.T) {
	const n = 5000
	bm, err := bench.ByName("compress")
	if err != nil {
		t.Fatal(err)
	}
	prog := bm.Build(bm.ScaleFor(n))
	cfg := testConfig()
	cfg.DCache.MissPenalty = 100

	p := New(prog, ModelFGMLBRET, cfg)
	if len(p.evBuckets) > cfg.DCache.MissPenalty+cfg.DCache.HitLatency {
		t.Fatalf("a new engine's ring already has %d buckets", len(p.evBuckets))
	}
	runChecked(t, "cold", p, n)
	grown := len(p.evBuckets)
	if grown <= cfg.DCache.MissPenalty {
		t.Fatalf("ring has %d buckets after the run, want it grown past the miss penalty", grown)
	}
	cold := p.Stats

	p.Reset(prog, ModelFGMLBRET, cfg)
	runChecked(t, "reset", p, n)
	if len(p.evBuckets) != grown {
		t.Errorf("reset run resized the ring from %d to %d buckets", grown, len(p.evBuckets))
	}
	if !reflect.DeepEqual(cold, p.Stats) {
		t.Errorf("reset engine's Stats differ from the cold run's:\n cold  %+v\n reset %+v", cold, p.Stats)
	}
}

// TestSeqLessFollowsLogicalOrder checks that the sequence-number ordering
// consults the linked-list structure, not physical PE numbers (§2.2.2),
// across every way the window changes: tail appends, a head insert, a CGCI
// middle insertion, retirement at the head and squashes at the tail. After
// each step seqLess must order every pair of window PEs by list position.
func TestSeqLessFollowsLogicalOrder(t *testing.T) {
	prog := asm.New("t").Halt().MustBuild()
	p := New(prog, ModelBase, testConfig())
	seq := func(pe *peState, slot int) arb.Seq { return arb.Seq{PE: int16(pe.id), Slot: int16(slot)} }
	check := func(step string) {
		t.Helper()
		if err := checkList(p); err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		var list []*peState
		for id := p.head; id >= 0; id = p.pes[id].next {
			list = append(list, p.pes[id])
		}
		for i, a := range list {
			for j, b := range list {
				if got := p.seqLess(seq(a, 3), seq(b, 0)); got != (i < j) {
					t.Errorf("%s: seqLess(PE %d at %d, PE %d at %d) = %v", step, a.id, i, b.id, j, got)
				}
				if got := p.olderThan(a, 3, b, 0); got != (i < j) {
					t.Errorf("%s: olderThan(PE %d at %d, PE %d at %d) = %v", step, a.id, i, b.id, j, got)
				}
			}
		}
	}

	a := p.allocPE(-1) // head of an empty list
	check("first PE")
	b := p.allocPE(a.id) // tail append
	d := p.allocPE(b.id) // tail append
	check("tail appends")
	c := p.allocPE(a.id) // CGCI refill: BETWEEN a and b
	check("middle insertion")
	// Physical id order would put c (allocated last) after b: verify we do
	// NOT follow it.
	if p.seqLess(seq(b, 0), seq(c, 0)) {
		t.Error("ordering must not follow physical allocation order")
	}
	h := p.allocPE(-1) // head insert before a
	check("head insert")
	p.unlinkPE(h) // retire the head
	p.unlinkPE(a)
	check("retire unlinks")
	p.unlinkPE(d) // squash the tail
	check("squash unlink")
	e := p.allocPE(b.id) // tail append after an unlinked tail
	check("tail append after squash")
	p.unlinkPE(c) // squash in the middle
	check("middle unlink")
	if !p.seqLess(seq(b, 0), seq(e, 0)) {
		t.Error("b must stay older than e")
	}

	// Memory sentinel is older than everything.
	if !p.seqLess(arb.MemSeq, seq(b, 0)) || p.seqLess(seq(b, 0), arb.MemSeq) {
		t.Error("MemSeq must order before all window sequence numbers")
	}
	// Same PE: slot order.
	if !p.seqLess(seq(b, 1), seq(b, 2)) || p.seqLess(seq(b, 2), seq(b, 1)) {
		t.Error("slot order within a PE")
	}
}

// TestRetiredStreamLength checks that the retired instruction count equals
// the functional execution length, for a program with heavy misprediction
// recovery under every model — no lost or duplicated instructions.
func TestRetiredStreamLength(t *testing.T) {
	prog := lcgProgram(150)
	want := func() uint64 {
		e := newOracle(prog)
		e.Run(1_000_000)
		return e.Count
	}()
	for _, m := range allModels {
		p := New(prog, m, testConfig())
		stats, err := p.Run(0)
		if err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		if stats.RetiredInsts != want {
			t.Errorf("%s: retired %d instructions, functional execution has %d",
				m.Name, stats.RetiredInsts, want)
		}
	}
}

// TestSquashedTracesAccounting: under the base model every recovery
// squashes all younger traces; under FGCI none are; the stats must reflect
// the paper's window-management contrast.
func TestSquashedTracesAccounting(t *testing.T) {
	prog := lcgProgram(400)
	base := New(prog, ModelBase, testConfig())
	baseStats, err := base.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	fg := New(prog, ModelFG, testConfig())
	fgStats, err := fg.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if fgStats.FGCIRecoveries == 0 {
		t.Fatal("FG should use fine-grain recovery on the hammock")
	}
	if fgStats.SquashedTraces >= baseStats.SquashedTraces {
		t.Errorf("FGCI should squash far fewer traces: fg=%d base=%d",
			fgStats.SquashedTraces, baseStats.SquashedTraces)
	}
	if fgStats.RedispatchedTraces == 0 {
		t.Error("FGCI recovery must run the trace re-dispatch sequence")
	}
}

// TestWatchdogFires ensures the deadlock detector trips on a crafted hang
// (no retirement possible because the program never halts and the window
// wedges on an infinitely-wrong path is not constructible here, so instead
// use a tiny watchdog against a long-running loop: it must NOT fire for a
// healthy machine).
func TestWatchdogHealthy(t *testing.T) {
	b := asm.New("t")
	b.Addi(1, 0, 0)
	b.Li(2, 2000)
	b.Label("l").Addi(1, 1, 1).Blt(1, 2, "l")
	b.Halt()
	prog := b.MustBuild()
	cfg := testConfig()
	cfg.WatchdogCycles = 1000 // tight, but retirement happens continuously
	p := New(prog, ModelBase, cfg)
	if _, err := p.Run(0); err != nil {
		t.Fatalf("healthy run tripped the watchdog: %v", err)
	}
}

// TestTagSpaceBounded runs the CI baseline grid (compress and vortex at
// 5000 instructions, every model) one cycle at a time and checks the
// register file's fixed capacity: tag slots never pass the construction-time
// bound, the subscriber table never changes size, and collection reclaims
// tags along the way.
func TestTagSpaceBounded(t *testing.T) {
	capacity, _ := tagSpace(testConfig())
	for _, name := range []string{"compress", "vortex"} {
		bm, err := bench.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		prog := bm.Build(bm.ScaleFor(5000))
		for _, m := range allModels {
			p := New(prog, m, testConfig())
			slots, rows := p.regs.Cap(), len(p.subTab)
			if rows != slots || slots < capacity {
				t.Fatalf("%s/%s: %d subscriber rows for a file of %d slots (bound %d)", name, m.Name, rows, slots, capacity)
			}
			for !p.Halted() && p.Err() == nil {
				p.Step()
				if p.regs.Slots() > slots || p.regs.Cap() != slots || len(p.subTab) != rows {
					t.Fatalf("%s/%s cycle %d: %d slots used of %d (built with %d), %d subscriber rows (built with %d)",
						name, m.Name, p.cycle, p.regs.Slots(), p.regs.Cap(), slots, len(p.subTab), rows)
				}
			}
			if err := p.Err(); err != nil {
				t.Fatalf("%s/%s: %v", name, m.Name, err)
			}
			if p.regs.Swept == 0 {
				t.Errorf("%s/%s: collection never swept a tag", name, m.Name)
			}
		}
	}
}

// newOracle builds a functional emulator (helper avoiding an import cycle in
// tests).
func newOracle(prog *isa.Program) *oracleRunner {
	return &oracleRunner{p: prog}
}

type oracleRunner struct {
	p     *isa.Program
	Count uint64
}

func (o *oracleRunner) Run(max uint64) {
	mem := isa.NewMemory(o.p)
	var regs [isa.NumRegs]int64
	pc := o.p.Entry
	for o.Count < max {
		in := o.p.Ref(pc)
		if in.Op == isa.OpHalt {
			o.Count++
			return
		}
		rd := func(r isa.Reg) int64 {
			if r == 0 {
				return 0
			}
			return regs[r]
		}
		next := pc + 1
		switch {
		case in.Op >= isa.OpAdd && in.Op <= isa.OpLui:
			if in.Rd != 0 {
				regs[in.Rd] = isa.EvalALU(in.Op, rd(in.Rs1), rd(in.Rs2), in.Imm)
			}
		case in.Op == isa.OpLoad:
			if in.Rd != 0 {
				regs[in.Rd] = mem.Read(uint32(rd(in.Rs1) + in.Imm))
			}
		case in.Op == isa.OpStore:
			mem.Write(uint32(rd(in.Rs1)+in.Imm), rd(in.Rs2))
		case in.IsCondBranch():
			if isa.BranchTaken(in.Op, rd(in.Rs1), rd(in.Rs2)) {
				next = in.Target
			}
		case in.Op == isa.OpJump:
			next = in.Target
		case in.Op == isa.OpCall:
			regs[isa.RLink] = int64(pc + 1)
			next = in.Target
		case in.Op == isa.OpJr:
			next = uint32(rd(in.Rs1))
		case in.Op == isa.OpCallR:
			t := uint32(rd(in.Rs1))
			regs[isa.RLink] = int64(pc + 1)
			next = t
		case in.Op == isa.OpRet:
			next = uint32(rd(isa.RLink))
		}
		pc = next
		o.Count++
	}
}

// TestSnoopReissueIssuesSamePass pins a cell whose counts depend on one
// issue-stage detail: when an issuing store's snoop reissues a later load of
// the same PE, that load still issues in the same pass (issueAll re-reads the
// live candidate word after every issue). Issuing from a copy of the word
// taken before the pass defers those loads a cycle, which here costs one
// reissue and two load-snoop reissues. The figures are those of the original
// linear scan over every resident slot.
func TestSnoopReissueIssuesSamePass(t *testing.T) {
	bm, err := bench.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	const n = 20_000
	cfg := DefaultConfig()
	cfg.Seed = 1
	stats, err := New(bm.Build(bm.ScaleFor(n)), ModelBaseNTB, cfg).Run(n)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Cycles != 4064 || stats.Reissues != 23192 || stats.LoadSnoopReissues != 8910 {
		t.Errorf("gcc/base(ntb) at %d insts, seed 1: cycles %d, reissues %d, load-snoop reissues %d; want 4064, 23192, 8910",
			n, stats.Cycles, stats.Reissues, stats.LoadSnoopReissues)
	}
}
