// Package proc implements the trace processor: a cycle-level,
// execution-driven timing model of the microarchitecture in Figure 2 of the
// paper, with the hierarchical instruction window (one trace per processing
// element), trace-level sequencing (next-trace predictor + trace cache +
// outstanding trace buffers), linked-list PE management, selective
// misspeculation recovery, and the paper's three recovery modes: full squash
// (base), fine-grain control independence (FGCI) and coarse-grain control
// independence (CGCI) with the RET / MLB-RET heuristics.
//
// The model is execution-driven: instruction values are really computed,
// including on wrong paths, and an architectural oracle (internal/emu)
// verifies every retired instruction when Config.Verify is set.
package proc

import (
	"context"
	"fmt"
	"slices"

	"tracep/internal/arb"
	"tracep/internal/bpred"
	"tracep/internal/cache"
	"tracep/internal/core"
	"tracep/internal/emu"
	"tracep/internal/isa"
	"tracep/internal/rename"
	"tracep/internal/tpred"
	"tracep/internal/trace"
)

// CGCIMode selects the coarse-grain control-independence heuristic (§4.2).
type CGCIMode int

const (
	// CGCINone disables coarse-grain CI: any non-FGCI misprediction squashes
	// all younger traces.
	CGCINone CGCIMode = iota
	// CGCIRET uses the RET heuristic: the trace after the nearest
	// return-ending trace is assumed control independent.
	CGCIRET
	// CGCIMLBRET uses MLB for mispredicted backward (loop) branches and RET
	// otherwise; requires ntb trace selection to expose loop exits.
	CGCIMLBRET
)

// Model selects the control-independence configuration of a run, combining
// a trace-selection policy with recovery mechanisms (§6).
type Model struct {
	Name string
	// NTB and FG are the trace selection constraints (§3.2, §4.1).
	NTB bool
	FG  bool
	// FGCI enables fine-grain recovery for FGCI-covered branches.
	FGCI bool
	// CGCI selects the coarse-grain heuristic.
	CGCI CGCIMode
}

// The paper's eight experimental models (Tables 3-4, Figures 9-10).
var (
	ModelBase      = Model{Name: "base"}
	ModelBaseNTB   = Model{Name: "base(ntb)", NTB: true}
	ModelBaseFG    = Model{Name: "base(fg)", FG: true}
	ModelBaseFGNTB = Model{Name: "base(fg,ntb)", FG: true, NTB: true}
	ModelRET       = Model{Name: "RET", CGCI: CGCIRET}
	ModelMLBRET    = Model{Name: "MLB-RET", NTB: true, CGCI: CGCIMLBRET}
	ModelFG        = Model{Name: "FG", FG: true, FGCI: true}
	ModelFGMLBRET  = Model{Name: "FG+MLB-RET", FG: true, NTB: true, FGCI: true, CGCI: CGCIMLBRET}
)

// Config holds the processor configuration (Table 1).
type Config struct {
	NumPEs        int // 16 PEs
	PEIssueWidth  int // 4-way issue per PE
	MaxTraceLen   int // 32 instructions
	GlobalBuses   int // 8 result buses
	MaxBusPerPE   int // up to 4 per PE
	CacheBuses    int // 8 cache buses
	MaxCachePerPE int // up to 4 per PE
	// BusLatency is the extra result bypass latency between PEs (1 cycle).
	BusLatency int

	ICache cache.ICacheConfig
	DCache cache.DCacheConfig
	TCache trace.CacheConfig
	BPred  bpred.Config
	TPred  tpred.Config
	BIT    core.BITConfig

	// Seed, when nonzero, scrambles initial predictor state with a
	// deterministic PRNG instead of the paper's canonical reset: the branch
	// predictor's direction counters and (sparsely) its BTB indirect
	// targets, and the next-trace predictor's replacement-hysteresis
	// counters. Runs stay fully deterministic for a given seed; sweeping
	// seeds measures sensitivity to predictor cold-start (0 = canonical
	// reset).
	Seed int64

	// Verify runs the architectural oracle against every retired
	// instruction, and checks the Stats accounting laws at the end of each
	// run (failing it with an error wrapping ErrStatsLaw).
	Verify bool
	// WatchdogCycles aborts the run if nothing retires for this many cycles
	// (a livelock/deadlock detector for the simulator itself).
	WatchdogCycles int64
}

// DefaultConfig returns Table 1's configuration.
func DefaultConfig() Config {
	return Config{
		NumPEs:         16,
		PEIssueWidth:   4,
		MaxTraceLen:    32,
		GlobalBuses:    8,
		MaxBusPerPE:    4,
		CacheBuses:     8,
		MaxCachePerPE:  4,
		BusLatency:     1,
		ICache:         cache.DefaultICacheConfig(),
		DCache:         cache.DefaultDCacheConfig(),
		TCache:         trace.DefaultCacheConfig(),
		BPred:          bpred.DefaultConfig(),
		TPred:          tpred.DefaultConfig(),
		BIT:            core.DefaultBITConfig(),
		Verify:         true,
		WatchdogCycles: 200000,
	}
}

// Processor is one simulation instance over a program.
type Processor struct {
	cfg   Config
	model Model
	prog  *isa.Program

	mem    isa.Memory // committed architectural memory
	oracle *emu.Emulator
	// oracleRec is the record the oracle steps into, one per processor so
	// verification stays allocation-free.
	oracleRec emu.Record
	// oracleCondBrs counts the conditional branches the oracle committed
	// (Verify only): the Table 5 classes must account for each of them.
	oracleCondBrs uint64

	regs    rename.File
	specMap rename.Map // rename map at the dispatch frontier
	// tagHeadroom is the most tags one cycle can allocate; Step collects
	// garbage once fewer than this many are free (see tagSpace).
	tagHeadroom int

	dcache cache.DCache
	icache cache.ICache
	tcache trace.Cache
	bp     bpred.Predictor
	tp     tpred.Predictor
	bit    core.BIT
	ctor   trace.Constructor

	pes  []*peState
	free []int
	head int // oldest PE in the linked list (-1 when empty)
	tail int

	cycle int64
	// evBuckets is the event scheduler: a power-of-two ring of per-cycle
	// buckets indexed by cycle&evMask, with bucket storage reused across
	// cycles (see initEventRing).
	evBuckets [][]event
	evMask    int64
	// subTab holds global-value subscriptions — operands bound to a tag that
	// must be notified when the tag's value arrives or changes — as a flat
	// table indexed by the tag's physical rename slot, one row per slot of
	// the fixed-capacity register file. See tables.go.
	subTab []subSlot
	// subArena is the slab new subscriber rows carve their initial list
	// capacity from, so first-touch subscriptions on fresh rename slots do
	// not allocate one tiny slice each. Lists outgrowing their carve move to
	// dedicated storage via ordinary append.
	subArena []subRef
	// arbTab is the ARB (§2.2.2): one open-addressed table from data address
	// to the speculative store versions and the performed loads at that
	// address, which snoop store performs and undos. See tables.go.
	arbTab arbTable
	// bcastQueue holds pending global result-bus requests in request order;
	// busPerPE is the flat per-PE grant counter reset each arbitration.
	bcastQueue []instRef
	busPerPE   []int
	// wakeBatch collects the consumers touched by the cycle's event bucket;
	// deliverEvents drains it once per cycle, dispatching a single reissue
	// check per consumer instead of one per subscriber notification.
	wakeBatch []instRef

	// less is p.seqLess as a prebuilt func value: creating the method value
	// once at construction keeps the hot ARB calls free of per-call closures.
	less arb.LessFunc

	fe  frontend
	rec recovery
	// mispQueue holds resolved branches whose outcome disagrees with the
	// assumed outcome, awaiting recovery (oldest processed first).
	mispQueue []instRef

	// forcedScratch, ciYounger and ciViews are recovery-path scratch buffers.
	forcedScratch []bool
	ciYounger     []*peState
	ciViews       []core.TraceView

	// branchClasses is the static Table 5 classification, indexed by PC
	// (zero value for non-branch PCs, matching the old map's missing-key
	// semantics).
	branchClasses []branchClass

	Stats Stats

	lastRetire int64
	halted     bool
	done       bool
	err        error
}

// effectiveBITConfig is the BIT configuration a run actually uses: the FGCI
// scan bound follows the maximum trace length.
func effectiveBITConfig(cfg Config) core.BITConfig {
	bitCfg := cfg.BIT
	bitCfg.Analyze.MaxSize = cfg.MaxTraceLen
	return bitCfg
}

// New builds a processor for prog under the given model and configuration,
// starting from architectural reset with cold microarchitectural state.
func New(prog *isa.Program, model Model, cfg Config) *Processor {
	p := &Processor{}
	p.build(prog, model, cfg, nil)
	return p
}

// Reset turns p into the processor New(prog, model, cfg) returns, reusing
// the tables, arenas and pools of p's previous run, so a sweep worker can
// run cell after cell on one engine. Stats returned by earlier runs are
// copies and do not change.
func (p *Processor) Reset(prog *isa.Program, model Model, cfg Config) {
	p.build(prog, model, cfg, nil)
}

// build is the one construction path: New runs it on zero storage, Reset and
// ResetFromSnapshot on a previous run's. Every field restarts from its zero
// value except the storage listed below, which carries over and is reset in
// place. With a nil snapshot every structure starts from reset; with a
// snapshot, architectural state and the warm-up-visible structures are
// copied from it (see NewFromSnapshot).
func (p *Processor) build(prog *isa.Program, model Model, cfg Config, snap *Snapshot) {
	old := *p
	*p = Processor{
		cfg: cfg, model: model, prog: prog, head: -1, tail: -1,

		mem: old.mem, regs: old.regs, arbTab: old.arbTab,
		dcache: old.dcache, icache: old.icache, tcache: old.tcache,
		bp: old.bp, tp: old.tp, bit: old.bit, ctor: old.ctor, fe: old.fe,
		evBuckets: old.evBuckets, subTab: old.subTab, subArena: old.subArena,

		bcastQueue: old.bcastQueue[:0], busPerPE: slices.Grow(old.busPerPE[:0], cfg.NumPEs)[:cfg.NumPEs],
		wakeBatch: old.wakeBatch[:0], mispQueue: old.mispQueue[:0],
		forcedScratch: old.forcedScratch, ciYounger: old.ciYounger, ciViews: old.ciViews,
		rec: recovery{redispatch: old.rec.redispatch[:0], redispatchGens: old.rec.redispatchGens[:0]},
	}
	p.initEventRing()
	p.arbTab.reset()
	capacity, headroom := tagSpace(cfg)
	p.regs.Reset(capacity)
	p.tagHeadroom = headroom
	if len(p.subTab) != p.regs.Cap() {
		p.subTab = make([]subSlot, p.regs.Cap())
	}
	for i := range p.subTab {
		p.subTab[i] = subSlot{list: p.subTab[i].list[:0]}
	}
	// The frontier map holds the architectural registers as ready tags: zero
	// at reset, the warm values on restore.
	var archRegs [isa.NumRegs]int64
	if snap != nil {
		archRegs = snap.emu.Regs
	}
	p.specMap = rename.MapFrom(&p.regs, &archRegs)
	if cfg.Verify {
		p.oracle = reuse(old.oracle)
	}
	// The trace cache and next-trace predictor start from reset even on a
	// restore: the warm-up never trains them. Checkpoints into the
	// predictor's history reach back at most one window plus one fetch queue
	// of in-flight traces; the ring is sized for twice that.
	p.recycleTraces(&old, cfg)
	p.tp.Reset(cfg.TPred, cfg.Seed, 4*cfg.NumPEs)
	if snap == nil {
		p.mem.Reset(prog)
		p.dcache.Reset(cfg.DCache)
		p.icache.Reset(cfg.ICache)
		p.bp.Reset(cfg.BPred, cfg.Seed)
		p.bit.Reset(prog, effectiveBITConfig(cfg))
		if p.oracle != nil {
			p.oracle.Reset(prog)
		}
		p.fe.init(cfg.NumPEs, prog.Entry)
	} else {
		// Every structure is copied, never aliased: many simulations may be
		// forked from one snapshot, concurrently.
		snap.emu.Mem.Clone(&p.mem)
		snap.dcache.Clone(&p.dcache)
		snap.icache.Clone(&p.icache)
		snap.bp.Clone(&p.bp)
		snap.bit.Clone(&p.bit)
		if p.oracle != nil {
			snap.emu.Clone(p.oracle)
		}
		p.fe.init(cfg.NumPEs, snap.emu.PC)
		p.Stats.WarmupInsts = snap.warmupInsts
	}
	p.ctor.Prog = prog
	p.ctor.Sel = trace.SelConfig{MaxLen: cfg.MaxTraceLen, NTB: model.NTB, FG: model.FG}
	p.ctor.BIT, p.ctor.BP, p.ctor.IC = &p.bit, &p.bp, &p.icache
	p.pes = old.pes
	if len(p.pes) != cfg.NumPEs || old.cfg.MaxTraceLen != cfg.MaxTraceLen {
		p.pes = make([]*peState, cfg.NumPEs)
		for i := range p.pes {
			p.pes[i] = &peState{}
			p.pes[i].initPool(cfg.MaxTraceLen)
		}
	}
	p.free = old.free[:0]
	for i, pe := range p.pes {
		pe.reset(i)
		p.free = append(p.free, i)
	}
	p.less = p.seqLess
	p.branchClasses = old.branchClasses
	if old.prog != prog || old.cfg.MaxTraceLen != cfg.MaxTraceLen {
		p.classifyBranches()
	}
}

// recycleTraces empties the trace cache for cfg and returns every trace the
// previous run still holds — trace-cache residents, PE-resident traces,
// fetch-queue entries (every construction job is one) and a recovery's
// repair trace — to the constructor's pool, so the next run builds into
// their storage. A trace with several holders is pooled once. The pool is
// then bounded by what cfg can keep alive at once: trace-cache lines plus
// the in-flight bound (a trace per PE and per fetch-queue entry, a repair
// trace and the constructor's scratch).
func (p *Processor) recycleTraces(old *Processor, cfg Config) {
	for _, pe := range old.pes {
		p.ctor.Recycle(pe.tr)
	}
	for i := 0; i < old.fe.queue.len(); i++ {
		p.ctor.Recycle(old.fe.queue.at(i).tr)
	}
	p.ctor.Recycle(old.rec.newTrace)
	p.tcache.Reset(cfg.TCache, &p.ctor)
	p.ctor.Reset(p.tcache.Lines() + 2*cfg.NumPEs + 2)
}

// reuse returns x, or new storage when x is nil.
func reuse[T any](x *T) *T {
	if x == nil {
		return new(T)
	}
	return x
}

// tagSpace sizes the register file for cfg. Garbage collection keeps every
// tag its roots name: the frontier map, each PE's two checkpoint maps, and
// each resident instruction's destination and two source tags. So at most
// bound tags survive a sweep. One cycle allocates at most two traces' worth
// of destination tags (a repair install and a dispatch), which is the
// headroom: collecting whenever fewer than headroom tags are free means
// Alloc never finds the file full.
func tagSpace(cfg Config) (capacity, headroom int) {
	bound := isa.NumRegs*(1+2*cfg.NumPEs) + 3*cfg.NumPEs*cfg.MaxTraceLen
	headroom = 2 * cfg.MaxTraceLen
	return bound + headroom, headroom
}

// instRef is a gen-stamped reference to a pooled instruction slot: gen
// guards against the slot having been reused (reinitialised for another
// dynamic instruction) since the reference was recorded. It is the entry
// type of the load-record index, the result-bus request queue and the
// misprediction queue.
type instRef struct {
	st  *instState
	gen uint64
}

// Err returns the first simulator-internal error (oracle mismatch, watchdog,
// invariant violation), or nil.
func (p *Processor) Err() error { return p.err }

// Halted reports whether the program's halt instruction has retired.
func (p *Processor) Halted() bool { return p.halted }

// Run simulates until the program halts, maxInsts instructions have retired,
// or an error occurs. It returns a copy of the collected statistics.
func (p *Processor) Run(maxInsts uint64) (*Stats, error) {
	return p.RunContext(context.Background(), maxInsts, 0, nil)
}

// ctxCheckInterval is how many cycles elapse between context polls: cheap
// enough to be invisible on the hot path, frequent enough that cancellation
// lands within microseconds of simulated work.
const ctxCheckInterval = 1024

// RunContext simulates like Run but stops early when ctx is cancelled,
// returning a copy of the statistics gathered so far together with the
// context's error. When tap is non-nil it is called (synchronously, on the
// simulation goroutine) each time another `every` instructions have
// retired, and may read Cycle and Stats; every <= 0 disables the tap.
func (p *Processor) RunContext(ctx context.Context, maxInsts uint64, every uint64, tap func()) (*Stats, error) {
	var ctxErr error
	var nextTap uint64
	if every > 0 && tap != nil {
		nextTap = every
	}
	for !p.done && p.err == nil {
		p.Step()
		if nextTap > 0 && p.Stats.RetiredInsts >= nextTap {
			tap()
			for nextTap <= p.Stats.RetiredInsts {
				nextTap += every
			}
		}
		if maxInsts > 0 && p.Stats.RetiredInsts >= maxInsts {
			break
		}
		if p.cycle%ctxCheckInterval == 0 {
			if err := ctx.Err(); err != nil {
				ctxErr = err
				break
			}
		}
	}
	p.Stats.Cycles = uint64(p.cycle)
	p.finalizeStats()
	if p.cfg.Verify && p.err == nil {
		if err := p.checkStatsLaws(); err != nil {
			p.fail(err)
		}
	}
	// The caller owns a copy: a returned pointer into the engine would keep
	// the whole processor reachable for as long as the result is held, and
	// would change under any further stepping.
	stats := p.Stats
	if p.err != nil {
		return &stats, p.err
	}
	return &stats, ctxErr
}

// Step advances the processor one cycle.
//
//tracep:noalloc
func (p *Processor) Step() {
	p.cycle++
	p.deliverEvents()
	p.processMispredictions()
	p.issueAll()
	p.grantResultBuses()
	p.frontendStep()
	p.retireStep()
	if p.regs.Free() < p.tagHeadroom {
		p.collectGarbage()
	}
	if p.regs.Exhausted > 0 {
		//tracep:allow terminal: an exhausted tag space aborts the run
		p.fail(fmt.Errorf("rename: tag space of %d exhausted at cycle %d", p.regs.Cap(), p.cycle))
	}
	if p.cfg.WatchdogCycles > 0 && p.cycle-p.lastRetire > p.cfg.WatchdogCycles {
		//tracep:allow watchdog trip is terminal: the run is abandoned, so the error construction is off the measured path
		p.fail(fmt.Errorf("watchdog: no retirement for %d cycles at cycle %d (head=%d recovery=%v)",
			p.cfg.WatchdogCycles, p.cycle, p.head, p.rec.active))
	}
}

//tracep:noalloc
func (p *Processor) fail(err error) {
	if p.err == nil {
		p.err = err
	}
	p.done = true
}

// branchClass is a conditional branch's static Table 5 class and its
// region's sizes, which only the FGCI classes account.
type branchClass struct {
	kind       core.BranchClass
	dynSize    int
	staticSize int
	numCondBr  int
}

// classifyBranches classifies every conditional branch in the program for
// Table 5 accounting (core.ClassifyBranch).
func (p *Processor) classifyBranches() {
	p.branchClasses = slices.Grow(p.branchClasses[:0], p.prog.Len())[:p.prog.Len()]
	clear(p.branchClasses)
	for pc := uint32(0); int(pc) < p.prog.Len(); pc++ {
		if !p.prog.Ref(pc).IsCondBranch() {
			continue
		}
		kind, reg := core.ClassifyBranch(p.prog, pc, p.cfg.MaxTraceLen)
		p.branchClasses[pc] = branchClass{
			kind: kind, dynSize: reg.Size,
			staticSize: reg.StaticSize, numCondBr: reg.NumCondBr,
		}
	}
}
