package proc

import (
	"fmt"
	"math/bits"

	"tracep/internal/arb"
	"tracep/internal/isa"
	"tracep/internal/rename"
	"tracep/internal/trace"
)

// instStatus tracks an instruction's execution state within its PE.
type instStatus uint8

const (
	stWaiting   instStatus = iota // not issued (or reset for reissue)
	stExecuting                   // issued, completion event in flight
	stDone                        // completed; may still reissue later
)

// operand is a bound source operand: a copy of the value plus enough
// identity to rebind and re-read when dependences are repaired. The fields
// are ordered widest first, so an operand is 24 bytes.
type operand struct {
	tag   rename.Tag // bound tag (SrcLiveIn)
	val   int64
	local int16 // producer slot (SrcLocal)
	kind  trace.SrcKind
	arch  isa.Reg // architectural register (SrcLiveIn)
	ready bool
}

// instState is a dynamic instruction resident in a PE.
//
// Instruction state is pooled: every PE owns a fixed arena of instStates
// (one per trace slot, sized by Config.MaxTraceLen) that dispatch reuses
// across traces instead of allocating. A slot's gen counter increments every
// time the slot is reinitialised for a new dynamic instruction — at trace
// dispatch, at repair-suffix replacement, and when the PE is unlinked — so
// any reference recorded alongside the then-current gen (value
// subscriptions, completion events, broadcast and misprediction queue
// entries, load records) can detect that its instruction is gone and the
// slot now holds an unrelated one.
//
// Dispatch decodes nothing: inst points at the static instruction in the
// program image (shared and read-only), and cls is its opcode's class from
// isa's table.
type instState struct {
	pe   *peState
	inst *isa.Inst
	instDyn
}

// instDyn is the pointer-free part of a slot, which initInstState clears for
// every new instruction. With no pointers in it, the clear is a plain
// memory clear even while the garbage collector is marking, when clearing
// a pointer field would go through a write barrier.
type instDyn struct {
	gen uint64

	src     [2]operand
	destTag rename.Tag

	localVal int64
	bcastVal int64

	execCount uint32
	lastAddr  uint32
	dataSeq   arb.Seq // producer of the load's current data
	slot      int16

	destArch isa.Reg
	cls      isa.Class
	// liveOut marks the instruction as the last writer of destArch in the
	// current trace version: its completions broadcast on the result buses.
	liveOut bool

	status         instStatus
	pendingReissue bool
	cancelled      bool
	localReady     bool

	// Branch bookkeeping. assumedTaken is the outcome the current window
	// contents were built with; updated when recovery repairs the branch.
	assumedTaken  bool
	resolved      bool
	resolvedTaken bool
	inMispQueue   bool

	// Memory bookkeeping.
	performed  bool // store version installed in ARB / load queried
	inLoadRecs bool

	bcastPending bool
	// wakePending marks the instruction as already enqueued in the cycle's
	// wake batch (queueWake/drainWakes), deduplicating multi-operand wakeups.
	wakePending bool
}

//tracep:noalloc
func (st *instState) isBr() bool { return st.cls&isa.ClassCondBranch != 0 }

// isIndirect reports a trace-ending jr, callr or ret.
//
//tracep:noalloc
func (st *instState) isIndirect() bool { return st.cls&isa.ClassIndirect != 0 }

//tracep:noalloc
func (st *instState) isLoad() bool { return st.cls&isa.ClassLoad != 0 }

//tracep:noalloc
func (st *instState) isStore() bool { return st.cls&isa.ClassStore != 0 }

// instCold is the cold bank of a pooled instruction slot: state the per-cycle
// scan in Step() never reads — it is touched at dispatch, on the rare
// indirect/verify paths, and at retirement. Splitting it out of instState
// keeps the hot issue/wakeup scan walking densely packed state. The bank
// lives in a per-PE parallel arena indexed by slot (see peState.cold) and is
// cleared by initInstState alongside the hot struct.
type instCold struct {
	// pc is the instruction's fetch PC (dispatch-time copy of tr.PCs[slot]).
	pc uint32
	// fetchPredTaken is the prediction made when this instance was fetched
	// (for misprediction accounting at retirement).
	fetchPredTaken bool
	// actualTarget/targetKnown record a resolved indirect (trace-ending
	// jr/callr/ret) target; checkedTarget marks that the successor's start PC
	// has been checked against (or set from) actualTarget.
	actualTarget  uint32
	targetKnown   bool
	checkedTarget bool
	// lastStoreVal is the store's most recent data value, read at
	// retirement for ARB commit verification.
	lastStoreVal int64
}

// cold returns the slot's cold bank.
//
//tracep:noalloc
func (st *instState) cold() *instCold { return &st.pe.cold[st.slot] }

//tracep:noalloc
func (st *instState) seq() arb.Seq {
	return arb.Seq{PE: int16(st.pe.id), Slot: st.slot}
}

// final reports whether the instruction's execution is complete with no
// pending re-execution or broadcast.
//
//tracep:noalloc
func (st *instState) final() bool {
	return st.status == stDone && !st.pendingReissue && !st.bcastPending
}

// peState is one processing element: a trace-sized window with dedicated
// issue bandwidth, linked into the logical PE list.
type peState struct {
	// The fields issueAll reads for every PE, every cycle, come first, so
	// they share a cache line.
	//
	// next links the PE list (§2.1) by physical PE number, and prev (below)
	// links it backwards.
	next         int
	dispatchedAt int64
	// cand is the issue candidate set, one bit per slot: every instruction
	// that can issue (resident, not cancelled, waiting, operands ready) has
	// its bit set. Extra bits are harmless; issueAll clears them as it
	// finds them (see markIssuable).
	cand []uint64
	// insts is the resident trace's dynamic instructions: a prefix of the
	// pool arena. Dispatch re-slices and reinitialises rather than
	// allocating.
	insts []instState
	pool  []instState

	id     int
	active bool
	gen    uint64

	tr *trace.Trace
	// cold is the parallel cold bank: cold[i] belongs to slot i (see
	// instCold). Kept out of pool so the hot scan's stride stays small.
	cold []instCold

	prev int
	// logical is the PE's place in program order: it strictly increases
	// along the list but is not dense, since only relative order is ever
	// read (see allocPE).
	logical int

	// mapBefore/mapAfter checkpoint the global rename maps around this
	// trace.
	mapBefore rename.Map
	mapAfter  rename.Map

	// histPos is the next-trace predictor history checkpoint for this trace.
	histPos int
	// predictedHit marks that this trace came from a trace prediction (vs a
	// branch-predictor-driven construction).
	predictedHit bool

	// inFlight counts scheduled completion events targeting this PE.
	inFlight int
}

// reset empties the PE for a new run as PE id, keeping its instruction
// arena. Generations keep counting, so no reference from the previous run
// can match a slot of this one.
func (pe *peState) reset(id int) {
	*pe = peState{id: id, next: -1, prev: -1, gen: pe.gen,
		insts: pe.pool[:0], pool: pe.pool, cold: pe.cold, cand: pe.cand}
	clear(pe.cand)
}

// initPool sizes the PE's instruction arena for traces up to maxLen
// instructions and gives each slot its PE and slot number. The arena never
// grows: construction stops at Sel.MaxLen, and an embedded FGCI region
// counts its whole Size (at most MaxLen) up front, so no trace — a repair
// trace included — is longer than Config.MaxTraceLen.
func (pe *peState) initPool(maxLen int) {
	pe.pool = make([]instState, maxLen)
	pe.cold = make([]instCold, maxLen)
	pe.cand = make([]uint64, (maxLen+63)/64)
	for i := range pe.pool {
		pe.pool[i].pe = pe
		pe.pool[i].slot = int16(i)
	}
	pe.insts = pe.pool[:0]
}

// markIssuable adds the slot to its PE's issue candidate set. Every
// transition that can make an instruction issuable calls it: slot
// (re)initialisation, reissue, and a completion with a pending reissue.
//
//tracep:noalloc
func (st *instState) markIssuable() { st.pe.cand[st.slot>>6] |= 1 << (st.slot & 63) }

// invalidate advances the slot's generation without installing a new
// instruction, so stale references fail their gen check. Used when a PE
// leaves the window (retirement or squash) while queue entries, events or
// subscriptions may still point at its slots.
//
//tracep:noalloc
func (st *instState) invalidate() { st.gen++ }

// subRef is a subscription of an operand to a global tag; gen is the
// instruction slot's generation at subscription time.
type subRef struct {
	st  *instState
	gen uint64
	src int
}

type evKind uint8

const (
	evComplete evKind = iota
	evLoadComplete
	evGlobalArrive
)

// event is one scheduled delivery, its fields ordered widest first so an
// event is 40 bytes.
type event struct {
	st   *instState
	gen  uint64
	val  int64
	tag  rename.Tag
	data arb.Seq
	kind evKind
}

// initEventRing sizes and empties the per-cycle event buckets. Event deltas
// are bounded by the largest modelled latency (cache miss penalties, the
// divide unit, the bus latency); the ring grows on demand if a
// configuration exceeds the initial size, and bucket storage is reused cycle
// after cycle — and run after run — so steady-state scheduling never touches
// the heap.
func (p *Processor) initEventRing() {
	n := 64
	for n <= p.cfg.BusLatency+1 {
		n *= 2
	}
	if len(p.evBuckets) < n {
		p.evBuckets = make([][]event, n)
	}
	for i := range p.evBuckets {
		p.evBuckets[i] = p.evBuckets[i][:0]
	}
	p.evMask = int64(len(p.evBuckets) - 1)
}

// growEventRing doubles the ring until the delta at-cycle fits, re-homing
// pending buckets by their absolute cycle.
//
//tracep:noalloc
func (p *Processor) growEventRing(at int64) {
	old := p.evBuckets
	oldLen := int64(len(old))
	n := len(old)
	for int64(n) <= at-p.cycle {
		n *= 2
	}
	//tracep:allow event-ring doubling is amortised over the run
	p.evBuckets = make([][]event, n)
	p.evMask = int64(n - 1)
	// Pending events live at absolute cycles (cycle, cycle+oldLen).
	for d := int64(1); d < oldLen; d++ {
		a := p.cycle + d
		if evs := old[a&(oldLen-1)]; evs != nil {
			p.evBuckets[a&p.evMask] = evs
		}
	}
}

//tracep:noalloc
func (p *Processor) schedule(at int64, ev event) {
	if at <= p.cycle {
		at = p.cycle + 1
	}
	if ev.st != nil && (ev.kind == evComplete || ev.kind == evLoadComplete) {
		ev.st.pe.inFlight++
	}
	if at-p.cycle >= int64(len(p.evBuckets)) {
		p.growEventRing(at)
	}
	i := at & p.evMask
	//tracep:allow per-cycle buckets retain capacity across ring wraps
	p.evBuckets[i] = append(p.evBuckets[i], ev)
}

// ---- linked-list PE management ----

// allocPE takes a free PE and links it after prevID (or at the head when
// prevID is -1 and the list is empty, or strictly as the new tail when
// prevID is the tail). Its logical position continues the list's order: a
// tail append takes its predecessor's plus one, a head insert its
// successor's minus one; only a middle insertion (CGCI refill) renumbers.
//
//tracep:noalloc
func (p *Processor) allocPE(prevID int) *peState {
	id := p.free[len(p.free)-1]
	p.free = p.free[:len(p.free)-1]
	pe := p.pes[id]
	if pe.active {
		//tracep:allow terminal: free-list corruption aborts the run
		p.fail(fmt.Errorf("allocPE: PE %d is already active (free-list corruption)", id))
	}
	pe.active = true
	pe.gen++
	pe.insts = pe.pool[:0]
	pe.tr = nil
	pe.inFlight = 0

	if prevID < 0 {
		// Insert at head.
		pe.prev = -1
		pe.next = p.head
		pe.logical = 0
		if p.head >= 0 {
			head := p.pes[p.head]
			head.prev = id
			pe.logical = head.logical - 1
		}
		p.head = id
		if p.tail < 0 {
			p.tail = id
		}
		return pe
	}
	prev := p.pes[prevID]
	pe.prev = prevID
	pe.next = prev.next
	prev.next = id
	if pe.next < 0 {
		p.tail = id
		pe.logical = prev.logical + 1
		return pe
	}
	p.pes[pe.next].prev = id
	p.renumber()
	return pe
}

// unlinkPE removes a PE from the list and returns it to the free pool. The
// generation of every resident instruction slot advances so stale
// references (subscriptions, events, queue entries) to the departing trace's
// instructions are recognisably dead once the arena is reused.
//
//tracep:noalloc
func (p *Processor) unlinkPE(pe *peState) {
	if !pe.active {
		//tracep:allow terminal: double unlink aborts the run
		p.fail(fmt.Errorf("unlinkPE: PE %d is not active (double unlink)", pe.id))
		return
	}
	if pe.prev >= 0 {
		p.pes[pe.prev].next = pe.next
	} else {
		p.head = pe.next
	}
	if pe.next >= 0 {
		p.pes[pe.next].prev = pe.prev
	} else {
		p.tail = pe.prev
	}
	pe.next, pe.prev = -1, -1
	pe.active = false
	pe.gen++
	for i := range pe.insts {
		pe.insts[i].invalidate()
	}
	p.releaseTrace(pe.tr)
	pe.tr = nil
	//tracep:allow free-list capacity is fixed at NumPEs
	p.free = append(p.free, pe.id)
}

// renumber recomputes logical positions from the list (the physical→logical
// translation of §2.2.2), densely from 0. Only a middle insertion needs it:
// seqLess and olderThan read relative order alone, which appends, head
// inserts and unlinks keep by themselves.
//
//tracep:noalloc
func (p *Processor) renumber() {
	n := 0
	for id := p.head; id >= 0; id = p.pes[id].next {
		p.pes[id].logical = n
		n++
	}
}

// seqLess orders sequence numbers in program order via the linked-list
// logical positions.
func (p *Processor) seqLess(a, b arb.Seq) bool {
	if a.PE < 0 || b.PE < 0 {
		return a.PE < b.PE // MemSeq before everything
	}
	la, lb := p.pes[a.PE].logical, p.pes[b.PE].logical
	if la != lb {
		return la < lb
	}
	return a.Slot < b.Slot
}

// olderThan orders two window locations (PE, slot) in program order.
//
//tracep:noalloc
func (p *Processor) olderThan(aPE *peState, aSlot int16, bPE *peState, bSlot int16) bool {
	if aPE.logical != bPE.logical {
		return aPE.logical < bPE.logical
	}
	return aSlot < bSlot
}

// ---- dispatch ----

// dispatchTrace allocates a PE after prevID, renames the trace through the
// global maps and installs its instructions. specMap must be the map at this
// trace's position (the caller guarantees it — normal dispatch appends at
// the tail, CGCI refill dispatches at the insertion frontier).
//
//tracep:noalloc
func (p *Processor) dispatchTrace(tr *trace.Trace, prevID int, histPos int, predicted bool) *peState {
	pe := p.allocPE(prevID)
	pe.tr = tr
	pe.histPos = histPos
	pe.predictedHit = predicted
	pe.mapBefore = p.specMap
	pe.dispatchedAt = p.cycle

	pe.insts = pe.pool[:tr.Len()]
	for i := range pe.insts {
		st := &pe.insts[i]
		p.initInstState(st, i, tr)
		// Only last-writers are live-outs (broadcast on completion and
		// installed in the map).
		st.liveOut = st.destArch != 0 && tr.LastWriter[st.destArch] == int16(i)
		st.markIssuable()
	}
	embedOutcomes(pe.insts, tr, 0)
	for _, r := range tr.LiveOuts {
		p.specMap[r] = pe.insts[tr.LastWriter[r]].destTag
	}
	pe.mapAfter = p.specMap
	p.Stats.DispatchedTraces++
	return pe
}

// initInstState reinitialises st (a pooled slot) as the dynamic instruction
// for slot i of tr. The generation advances, invalidating every stale
// reference to the previous occupant; everything else clears, and nothing
// is decoded: the slot points at the static instruction and copies its
// op class. The sources bind per the trace's pre-renaming: a local operand
// waits on its intra-trace producer, and a live-in reads the map before the
// trace and subscribes to its tag for (re)broadcasts. A writing
// instruction gets a fresh destination tag. The caller adds the slot to the
// issue candidates (markIssuable).
//
//tracep:noalloc
func (p *Processor) initInstState(st *instState, i int, tr *trace.Trace) {
	pc := tr.PCs[i]
	in := p.prog.Ref(pc)
	pe, gen, slot := st.pe, st.gen+1, st.slot
	rd, _ := in.WritesReg()
	st.instDyn = instDyn{}
	st.gen, st.slot, st.cls, st.destArch = gen, slot, in.Op.Class(), rd
	st.inst = in
	pe.cold[i] = instCold{pc: pc}
	srcs := &tr.Srcs[i]
	for k := range srcs {
		sr := srcs[k]
		op := &st.src[k]
		op.kind = sr.Kind
		switch sr.Kind {
		case trace.SrcNone:
			op.ready = true
		case trace.SrcLocal:
			op.local = sr.Local
		case trace.SrcLiveIn:
			tag := pe.mapBefore[sr.Arch]
			op.arch, op.tag = sr.Arch, tag
			if e := p.regs.Get(tag); e != nil && e.Ready {
				op.val, op.ready = e.Val, true
			}
			p.addSub(tag, subRef{st: st, gen: gen, src: k})
		}
	}
	if rd != 0 {
		st.destTag = p.regs.Alloc()
	}
}

// embedOutcomes gives each conditional branch in insts[from:] the outcome
// its trace embeds, as its fetch prediction and its assumed direction. One
// pass over tr.Branches serves the whole trace, where a lookup per branch
// slot would cost O(length × branches) on a long trace.
//
//tracep:noalloc
func embedOutcomes(insts []instState, tr *trace.Trace, from int) {
	for _, bi := range tr.Branches {
		if int(bi.Idx) >= from {
			st := &insts[bi.Idx]
			st.cold().fetchPredTaken = bi.Taken
			st.assumedTaken = bi.Taken
		}
	}
}

// ---- issue and execution ----

//tracep:noalloc
func (p *Processor) issueAll() {
	cacheBusesUsed := 0
	for id := p.head; id >= 0; id = p.pes[id].next {
		pe := p.pes[id]
		if pe.dispatchedAt >= p.cycle {
			continue
		}
		issued, peCacheBuses := 0, 0
	scan:
		for w := range pe.cand {
			// seen masks the bits visited so far in this word. The word is
			// re-read after every issue: a store's snoop may reissue a later
			// load of this PE, which must still issue in this pass.
			var seen uint64
			for {
				word := pe.cand[w] &^ seen
				if word == 0 {
					break
				}
				if issued >= p.cfg.PEIssueWidth {
					break scan
				}
				b := bits.TrailingZeros64(word)
				bit := uint64(1) << b
				seen |= bit
				slot := w<<6 | b
				if slot >= len(pe.insts) {
					pe.cand[w] &^= bit
					continue
				}
				st := &pe.insts[slot]
				if st.cancelled || st.status != stWaiting || !st.src[0].ready || !st.src[1].ready {
					pe.cand[w] &^= bit
					continue
				}
				if st.cls&(isa.ClassLoad|isa.ClassStore) != 0 {
					if cacheBusesUsed >= p.cfg.CacheBuses || peCacheBuses >= p.cfg.MaxCachePerPE {
						continue // deferred: the bit stays for a later cycle
					}
					cacheBusesUsed++
					peCacheBuses++
				}
				pe.cand[w] &^= bit
				p.execute(st)
				issued++
			}
		}
	}
}

// execute performs st's operation with its current operand values and
// schedules completion.
//
//tracep:noalloc
func (p *Processor) execute(st *instState) {
	st.status = stExecuting
	st.pendingReissue = false
	st.execCount++
	if st.execCount > 1 {
		p.Stats.Reissues++
	}
	if st.execCount > 100000 {
		//tracep:allow terminal: livelock detection aborts the run
		p.fail(fmt.Errorf("livelock: instruction at pc %d reissued %d times", st.cold().pc, st.execCount))
		return
	}
	a, b := st.src[0].val, st.src[1].val
	in := st.inst

	switch {
	case in.Op == isa.OpNop || in.Op == isa.OpHalt || in.Op == isa.OpJump:
		p.schedule(p.cycle+1, event{kind: evComplete, st: st, gen: st.gen})

	case st.isBr():
		taken := isa.BranchTaken(in.Op, a, b)
		v := int64(0)
		if taken {
			v = 1
		}
		p.schedule(p.cycle+1, event{kind: evComplete, st: st, gen: st.gen, val: v})

	case in.Op == isa.OpCall:
		p.schedule(p.cycle+1, event{kind: evComplete, st: st, gen: st.gen, val: int64(st.cold().pc + 1)})

	case in.Op == isa.OpCallR:
		// Indirect call: dest is the link value; the target operand resolves
		// the trace successor.
		p.schedule(p.cycle+1, event{kind: evComplete, st: st, gen: st.gen, val: int64(st.cold().pc + 1)})

	case in.Op == isa.OpJr || in.Op == isa.OpRet:
		p.schedule(p.cycle+1, event{kind: evComplete, st: st, gen: st.gen, val: a})

	case in.Op == isa.OpLoad:
		addr := uint32(a + in.Imm)
		e := &p.arbTab.slots[p.recordLoad(st, addr)]
		val, src := arb.Load(e.versions, addr, st.seq(), p.less, &p.mem)
		st.dataSeq = src
		st.performed = true
		lat := int64(1 + p.dcache.Access(addr))
		p.schedule(p.cycle+lat, event{kind: evLoadComplete, st: st, gen: st.gen, val: val, data: src})
		p.Stats.Loads++

	case in.Op == isa.OpStore:
		addr := uint32(a + in.Imm)
		val := b
		if st.performed && st.lastAddr != addr {
			// Store re-issues to a different address: undo the old version
			// in the same transaction (§2.2.2).
			p.undoStore(st)
		}
		st.lastAddr = addr
		st.cold().lastStoreVal = val
		st.performed = true
		p.performStore(st, addr, val)
		p.schedule(p.cycle+1, event{kind: evComplete, st: st, gen: st.gen})
		p.Stats.Stores++

	default: // ALU ops
		val := isa.EvalALU(in.Op, a, b, in.Imm)
		p.schedule(p.cycle+int64(isa.Latency(in.Op)), event{kind: evComplete, st: st, gen: st.gen, val: val})
	}
}
