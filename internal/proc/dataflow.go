package proc

import (
	"tracep/internal/arb"
	"tracep/internal/rename"
	"tracep/internal/trace"
)

// deliverEvents processes all events scheduled for the current cycle:
// completions update local values and wake consumers; global arrivals update
// subscribed operands in other PEs. The cycle's ring bucket is drained and
// its storage recycled; nothing delivered here schedules into the current
// cycle (schedule clamps to cycle+1), so draining in place is safe.
//
//tracep:noalloc
func (p *Processor) deliverEvents() {
	i := p.cycle & p.evMask
	evs := p.evBuckets[i]
	if len(evs) == 0 {
		return
	}
	p.evBuckets[i] = evs[:0]
	for _, ev := range evs {
		switch ev.kind {
		case evComplete, evLoadComplete:
			ev.st.pe.inFlight--
			if ev.st.cancelled || ev.st.gen != ev.gen {
				continue
			}
			p.complete(ev)
		case evGlobalArrive:
			p.deliverGlobal(ev.tag)
		}
	}
	p.drainWakes()
}

// queueWake marks c for a (re)issue check once the cycle's whole event
// bucket has been delivered: operand updates land immediately, but the
// status transition runs once per consumer instead of once per subscriber
// notification. The final state is the same — reissue is idempotent in its
// effect — so batching is behaviour-neutral; the gen stamp and the
// cancellation re-check at drain time guard against the consumer's slot
// being squashed or retargeted by a later event in the same bucket.
//
//tracep:noalloc
func (p *Processor) queueWake(c *instState) {
	if c.wakePending {
		return
	}
	c.wakePending = true
	//tracep:allow wake batch retains capacity across cycles
	p.wakeBatch = append(p.wakeBatch, instRef{st: c, gen: c.gen})
}

// drainWakes reissues every consumer the cycle's deliveries touched.
//
//tracep:noalloc
func (p *Processor) drainWakes() {
	for _, ref := range p.wakeBatch {
		st := ref.st
		st.wakePending = false
		if st.cancelled || st.gen != ref.gen {
			continue
		}
		p.reissue(st)
	}
	p.wakeBatch = p.wakeBatch[:0]
}

// complete finishes one execution of an instruction: it publishes the
// result locally (intra-PE bypass), queues a global broadcast for live-outs,
// resolves branches, and triggers any pending reissue.
//
//tracep:noalloc
func (p *Processor) complete(ev event) {
	st := ev.st
	st.status = stDone

	if st.destArch != 0 {
		changed := !st.localReady || st.localVal != ev.val
		st.localVal = ev.val
		st.localReady = true
		if changed {
			p.wakeLocalConsumers(st)
		}
		if st.liveOut && changed {
			p.requestBroadcast(st, ev.val)
		} else if st.destTag != 0 && !st.liveOut {
			// Non-live-out values still park in the register file so a later
			// repair that promotes this instruction to last-writer finds the
			// value; no bus traffic is modelled for them.
			p.regs.Write(st.destTag, ev.val)
		}
	}

	if st.isBr {
		taken := ev.val != 0
		st.resolved = true
		st.resolvedTaken = taken
		if taken != st.assumedTaken {
			p.enqueueMisp(st)
		}
	}

	if st.isIndirect {
		target := uint32(ev.val)
		if !st.cold().targetKnown || st.cold().actualTarget != target {
			st.cold().checkedTarget = false
		}
		st.cold().actualTarget = target
		st.cold().targetKnown = true
		p.checkIndirectTarget(st)
	}

	if st.pendingReissue {
		st.pendingReissue = false
		st.status = stWaiting
		st.markIssuable()
	}
}

// wakeLocalConsumers propagates st's new local value to intra-trace
// consumers (same-PE bypass, no bus).
//
//tracep:noalloc
func (p *Processor) wakeLocalConsumers(st *instState) {
	pe := st.pe
	for _, ci := range pe.tr.Consumers(st.slot) {
		if int(ci) >= len(pe.insts) {
			continue
		}
		c := pe.insts[ci]
		if c.cancelled {
			continue
		}
		for k := 0; k < 2; k++ {
			op := &c.src[k]
			if op.kind != trace.SrcLocal || op.local != int16(st.slot) {
				continue
			}
			if op.ready && op.val == st.localVal {
				continue
			}
			op.val = st.localVal
			op.ready = true
			p.queueWake(c)
		}
	}
}

// reissue forces c to (re-)execute if it already ran with stale operands;
// instructions that have not issued yet simply become ready.
//
//tracep:noalloc
func (p *Processor) reissue(c *instState) {
	switch c.status {
	case stWaiting:
		// Not yet issued: it picks up the new value when it issues.
		c.markIssuable()
	case stExecuting:
		c.pendingReissue = true
	case stDone:
		c.status = stWaiting
		c.markIssuable()
	}
}

// unreadyOperand marks operand k of c as not ready; if c already executed it
// must re-execute once the value arrives.
//
//tracep:noalloc
func (p *Processor) unreadyOperand(c *instState, k int) {
	c.src[k].ready = false
	switch c.status {
	case stExecuting:
		c.pendingReissue = true
	case stDone:
		c.status = stWaiting
	}
}

// ---- global result buses ----

// requestBroadcast queues a live-out completion for a global result bus. A
// pending request for the same instruction is coalesced to the newest value.
//
//tracep:noalloc
func (p *Processor) requestBroadcast(st *instState, val int64) {
	st.bcastVal = val
	if st.bcastPending {
		return
	}
	st.bcastPending = true
	//tracep:allow broadcast queue retains capacity across cycles
	p.bcastQueue = append(p.bcastQueue, instRef{st: st, gen: st.gen})
}

// grantResultBuses arbitrates the global result buses: up to GlobalBuses
// grants per cycle, at most MaxBusPerPE from any single PE, oldest request
// first. A granted value is written to the register file now and arrives at
// consuming PEs after BusLatency. The per-PE grant counts live in a flat
// PE-indexed array reset here, and queue compaction reuses the queue's own
// backing storage, so arbitration performs no allocation.
//
//tracep:noalloc
func (p *Processor) grantResultBuses() {
	if len(p.bcastQueue) == 0 {
		return
	}
	granted := 0
	for i := range p.busPerPE {
		p.busPerPE[i] = 0
	}
	rest := p.bcastQueue[:0]
	for i, ref := range p.bcastQueue {
		st := ref.st
		if granted >= p.cfg.GlobalBuses {
			//tracep:allow compaction into the queue's reused backing array
			rest = append(rest, p.bcastQueue[i:]...)
			break
		}
		if ref.gen != st.gen {
			continue // slot reused; the old request died with its instruction
		}
		if st.cancelled {
			st.bcastPending = false
			continue
		}
		if p.busPerPE[st.pe.id] >= p.cfg.MaxBusPerPE {
			//tracep:allow compaction into the queue's reused backing array
			rest = append(rest, ref)
			continue
		}
		granted++
		p.busPerPE[st.pe.id]++
		st.bcastPending = false
		p.Stats.Broadcasts++
		if p.regs.Write(st.destTag, st.bcastVal) {
			p.schedule(p.cycle+int64(p.cfg.BusLatency), event{kind: evGlobalArrive, tag: st.destTag})
		}
	}
	p.bcastQueue = rest
}

// deliverGlobal wakes every valid subscriber of tag with its current value.
// Stale subscriptions (squashed instructions, reused slots, rebound
// operands) are pruned lazily here. The subscriber list is a direct index
// into the flat table by the tag's rename slot; a row stamped with a
// different tag means the slot was recycled and the old list is dead.
//
//tracep:noalloc
func (p *Processor) deliverGlobal(tag rename.Tag) {
	i := rename.SlotIndex(tag)
	if i < 0 {
		return
	}
	row := &p.subTab[i]
	if row.tag != tag || len(row.list) == 0 {
		return
	}
	e := p.regs.Get(tag)
	if e == nil {
		row.list = row.list[:0]
		return
	}
	kept := row.list[:0]
	for _, s := range row.list {
		st := s.st
		if st.cancelled || st.gen != s.gen || st.src[s.src].tag != tag {
			continue // stale subscription
		}
		//tracep:allow subscriber-list compaction reuses the list's own backing array
		kept = append(kept, s)
		op := &st.src[s.src]
		if !e.Ready {
			continue
		}
		if op.ready && op.val == e.Val {
			continue
		}
		op.val = e.Val
		op.ready = true
		p.queueWake(st)
	}
	row.list = kept
}

// addSub subscribes ref to tag's row of the flat subscriber table, which has
// a row for every slot of the register file. A row left behind by the slot's
// previous tag is truncated in place, so its list capacity is recycled.
//
//tracep:noalloc
func (p *Processor) addSub(tag rename.Tag, ref subRef) {
	i := rename.SlotIndex(tag)
	if i < 0 {
		return // the invalid tag of an exhausted file; Step fails the run
	}
	row := &p.subTab[i]
	if row.tag != tag {
		row.tag = tag
		row.list = row.list[:0]
	}
	if cap(row.list) == 0 {
		// First subscription on this slot: carve a small list from the slab
		// instead of allocating per row. The three-index slice caps the carve
		// so a row outgrowing it reallocates privately, never into a
		// neighbour's carve.
		const chunk = 4
		if cap(p.subArena)-len(p.subArena) < chunk {
			//tracep:allow amortised: one slab serves 1024 row carves
			p.subArena = make([]subRef, 0, 4096)
		}
		off := len(p.subArena)
		p.subArena = p.subArena[:off+chunk]
		row.list = p.subArena[off : off : off+chunk]
	}
	//tracep:allow subscriber lists reuse recycled row capacity; growth is amortised
	row.list = append(row.list, ref)
}

// ---- load/store snooping ----

// recordLoad indexes a performed load by address for snooping; a reissued
// load migrating to a new address is moved between buckets. Buckets are
// pooled slices of gen-stamped references, so the record churn of the load
// stream performs no steady-state allocation.
//
//tracep:noalloc
func (p *Processor) recordLoad(st *instState, addr uint32) {
	if st.inLoadRecs && st.lastAddr != addr {
		p.removeLoadRec(st)
	}
	st.lastAddr = addr
	if !st.inLoadRecs {
		st.inLoadRecs = true
		i := p.loadRecs.slotFor(addr)
		//tracep:allow load-record buckets reuse pooled capacity
		p.loadRecs.recs[i] = append(p.loadRecs.recs[i], instRef{st: st, gen: st.gen})
	}
}

//tracep:noalloc
func (p *Processor) removeLoadRec(st *instState) {
	if i := p.loadRecs.find(st.lastAddr); i >= 0 {
		recs := p.loadRecs.recs[i]
		for k, r := range recs {
			if r.st == st && r.gen == st.gen {
				recs[k] = recs[len(recs)-1]
				recs = recs[:len(recs)-1]
				break
			}
		}
		p.loadRecs.recs[i] = recs
		if len(recs) == 0 {
			p.loadRecs.del(i)
		}
	}
	st.inLoadRecs = false
}

// snoopStore applies the §2.2.2 reissue rule to loads at addr when a store
// performs.
//
//tracep:noalloc
func (p *Processor) snoopStore(addr uint32, storeSeq arb.Seq) {
	for _, ld := range p.snapshotLoads(addr) {
		if arb.NeedsReissue(ld.seq(), ld.dataSeq, storeSeq, p.less) {
			p.Stats.LoadSnoopReissues++
			p.reissue(ld)
		}
	}
}

// snoopUndo reissues loads whose data came from the undone store.
//
//tracep:noalloc
func (p *Processor) snoopUndo(addr uint32, undoSeq arb.Seq) {
	for _, ld := range p.snapshotLoads(addr) {
		if arb.UndoHitsLoad(ld.dataSeq, undoSeq) {
			p.Stats.LoadSnoopReissues++
			p.reissue(ld)
		}
	}
}

// snapshotLoads returns the valid load records at addr, pruning dead ones.
// The returned slice is the processor's reusable snoop scratch: valid until
// the next snapshotLoads call, which is fine because snoops only reissue the
// returned loads (never re-enter the record index).
//
//tracep:noalloc
func (p *Processor) snapshotLoads(addr uint32) []*instState {
	i := p.loadRecs.find(addr)
	if i < 0 {
		return nil
	}
	recs := p.loadRecs.recs[i]
	kept := recs[:0]
	out := p.loadScratch[:0]
	for _, r := range recs {
		st := r.st
		if r.gen != st.gen || st.cancelled || !st.pe.active || !st.inLoadRecs {
			if r.gen == st.gen {
				st.inLoadRecs = false
			}
			continue
		}
		//tracep:allow compaction reuses the bucket's backing array
		kept = append(kept, r)
		//tracep:allow snoop scratch retains capacity across snoops
		out = append(out, st)
	}
	p.loadScratch = out
	p.loadRecs.recs[i] = kept
	if len(kept) == 0 {
		p.loadRecs.del(i)
		return nil
	}
	return out
}

// ---- garbage collection ----

// collectGarbage sweeps unreferenced tags and compacts lazy index
// structures. Roots: the dispatch-frontier map and every live PE's
// checkpoints, operand bindings and destination tags (tagSpace bounds them).
// Step runs it when the register file's free capacity drops below one
// cycle's worth of allocations. Marks live in the register file's own slot
// metadata (rename.File.Mark), so collection maintains no side set and does
// not allocate.
//
//tracep:noalloc
func (p *Processor) collectGarbage() {
	for _, t := range p.specMap {
		p.regs.Mark(t)
	}
	for id := p.head; id >= 0; id = p.pes[id].next {
		pe := p.pes[id]
		for _, t := range pe.mapBefore {
			p.regs.Mark(t)
		}
		for _, t := range pe.mapAfter {
			p.regs.Mark(t)
		}
		for _, st := range pe.insts {
			p.regs.Mark(st.destTag)
			p.regs.Mark(st.src[0].tag)
			p.regs.Mark(st.src[1].tag)
		}
	}
	p.regs.SweepUnmarked()
	// Compact stale subscribers out of surviving rows. deliverGlobal prunes
	// lazily on delivery, but a long-lived ready tag (a register written
	// once and read forever) never delivers again, so without this its list
	// would grow by one dead entry per consuming dispatch for the rest of
	// the run. The staleness test matches deliverGlobal's, so removal is
	// behaviour-neutral; rows whose tag just died are truncated outright.
	// Rows past the register file's high-water mark were never subscribed.
	for i := range p.subTab[:p.regs.Slots()] {
		row := &p.subTab[i]
		if len(row.list) == 0 {
			continue
		}
		if p.regs.Get(row.tag) == nil {
			row.list = row.list[:0]
			continue
		}
		kept := row.list[:0]
		for _, ref := range row.list {
			st := ref.st
			if st.cancelled || st.gen != ref.gen || st.src[ref.src].tag != row.tag {
				continue
			}
			//tracep:allow subscriber compaction reuses the list's own backing array
			kept = append(kept, ref)
		}
		row.list = kept
	}
}
