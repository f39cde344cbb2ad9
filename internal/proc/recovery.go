package proc

import (
	"fmt"

	"tracep/internal/core"
	"tracep/internal/rename"
	"tracep/internal/trace"
)

type recMode uint8

const (
	recBase recMode = iota // full squash of all younger traces
	recFGCI                // fine-grain: repair within the PE, preserve all younger traces
	recCGCI                // coarse-grain: squash to the CI point, insert correct traces
)

type recPhase uint8

const (
	recIdle recPhase = iota
	// recRepairing: the outstanding trace buffer is re-fetching the
	// mispredicted trace from the branch point.
	recRepairing
	// recInserting (CGCI): correct control-dependent traces are fetched and
	// dispatched between the repaired trace and the CI point.
	recInserting
	// recRedispatch: the trace re-dispatch sequence walks the control
	// independent traces, repairing their register dependences (§2.2.1).
	recRedispatch
)

// recovery is the misprediction recovery state machine; one recovery runs at
// a time, oldest mispredictions first.
type recovery struct {
	active bool
	mode   recMode
	phase  recPhase

	pe   *peState
	gen  uint64
	slot int

	isIndirect      bool
	correctedTarget uint32

	newTrace  *trace.Trace
	installAt int64
	oldNextPC uint32
	oldIndir  bool
	oldHalt   bool

	ciPE        *peState
	ciGen       uint64
	insertAfter int
	inserted    int

	redispatch     []*peState
	redispatchGens []uint64
	redispatchIdx  int
}

// enqueueMisp records a resolved-vs-assumed disagreement for recovery.
//
//tracep:noalloc
func (p *Processor) enqueueMisp(st *instState) {
	if st.inMispQueue || st.cancelled {
		return
	}
	st.inMispQueue = true
	//tracep:allow misprediction queue retains capacity across recoveries
	p.mispQueue = append(p.mispQueue, instRef{st: st, gen: st.gen})
}

// mispValid re-derives whether a queued misprediction still needs recovery.
//
//tracep:noalloc
func (p *Processor) mispValid(st *instState) bool {
	if st.cancelled || !st.pe.active {
		return false
	}
	if st.isBr() {
		return st.resolved && st.resolvedTaken != st.assumedTaken
	}
	if st.isIndirect() {
		if !st.cold().targetKnown || st.cold().checkedTarget {
			return false
		}
		pe := st.pe
		if int(st.slot) != len(pe.insts)-1 || pe.next < 0 {
			return false
		}
		return p.pes[pe.next].tr.Desc.StartPC != st.cold().actualTarget
	}
	return false
}

// processMispredictions starts recovery for the oldest outstanding
// misprediction, when no recovery is in flight. Queue compaction reuses the
// queue's backing storage; entries whose instruction slot was reused since
// enqueueing (gen mismatch) are dropped without touching the new occupant.
//
//tracep:noalloc
func (p *Processor) processMispredictions() {
	if p.rec.active || len(p.mispQueue) == 0 {
		return
	}
	kept := p.mispQueue[:0]
	var oldest *instState
	for _, ref := range p.mispQueue {
		st := ref.st
		if ref.gen != st.gen {
			continue // slot reused; the queued misprediction died with it
		}
		if !p.mispValid(st) {
			st.inMispQueue = false
			continue
		}
		//tracep:allow queue compaction reuses the backing array
		kept = append(kept, ref)
		if oldest == nil || p.olderThan(st.pe, st.slot, oldest.pe, oldest.slot) {
			oldest = st
		}
	}
	p.mispQueue = kept
	if oldest == nil {
		return
	}
	for i, ref := range p.mispQueue {
		if ref.st == oldest {
			//tracep:allow in-place removal cannot grow the queue
			p.mispQueue = append(p.mispQueue[:i], p.mispQueue[i+1:]...)
			break
		}
	}
	oldest.inMispQueue = false
	p.startRecovery(oldest)
}

// startRecovery classifies the misprediction (FGCI / CGCI / base), applies
// the mode's squash actions, and launches the trace repair.
//
//tracep:noalloc
func (p *Processor) startRecovery(st *instState) {
	pe := st.pe
	slot := int(st.slot)
	rec := &p.rec
	red, gens := rec.redispatch[:0], rec.redispatchGens[:0]
	*rec = recovery{
		active: true,
		phase:  recRepairing,
		pe:     pe,
		gen:    pe.gen,
		slot:   slot,
		// The redispatch sequence reuses its backing storage run to run.
		redispatch:     red,
		redispatchGens: gens,
	}
	p.Stats.Recoveries++

	// Classify.
	mode := recBase
	if st.isBr() {
		if bi, ok := pe.tr.BranchAt(slot); ok && p.model.FGCI && bi.FGCICovered && bi.ReconvIdx >= 0 {
			mode = recFGCI
		}
	}
	if mode == recBase && p.model.CGCI != CGCINone {
		if ci := p.findCIPoint(st); ci != nil {
			mode = recCGCI
			rec.ciPE = ci
			rec.ciGen = ci.gen
		}
	}
	rec.mode = mode
	switch mode {
	case recFGCI:
		p.Stats.FGCIRecoveries++
	case recCGCI:
		p.Stats.CGCIRecoveries++
	default:
		p.Stats.BaseRecoveries++
	}

	rec.oldNextPC = pe.tr.NextPC
	rec.oldIndir = pe.tr.EndsIndirect
	rec.oldHalt = pe.tr.EndsHalt

	// Correct the assumed outcome; the repaired trace embeds it.
	if st.isBr() {
		st.assumedTaken = st.resolvedTaken
	} else {
		rec.isIndirect = true
		rec.correctedTarget = st.cold().actualTarget
		st.cold().checkedTarget = true
	}

	// Squash the incorrect control-dependent instructions in this PE (the
	// trace suffix past the branch). For a trace-ending indirect the suffix
	// is empty.
	p.squashSuffix(pe, slot+1)

	// Mode-specific squash of younger traces and fetch-stream handling.
	switch mode {
	case recBase:
		for pe.next >= 0 {
			p.squashTrace(p.pes[pe.next])
		}
		p.dropFetchQueue(pe.histPos + 1)
	case recCGCI:
		for p.pes[pe.next] != rec.ciPE {
			p.squashTrace(p.pes[pe.next])
		}
		p.dropFetchQueue(pe.histPos + 1)
	case recFGCI:
		// All younger traces and the fetch stream are preserved: the
		// repaired trace has identical boundaries.
	}

	// Launch the repair. Indirect mispredictions leave the trace content
	// intact (only the successor changes).
	if rec.isIndirect {
		rec.newTrace = pe.tr
		rec.newTrace.Retain() // the recovery's reference, dropped at endRecovery
		rec.installAt = p.cycle + 1
		return
	}
	forced := p.forcedScratch[:0]
	for _, bi := range pe.tr.Branches {
		if int(bi.Idx) < slot {
			//tracep:allow forced-outcome scratch retains capacity across recoveries
			forced = append(forced, pe.insts[bi.Idx].assumedTaken)
			continue
		}
		if int(bi.Idx) == slot {
			//tracep:allow forced-outcome scratch retains capacity across recoveries
			forced = append(forced, st.assumedTaken)
		}
		break
	}
	newTr, _ := p.ctor.BuildTransient(pe.tr.Desc.StartPC, forced)
	p.forcedScratch = forced[:0]
	// A repaired trace the trace cache already holds is reused, its
	// pre-renaming done; only a miss pays for it. installRepair's
	// insertTrace fills the line either way.
	if res, ok := p.tcache.Resident(newTr.Desc); ok {
		newTr = res
	} else {
		newTr = p.ctor.Keep(newTr)
	}
	rec.newTrace = newTr
	rec.newTrace.Retain() // the recovery's reference, transferred to the PE at install
	repair := int64(p.ctor.SuffixCycles(newTr, slot))
	rec.installAt = p.cycle + repair
}

// findCIPoint applies the configured CGCI heuristic over the traces younger
// than the mispredicted one (younger/views are reusable scratch).
//
//tracep:noalloc
func (p *Processor) findCIPoint(st *instState) *peState {
	pe := st.pe
	younger := p.ciYounger[:0]
	for id := pe.next; id >= 0; id = p.pes[id].next {
		//tracep:allow recovery scratch retains capacity across recoveries
		younger = append(younger, p.pes[id])
	}
	p.ciYounger = younger[:0]
	if len(younger) == 0 {
		return nil
	}
	views := p.ciViews[:0]
	for _, q := range younger {
		//tracep:allow recovery scratch retains capacity across recoveries
		views = append(views, core.TraceView{StartPC: q.tr.Desc.StartPC, EndsInRet: q.tr.EndsInRet})
	}
	p.ciViews = views[:0]
	var ci int
	var ok bool
	switch p.model.CGCI {
	case CGCIRET:
		ci, ok = core.FindRET(views, 0)
	case CGCIMLBRET:
		isBackward := st.isBr() && st.inst.IsBackwardBranch(st.cold().pc)
		ci, ok = core.FindMLBRET(views, 0, isBackward, st.cold().pc+1)
	}
	if !ok {
		return nil
	}
	return younger[ci]
}

// squashSuffix cancels the instructions of pe from slot from onward,
// undoing their speculative stores.
//
//tracep:noalloc
func (p *Processor) squashSuffix(pe *peState, from int) {
	for i := from; i < len(pe.insts); i++ {
		st := &pe.insts[i]
		if st.cancelled {
			continue
		}
		st.cancelled = true
		p.Stats.SquashedInsts++
		if st.inLoadRecs {
			p.removeLoadRec(st)
		}
		if st.isStore() && st.performed {
			p.undoStore(st)
		}
	}
}

// squashTrace removes a whole trace from the window.
//
//tracep:noalloc
func (p *Processor) squashTrace(pe *peState) {
	p.squashSuffix(pe, 0)
	p.Stats.SquashedTraces++
	p.unlinkPE(pe)
}

// recoveryStep advances the active recovery: install the repaired trace when
// the trace buffer finishes, then run the re-dispatch sequence one trace per
// cycle.
//
//tracep:noalloc
func (p *Processor) recoveryStep() {
	rec := &p.rec
	if !rec.active {
		return
	}
	switch rec.phase {
	case recRepairing:
		if p.cycle >= rec.installAt {
			p.installRepair()
		}
	case recRedispatch:
		p.redispatchStep()
	case recInserting:
		// Insertion is driven by fetch/dispatch. If the correct path halts
		// before re-convergence, the assumed CI traces are unreachable:
		// squash them and finish.
		if p.fe.stopped && p.fe.queue.len() == 0 && p.fe.jobs.len() == 0 {
			ci := rec.ciPE
			if ci.active && ci.gen == rec.ciGen {
				for {
					tail := p.pes[p.tail]
					p.squashTrace(tail)
					if tail == ci {
						break
					}
				}
			}
			p.Stats.CGCIDegenerate++
			p.endRecovery()
		}
	}
}

// installRepair swaps the repaired trace into the PE (keeping the prefix up
// to and including the branch), rebuilds the rename-map frontier, and
// transitions to the mode's next phase.
//
//tracep:noalloc
func (p *Processor) installRepair() {
	rec := &p.rec
	pe := rec.pe
	if !pe.active || pe.gen != rec.gen {
		// The mispredicted trace itself was squashed by... nothing can do
		// that while this recovery holds the machine; defensive abort.
		p.endRecovery()
		return
	}
	newTr := rec.newTrace
	slot := rec.slot

	if rec.mode == recFGCI &&
		(newTr.NextPC != rec.oldNextPC || newTr.EndsIndirect != rec.oldIndir || newTr.EndsHalt != rec.oldHalt) {
		// The FGCI guarantee (identical trace boundary) was violated. It
		// does happen: startRecovery forces outcomes only up to the
		// mispredicted branch, so the rebuild predicts the branches after
		// the region again, with a predictor that has trained since the
		// trace was first built. If one now goes the other way, the
		// repaired trace leaves by another path and ends elsewhere (the
		// compress/FG cell of testdata/ci-baseline.json records 2).
		// Degrade to a full squash to stay correct.
		p.Stats.FGCIBoundaryViolations++
		for pe.next >= 0 {
			p.squashTrace(p.pes[pe.next])
		}
		p.dropFetchQueue(pe.histPos + 1)
		rec.mode = recBase
	}

	if !rec.isIndirect {
		// Sanity: the repaired trace must share the prefix up to the branch.
		if newTr.Len() <= slot || newTr.PCs[slot] != pe.tr.PCs[slot] {
			//tracep:allow terminal: repair prefix mismatch aborts the run
			p.fail(fmt.Errorf("repair prefix mismatch at pc %d slot %d", pe.tr.PCs[slot], slot))
			return
		}

		// The kept prefix stays in its pooled slots untouched; suffix slots
		// are reinitialised in place for the repaired trace's instructions
		// (their generation bump orphans any stale references to the
		// squashed suffix). Slots beyond the new length fall off the insts
		// prefix; their generations advance so references die with them.
		for i := newTr.Len(); i < len(pe.insts); i++ {
			pe.insts[i].invalidate()
		}
		p.releaseTrace(pe.tr)
		pe.tr = newTr
		rec.newTrace = nil // the recovery's reference is now the PE's
		pe.insts = pe.pool[:newTr.Len()]
		states := pe.insts
		for i := slot + 1; i < newTr.Len(); i++ {
			p.initInstState(&states[i], i, newTr)
			// Local operands whose producers (in the kept prefix or the new
			// suffix) already executed pick their values up immediately —
			// the intra-PE bypass network holds them.
			for k := 0; k < 2; k++ {
				op := &states[i].src[k]
				if op.kind != trace.SrcLocal {
					continue
				}
				if prod := &states[op.local]; prod.localReady {
					op.val = prod.localVal
					op.ready = true
				}
			}
			states[i].markIssuable()
		}
		embedOutcomes(states, newTr, slot+1)

		// Recompute live-out status; promoted prefix values publish their
		// completed results to the register file.
		for i := range pe.insts {
			st := &pe.insts[i]
			if st.destArch == 0 {
				continue
			}
			wasLiveOut := st.liveOut
			st.liveOut = newTr.LastWriter[st.destArch] == int16(i)
			if st.liveOut && !wasLiveOut && st.status == stDone && st.localReady && !st.pendingReissue {
				if p.regs.Write(st.destTag, st.localVal) {
					p.schedule(p.cycle+int64(p.cfg.BusLatency), event{kind: evGlobalArrive, tag: st.destTag})
				}
			}
		}
		p.insertTrace(newTr)
	}

	// Rebuild the rename-map frontier: map before the trace plus the
	// repaired trace's live-outs.
	p.specMap = pe.mapBefore
	for _, r := range pe.tr.LiveOuts {
		p.specMap[r] = pe.insts[pe.tr.LastWriter[r]].destTag
	}
	pe.mapAfter = p.specMap

	// Back up the predictor history to this trace and substitute the
	// repaired trace's ID.
	p.tp.ReplaceAt(pe.histPos, pe.tr.Desc)

	// Fetch-stream redirection.
	switch rec.mode {
	case recBase:
		if rec.isIndirect {
			p.fe.expectedPC = rec.correctedTarget
			p.fe.waitIndirect = false
			p.fe.stopped = false
		} else {
			p.resumeFetchAfter(pe)
		}
		p.endRecovery()
	case recCGCI:
		if rec.isIndirect {
			p.fe.expectedPC = rec.correctedTarget
			p.fe.waitIndirect = false
			p.fe.stopped = false
		} else {
			p.resumeFetchAfter(pe)
		}
		rec.phase = recInserting
		rec.insertAfter = pe.id
		rec.inserted = 0
	case recFGCI:
		// Younger traces were preserved; repair their data dependences.
		p.startRedispatch(p.peAfter(pe))
	}
}

// peAfter returns the PE following pe in the list, or nil.
//
//tracep:noalloc
func (p *Processor) peAfter(pe *peState) *peState {
	if pe.next < 0 {
		return nil
	}
	return p.pes[pe.next]
}

// startRedispatch arms the trace re-dispatch sequence from trace q to the
// window tail.
//
//tracep:noalloc
func (p *Processor) startRedispatch(q *peState) {
	rec := &p.rec
	rec.redispatch = rec.redispatch[:0]
	rec.redispatchGens = rec.redispatchGens[:0]
	for ; q != nil; q = p.peAfter(q) {
		//tracep:allow re-dispatch lists retain capacity across recoveries
		rec.redispatch = append(rec.redispatch, q)
		//tracep:allow re-dispatch lists retain capacity across recoveries
		rec.redispatchGens = append(rec.redispatchGens, q.gen)
	}
	rec.redispatchIdx = 0
	if len(rec.redispatch) == 0 {
		p.endRecovery()
		return
	}
	rec.phase = recRedispatch
}

// redispatchStep re-dispatches one control independent trace per cycle:
// live-in registers are renamed through the updated maps; live-out mappings
// are unchanged; only instructions whose source register names changed are
// reissued (§2.2.1).
//
//tracep:noalloc
func (p *Processor) redispatchStep() {
	rec := &p.rec
	for {
		if rec.redispatchIdx >= len(rec.redispatch) {
			p.endRecovery()
			return
		}
		q := rec.redispatch[rec.redispatchIdx]
		if q.active && q.gen == rec.redispatchGens[rec.redispatchIdx] {
			p.redispatchTrace(q)
			rec.redispatchIdx++
			return
		}
		// Trace disappeared (reclaimed); skip without consuming a cycle.
		rec.redispatchIdx++
	}
}

// redispatchTrace updates one resident trace's live-in bindings against the
// current map frontier and advances the frontier over its live-outs.
//
//tracep:noalloc
func (p *Processor) redispatchTrace(q *peState) {
	q.mapBefore = p.specMap
	for i := range q.insts {
		st := &q.insts[i]
		if st.cancelled {
			continue
		}
		for k := 0; k < 2; k++ {
			op := &st.src[k]
			if op.kind != trace.SrcLiveIn {
				continue
			}
			newTag := q.mapBefore[op.arch]
			if newTag == op.tag {
				continue
			}
			p.Stats.RedispatchRebinds++
			p.rebindOperand(st, k, newTag)
		}
	}
	for _, r := range q.tr.LiveOuts {
		p.specMap[r] = q.insts[q.tr.LastWriter[r]].destTag
	}
	q.mapAfter = p.specMap
	p.Stats.RedispatchedTraces++
}

// rebindOperand points operand k of st at newTag, reissuing st if the value
// differs from what it previously consumed.
//
//tracep:noalloc
func (p *Processor) rebindOperand(st *instState, k int, newTag rename.Tag) {
	op := &st.src[k]
	op.tag = newTag
	p.addSub(newTag, subRef{st: st, gen: st.gen, src: k})
	e := p.regs.Get(newTag)
	if e != nil && e.Ready {
		if op.ready && op.val == e.Val {
			return // same value: no reissue needed
		}
		op.val = e.Val
		op.ready = true
		p.Stats.RedispatchReissues++
		p.reissue(st)
		return
	}
	p.unreadyOperand(st, k)
}

// retargetIndirectRecovery handles a re-execution of the indirect branch an
// active recovery is repairing, when the new target differs from the one the
// recovery captured: the correct control-dependent path changes under the
// recovery's feet. During repair the target is simply replaced; during CGCI
// insertion the inserted traces (built for the stale target) are squashed
// and the insertion stream redirected; after re-convergence the normal
// misprediction path picks it up once recovery completes.
//
//tracep:noalloc
func (p *Processor) retargetIndirectRecovery(st *instState) {
	rec := &p.rec
	if st.cold().actualTarget == rec.correctedTarget {
		st.cold().checkedTarget = true
		return
	}
	switch rec.phase {
	case recRepairing:
		rec.correctedTarget = st.cold().actualTarget
		st.cold().checkedTarget = true
	case recInserting:
		rec.correctedTarget = st.cold().actualTarget
		st.cold().checkedTarget = true
		pe := rec.pe
		ci := rec.ciPE
		ciAlive := ci != nil && ci.active && ci.gen == rec.ciGen
		for pe.next >= 0 {
			q := p.pes[pe.next]
			if ciAlive && q == ci {
				break
			}
			p.squashTrace(q)
		}
		rec.insertAfter = pe.id
		rec.inserted = 0
		// Rewind the rename-map frontier past the squashed insertions so
		// re-inserted traces bind live-ins to live producers.
		p.specMap = pe.mapAfter
		p.dropFetchQueue(pe.histPos + 1)
		p.fe.expectedPC = st.cold().actualTarget
		p.fe.waitIndirect = false
		p.fe.stopped = false
		if !ciAlive {
			// Nothing control independent left: finish as a plain squash.
			p.Stats.CGCIDegenerate++
			p.endRecovery()
		}
	case recRedispatch:
		// The window was already re-linked around the stale target; leave
		// the mismatch unchecked so the normal misprediction path restarts
		// recovery once this one completes.
	}
}

// endRecovery returns the machine to normal operation, keeping the
// redispatch sequence's backing storage for the next recovery.
//
//tracep:noalloc
func (p *Processor) endRecovery() {
	// A repair that never installed (degenerate endings) still owns its
	// reference to the repaired trace; drop it.
	p.releaseTrace(p.rec.newTrace)
	red, gens := p.rec.redispatch[:0], p.rec.redispatchGens[:0]
	p.rec = recovery{redispatch: red, redispatchGens: gens}
}
