package proc

import (
	"fmt"

	"tracep/internal/arb"
	"tracep/internal/core"
)

// retireGate reports whether the head trace pe may retire given the current
// recovery state: traces not involved in an active recovery retire freely
// ("squashing and allocating PEs proceed in parallel, just as dispatch and
// retirement proceed in parallel", §2.1), but the trace under repair, the
// not-yet-reconverged CI trace, and traces awaiting the re-dispatch sequence
// must wait.
//
//tracep:noalloc
func (p *Processor) retireGate(pe *peState) bool {
	if !p.rec.active {
		return true
	}
	rec := &p.rec
	switch rec.phase {
	case recRepairing:
		return pe != rec.pe
	case recInserting:
		return rec.ciPE == nil || pe != rec.ciPE
	case recRedispatch:
		for i := rec.redispatchIdx; i < len(rec.redispatch); i++ {
			if rec.redispatch[i] == pe {
				return false
			}
		}
	}
	return true
}

// retireStep retires the head trace when every instruction in it is final.
// Retirement is in program order, one trace per cycle; stores commit from
// the ARB to memory; the architectural oracle verifies every instruction
// when enabled.
//
//tracep:noalloc
func (p *Processor) retireStep() {
	if p.head < 0 {
		return
	}
	pe := p.pes[p.head]
	if pe.tr == nil || pe.dispatchedAt >= p.cycle || pe.inFlight > 0 {
		return
	}
	if !p.retireGate(pe) {
		return
	}
	for _, st := range pe.insts {
		if st.cancelled {
			//tracep:allow terminal: retirement invariant failure aborts the run
			p.fail(fmt.Errorf("cancelled instruction at pc %d reached retirement", st.cold().pc))
			return
		}
		if !st.final() {
			return
		}
		if st.isBr && st.resolvedTaken != st.assumedTaken {
			return // a misprediction event is about to fire
		}
		if st.isIndirect && !st.cold().checkedTarget {
			// Re-attempt validation: a recovery that completed with this
			// target unresolved leaves no event behind, so the check is
			// re-driven from here (it enqueues a misprediction or steers
			// fetch as appropriate).
			p.checkIndirectTarget(st)
			return
		}
	}

	for _, st := range pe.insts {
		if p.cfg.Verify {
			if err := p.verifyRetired(st); err != nil {
				p.fail(err)
				return
			}
		}
		p.accountRetired(st)
		if st.isStore {
			if !p.arbuf.Commit(st.lastAddr, st.seq(), &p.mem) {
				//tracep:allow terminal: a missing ARB version aborts the run
				p.fail(fmt.Errorf("store at pc %d has no ARB version to commit", st.cold().pc))
				return
			}
			// In-flight loads holding this store's data now source it from
			// committed memory: rewrite their data sequence numbers so later
			// snoops do not compare against a recycled PE's logical position.
			for _, r := range p.loadRecs.get(st.lastAddr) {
				if ld := r.st; r.gen == ld.gen && !ld.cancelled && ld.dataSeq == st.seq() {
					ld.dataSeq = arb.MemSeq
				}
			}
		}
		if st.inLoadRecs {
			p.removeLoadRec(st)
		}
	}

	p.tp.Train(pe.histPos, pe.tr.Desc)
	p.Stats.RetiredInsts += uint64(len(pe.insts))
	p.Stats.RetiredTraces++
	p.Stats.RetiredTraceLenSum += uint64(len(pe.insts))
	p.lastRetire = p.cycle

	if pe.tr.EndsHalt {
		p.halted = true
		p.done = true
	}
	// A retiring trace that is the CGCI insertion point moves the insertion
	// frontier to the window head.
	if p.rec.active && p.rec.phase == recInserting && p.rec.insertAfter == pe.id {
		p.rec.insertAfter = -1
	}
	p.unlinkPE(pe)
}

// accountRetired updates branch statistics and trains the branch predictor
// on the retired (correct-path) outcome.
//
//tracep:noalloc
func (p *Processor) accountRetired(st *instState) {
	if st.isBr {
		p.bp.UpdateDirection(st.cold().pc, st.resolvedTaken)
		var cls branchClass
		if int(st.cold().pc) < len(p.branchClasses) {
			cls = p.branchClasses[st.cold().pc]
		}
		cs := &p.Stats.BranchClasses[cls.kind]
		cs.Dynamic++
		if st.cold().fetchPredTaken != st.resolvedTaken {
			cs.Mispredicted++
		}
		if cls.kind == core.ClassFGCISmall || cls.kind == core.ClassFGCIBig {
			cs.DynSizeSum += uint64(cls.dynSize)
			cs.StaticSizeSum += uint64(cls.staticSize)
			cs.CondBrSum += uint64(cls.numCondBr)
		}
		return
	}
	if st.isIndirect {
		p.bp.UpdateIndirect(st.cold().pc, st.cold().actualTarget)
	}
}
