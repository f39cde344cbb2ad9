package proc

import (
	"tracep/internal/trace"
)

// fetchEntry is an outstanding trace buffer: a fetched (predicted or
// constructed) trace awaiting dispatch.
type fetchEntry struct {
	desc      trace.Descriptor
	tr        *trace.Trace
	histPos   int
	readyAt   int64 // cycle from which the entry may dispatch
	predicted bool  // true when supplied by the next-trace predictor
	// constructing entries wait on the single instruction-cache port.
	constructing    bool
	constructCycles int
}

// frontend models the trace processor frontend of Figure 6: trace-level
// sequencing (next-trace predictor + trace cache) with instruction-level
// sequencing (outstanding trace buffers) on trace cache misses.
//
// The outstanding trace buffers are hardware-shaped: queue and jobs are
// fixed-capacity rings sized by the PE count (fetch stalls at NumPEs
// outstanding entries) and the fetchEntry structs themselves are pooled, so
// the fetch stream runs without steady-state allocation.
type frontend struct {
	queue entryRing
	// expectedPC is the start PC of the next trace to fetch; invalid while
	// waitIndirect.
	expectedPC   uint32
	waitIndirect bool
	stopped      bool // a halt-terminated trace has been fetched
	// jobs holds construction work in order; one job progresses at a time
	// (Table 1: one port to the instruction cache).
	jobs      entryRing
	jobDoneAt int64

	pool     []*fetchEntry // recycled fetch entries
	outcomes []bool        // descriptor-outcome expansion scratch
}

// init empties the frontend for a run that starts fetching at pc:
// outstanding entries return to the pool, and the rings keep their storage.
// Their traces have already gone back to the constructor's pool (see
// Processor.recycleTraces).
func (fe *frontend) init(numPEs int, pc uint32) {
	// Every job entry is also a queue entry, so the queue holds them all.
	for fe.queue.len() > 0 {
		e := fe.queue.pop()
		e.tr = nil
		fe.putEntry(e)
	}
	*fe = frontend{queue: fe.queue, jobs: fe.jobs, pool: fe.pool, outcomes: fe.outcomes, expectedPC: pc}
	fe.queue.init(numPEs)
	fe.jobs.init(numPEs)
}

// getEntry takes a cleared fetch entry from the pool (or the heap).
//
//tracep:noalloc
func (fe *frontend) getEntry() *fetchEntry {
	if n := len(fe.pool); n > 0 {
		e := fe.pool[n-1]
		fe.pool = fe.pool[:n-1]
		*e = fetchEntry{}
		return e
	}
	//tracep:allow pool miss: fetch entries are recycled via putEntry; the steady state hits the pool
	return &fetchEntry{}
}

// putEntry recycles an entry that has left both the queue and the job list.
//
//tracep:noalloc
//tracep:allow pool return: fetch entries are recycled
func (fe *frontend) putEntry(e *fetchEntry) { fe.pool = append(fe.pool, e) }

// outcomesOf expands a descriptor's embedded outcome bits into the reusable
// scratch (valid until the next call; Build does not retain it).
//
//tracep:noalloc
func (fe *frontend) outcomesOf(d trace.Descriptor) []bool {
	out := fe.outcomes[:0]
	for i := 0; i < int(d.NumBr); i++ {
		//tracep:allow outcome scratch retains capacity across fetches
		out = append(out, d.Outcomes&(1<<uint(i)) != 0)
	}
	fe.outcomes = out
	return out
}

// entryRing is a fixed-capacity FIFO of fetch entries. NumPEs entries
// always fit: fetchStep stops at NumPEs queued entries, and every job is
// also a queue entry.
type entryRing struct {
	buf     []*fetchEntry
	head, n int
}

func (r *entryRing) init(capacity int) {
	if cap(r.buf) < capacity {
		r.buf = make([]*fetchEntry, capacity)
	}
	r.buf = r.buf[:capacity]
	clear(r.buf)
	r.head, r.n = 0, 0
}

//tracep:noalloc
func (r *entryRing) len() int { return r.n }

//tracep:noalloc
func (r *entryRing) at(i int) *fetchEntry { return r.buf[(r.head+i)%len(r.buf)] }

//tracep:noalloc
func (r *entryRing) push(e *fetchEntry) {
	r.buf[(r.head+r.n)%len(r.buf)] = e
	r.n++
}

//tracep:noalloc
func (r *entryRing) pop() *fetchEntry {
	e := r.buf[r.head]
	r.buf[r.head] = nil
	r.head = (r.head + 1) % len(r.buf)
	r.n--
	return e
}

// frontendStep advances recovery, construction, fetch and dispatch by one
// cycle, in that order (recovery owns the dispatch bus while active).
//
//tracep:noalloc
func (p *Processor) frontendStep() {
	p.recoveryStep()
	p.constructionStep()
	p.fetchStep()
	p.dispatchStep()
}

// constructionStep progresses the single active construction job.
//
//tracep:noalloc
func (p *Processor) constructionStep() {
	if p.fe.jobs.len() == 0 {
		return
	}
	job := p.fe.jobs.at(0)
	if p.fe.jobDoneAt == 0 {
		p.fe.jobDoneAt = p.cycle + int64(job.constructCycles)
	}
	if p.cycle >= p.fe.jobDoneAt {
		job.constructing = false
		job.readyAt = p.cycle + 1
		p.insertTrace(job.tr)
		p.fe.jobs.pop()
		p.fe.jobDoneAt = 0
	}
}

// insertTrace installs tr in the trace cache, maintaining trace reference
// counts: the cache retains tr (unless it was already resident) and drops
// its reference to whatever the insertion displaced.
//
//tracep:noalloc
func (p *Processor) insertTrace(tr *trace.Trace) {
	evicted, fresh := p.tcache.Insert(tr)
	if fresh {
		tr.Retain()
	}
	p.releaseTrace(evicted)
}

// releaseTrace drops one reference to tr (nil-safe); the last holder's
// release recycles the trace's storage into the constructor pool.
//
//tracep:noalloc
func (p *Processor) releaseTrace(tr *trace.Trace) {
	if tr != nil && tr.Release() {
		p.ctor.Recycle(tr)
	}
}

// fetchBlocked reports whether trace-level fetch must stall for recovery:
// base and CGCI recoveries redirect the fetch stream at repair-install time,
// so fetching is pointless until then. FGCI repairs preserve all trace
// boundaries, so fetch continues unimpeded.
//
//tracep:noalloc
func (p *Processor) fetchBlocked() bool {
	return p.rec.active && p.rec.phase == recRepairing && p.rec.mode != recFGCI
}

// fetchStep predicts and fetches the next trace into an outstanding trace
// buffer (frontend latency: the fetched entry is dispatchable next cycle,
// giving the 2-cycle fetch+dispatch pipe of Table 1).
//
//tracep:noalloc
func (p *Processor) fetchStep() {
	fe := &p.fe
	if fe.stopped || p.fetchBlocked() || fe.queue.len() >= p.cfg.NumPEs {
		return
	}

	pred, havePred := p.tp.Predict()
	start := fe.expectedPC
	if fe.waitIndirect {
		if !havePred {
			return // wait for the indirect target to resolve
		}
		start = pred.StartPC
	} else if havePred && pred.StartPC != start {
		// The predictor disagrees with the known next PC: its entry is
		// stale/aliased; fall back to branch-predictor construction.
		havePred = false
	}

	entry := fe.getEntry()
	entry.predicted = havePred
	if havePred {
		entry.desc = pred
		entry.histPos = p.tp.SpecUpdate(pred)
		if tr, hit := p.tcache.Lookup(pred); hit {
			entry.tr = tr
			entry.readyAt = p.cycle + 1
		} else {
			tr, cycles := p.ctor.Build(pred.StartPC, fe.outcomesOf(pred))
			entry.tr = tr
			entry.constructing = true
			entry.constructCycles = cycles
			if tr.Desc != pred {
				// The predicted descriptor does not correspond to a real
				// trace (aliasing); the constructed trace supersedes it.
				entry.desc = tr.Desc
				p.tp.ReplaceAt(entry.histPos, tr.Desc)
			}
			p.fe.jobs.push(entry)
		}
	} else {
		// Instruction-level sequencing from the branch predictor. The build
		// is transient: its descriptor keys a trace-cache lookup, and on a
		// hit the constructed trace is discarded (its storage reused by the
		// next build) in favour of the resident pre-renamed copy.
		tr, cycles := p.ctor.BuildTransient(start, nil)
		entry.desc = tr.Desc
		entry.histPos = p.tp.SpecUpdate(tr.Desc)
		if cached, hit := p.tcache.Lookup(tr.Desc); hit {
			entry.tr = cached
			entry.readyAt = p.cycle + 1
		} else {
			entry.tr = p.ctor.Keep(tr)
			entry.constructing = true
			entry.constructCycles = cycles
			p.fe.jobs.push(entry)
		}
	}

	// The queue entry holds a reference whether the trace came from the
	// cache or a fresh build; dispatch transfers it to the PE, a queue drop
	// releases it.
	entry.tr.Retain()
	fe.queue.push(entry)
	fe.expectedPC = entry.tr.NextPC
	fe.waitIndirect = entry.tr.EndsIndirect
	fe.stopped = entry.tr.EndsHalt
}

// dispatchBlocked reports whether the dispatch bus is unavailable (occupied
// by trace repair or by the trace re-dispatch sequence).
//
//tracep:noalloc
func (p *Processor) dispatchBlocked() bool {
	return p.rec.active && p.rec.phase != recInserting
}

// dispatchStep dispatches at most one ready trace: normally at the window
// tail, or at the CGCI insertion frontier while recovery is filling in
// correct control-dependent traces.
//
//tracep:noalloc
func (p *Processor) dispatchStep() {
	if p.dispatchBlocked() || p.fe.queue.len() == 0 {
		return
	}
	entry := p.fe.queue.at(0)
	if entry.tr == nil || entry.constructing || entry.readyAt > p.cycle {
		return
	}

	insertAfter := p.tail
	if p.rec.active && p.rec.phase == recInserting {
		if !p.insertingDispatchTarget(&insertAfter, entry) {
			return
		}
	} else if len(p.free) == 0 {
		return // window full; wait for retirement
	}
	if len(p.free) == 0 {
		return
	}

	p.fe.queue.pop()
	pe := p.dispatchTrace(entry.tr, insertAfter, entry.histPos, entry.predicted)
	entry.tr = nil // reference transferred to the PE
	p.fe.putEntry(entry)
	if p.rec.active && p.rec.phase == recInserting {
		p.rec.insertAfter = pe.id
		p.rec.inserted++
	}

	// Validate a preceding indirect-ended trace's resolved target against
	// this successor. The check is unconditional: an earlier fetch-side
	// validation may have been invalidated by a squash of the previously
	// fetched successor.
	if pe.prev >= 0 {
		prev := p.pes[pe.prev]
		if prev.tr != nil && prev.tr.EndsIndirect && len(prev.insts) > 0 {
			last := prev.insts[len(prev.insts)-1]
			if last.cold().targetKnown {
				if last.cold().actualTarget == pe.tr.Desc.StartPC {
					last.cold().checkedTarget = true
				} else {
					last.cold().checkedTarget = false
					p.enqueueMisp(last)
				}
			}
		}
	}
}

// insertingDispatchTarget resolves the dispatch position during CGCI
// insertion and detects trace-level re-convergence. It returns false when
// dispatch must not proceed this cycle.
//
//tracep:noalloc
func (p *Processor) insertingDispatchTarget(insertAfter *int, entry *fetchEntry) bool {
	rec := &p.rec
	ci := rec.ciPE
	if !ci.active || ci.gen != rec.ciGen {
		// The assumed CI trace was reclaimed: recovery degenerates to a
		// full-squash continuation; dispatch proceeds normally at the tail.
		p.Stats.CGCIDegenerate++
		p.endRecovery()
		*insertAfter = p.tail
		return true
	}
	if entry.desc.StartPC == ci.tr.Desc.StartPC {
		// Re-convergence: the next trace prediction matches the first
		// control-independent trace (§2.1). The resident CI traces are
		// preserved; refetch continues after the current window tail.
		p.Stats.Reconvergences++
		p.dropFetchQueue(entry.histPos)
		for q := ci; ; {
			q.histPos = p.tp.SpecUpdate(q.tr.Desc)
			if q.next < 0 {
				p.resumeFetchAfter(q)
				break
			}
			q = p.pes[q.next]
		}
		p.startRedispatch(ci)
		return false
	}
	if len(p.free) == 0 {
		// Reclaim the most speculative PE to make room (§2.1: "PEs must be
		// reclaimed from the tail").
		tail := p.pes[p.tail]
		p.Stats.TailReclaims++
		p.squashTrace(tail)
		if tail == ci {
			// The CI point itself was reclaimed: no control-independent
			// traces remain, so recovery degenerates to a full squash whose
			// refetch stream is the insertion stream already in flight.
			p.Stats.CGCIDegenerate++
			p.endRecovery()
			*insertAfter = p.tail
			return true
		}
	}
	*insertAfter = rec.insertAfter
	return true
}

// resumeFetchAfter points the fetch stream at the successor of trace q.
//
//tracep:noalloc
func (p *Processor) resumeFetchAfter(q *peState) {
	p.fe.stopped = q.tr.EndsHalt
	p.fe.waitIndirect = q.tr.EndsIndirect
	p.fe.expectedPC = q.tr.NextPC
	if q.tr.EndsIndirect && len(q.insts) > 0 {
		last := q.insts[len(q.insts)-1]
		if last.cold().targetKnown {
			p.fe.expectedPC = last.cold().actualTarget
			p.fe.waitIndirect = false
			last.cold().checkedTarget = true
		}
	}
}

// dropFetchQueue discards all outstanding fetch entries (recycling them)
// and rewinds the speculative predictor history to pos. Every job entry is
// also a queue entry, so draining the queue frees everything exactly once.
//
//tracep:noalloc
func (p *Processor) dropFetchQueue(pos int) {
	for p.fe.queue.len() > 0 {
		e := p.fe.queue.pop()
		p.releaseTrace(e.tr)
		e.tr = nil
		p.fe.putEntry(e)
	}
	for p.fe.jobs.len() > 0 {
		p.fe.jobs.pop()
	}
	p.fe.jobDoneAt = 0
	p.tp.Rewind(pos)
}

// fetchFrontierPE returns the id of the PE whose trace the fetch stream
// continues: the CGCI insertion point while correct control-dependent traces
// are being filled in, otherwise the window tail.
//
//tracep:noalloc
func (p *Processor) fetchFrontierPE() int {
	if p.rec.active && p.rec.phase == recInserting {
		return p.rec.insertAfter
	}
	return p.tail
}

// checkIndirectTarget validates the resolved target of a trace-ending
// indirect branch against the fetched/dispatched successor, triggering
// misprediction recovery or steering the fetch stream.
//
//tracep:noalloc
func (p *Processor) checkIndirectTarget(st *instState) {
	if st.cancelled || !st.cold().targetKnown || st.cold().checkedTarget {
		return
	}
	pe := st.pe
	if !pe.active || st.slot != len(pe.insts)-1 {
		return
	}
	// The indirect currently under recovery may re-execute with a different
	// target (its link value was itself speculative): retarget the in-flight
	// recovery instead of comparing against the window, whose shape the
	// recovery owns.
	rec := &p.rec
	if rec.active && rec.isIndirect && rec.pe == pe && rec.gen == pe.gen && rec.slot == st.slot {
		p.retargetIndirectRecovery(st)
		return
	}
	if pe.id != p.fetchFrontierPE() {
		if pe.next >= 0 {
			succ := p.pes[pe.next]
			if succ.tr.Desc.StartPC == st.cold().actualTarget {
				st.cold().checkedTarget = true
			} else {
				p.enqueueMisp(st)
			}
		}
		// A tail that is not the fetch frontier (the control independent
		// tail during CGCI insertion) is validated when recovery resolves
		// the window shape.
		return
	}
	// This PE is the fetch frontier: its successor comes from the fetch
	// stream, which is repairable in place. During trace repair the install
	// step redirects fetch itself.
	if p.rec.active && p.rec.phase == recRepairing {
		return
	}
	if p.fe.queue.len() > 0 {
		if p.fe.queue.at(0).desc.StartPC == st.cold().actualTarget {
			st.cold().checkedTarget = true
			return
		}
		p.dropFetchQueue(p.fe.queue.at(0).histPos)
		p.Stats.FetchRedirects++
	} else if !p.fe.waitIndirect && !p.fe.stopped && p.fe.expectedPC == st.cold().actualTarget {
		st.cold().checkedTarget = true
		return
	}
	p.fe.expectedPC = st.cold().actualTarget
	p.fe.waitIndirect = false
	p.fe.stopped = false
	st.cold().checkedTarget = true
}
