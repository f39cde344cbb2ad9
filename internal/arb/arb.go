// Package arb implements the trace processor's speculative memory
// disambiguation substrate: a variant of the Address Resolution Buffer
// (Franklin & Sohi 1996) that keeps a list of speculative store versions per
// address, ordered by sequence number (§2.2.2).
//
// Loads issue as soon as their addresses are available, irrespective of
// prior stores; the ARB returns the correct (nearest older) version and the
// sequence number of the store that produced it. Memory dependence
// violations are detected by loads snooping store performs and store undos —
// the snoop predicates live here (NeedsReissue, UndoHitsLoad); the processor
// applies them to its load records.
package arb

import "tracep/internal/isa"

// Seq identifies a memory operation's position in the window: the
// processing element that holds it and the instruction slot within the PE's
// trace. Program-order comparisons translate PE numbers through the
// linked-list control structure — the Less function supplied by the
// processor — because with CGCI the physical PE order no longer implies
// logical order (§2.2.2).
type Seq struct {
	PE   int16
	Slot int16
}

// MemSeq is the sentinel sequence number for data read from committed
// memory: logically older than every speculative store.
var MemSeq = Seq{PE: -1, Slot: -1}

// LessFunc orders two sequence numbers in program order.
type LessFunc func(a, b Seq) bool

type version struct {
	seq Seq
	val int64
}

// ARB buffers speculative store data, arranged per address. Per-address
// version lists are recycled through an internal pool when their last
// version commits or is undone, so the steady-state store/commit churn of a
// simulation performs no heap allocation.
type ARB struct {
	byAddr map[uint32][]version
	pool   [][]version // emptied version lists awaiting reuse

	Stores  uint64
	Undos   uint64
	Commits uint64
}

// New builds an empty ARB.
func New() *ARB {
	a := &ARB{}
	a.Reset()
	return a
}

// Reset empties the ARB and zeroes its counters, recycling every version
// list into the pool.
func (a *ARB) Reset() {
	if a.byAddr == nil {
		a.byAddr = make(map[uint32][]version)
	}
	for _, vs := range a.byAddr { //tracep:orderinvariant pooled lists are interchangeable
		a.recycle(vs)
	}
	clear(a.byAddr)
	a.Stores, a.Undos, a.Commits = 0, 0, 0
}

// recycle returns an emptied version list to the pool.
//
//tracep:noalloc
func (a *ARB) recycle(vs []version) {
	if cap(vs) > 0 {
		//tracep:allow pool return: emptied version lists are recycled; growth is amortised
		a.pool = append(a.pool, vs[:0])
	}
}

// Store performs (or re-performs) a store: it installs the version for
// (addr, seq), replacing any previous version by the same sequence number at
// this address.
//
//tracep:noalloc
func (a *ARB) Store(addr uint32, val int64, seq Seq) {
	a.Stores++
	//tracep:allow map access: the ARB is keyed by sparse 32-bit addresses; the probe is the design (§2.2.2) and does not allocate
	vs, ok := a.byAddr[addr]
	if !ok {
		if n := len(a.pool); n > 0 {
			vs = a.pool[n-1]
			a.pool = a.pool[:n-1]
		}
	}
	for i := range vs {
		if vs[i].seq == seq {
			vs[i].val = val
			return
		}
	}
	//tracep:allow version lists draw on recycled capacity; growth is amortised across stores
	a.byAddr[addr] = append(vs, version{seq, val})
}

// Undo removes the version for (addr, seq); it reports whether a version was
// present. Used when a store is squashed or re-issues to a different
// address.
//
//tracep:noalloc
func (a *ARB) Undo(addr uint32, seq Seq) bool {
	//tracep:allow map access: the ARB is keyed by sparse 32-bit addresses; the probe is the design (§2.2.2) and does not allocate
	vs := a.byAddr[addr]
	for i := range vs {
		if vs[i].seq == seq {
			a.Undos++
			vs[i] = vs[len(vs)-1]
			vs = vs[:len(vs)-1]
			if len(vs) == 0 {
				delete(a.byAddr, addr)
				a.recycle(vs)
			} else {
				//tracep:allow map access: writes back the shortened version list; no allocation
				a.byAddr[addr] = vs
			}
			return true
		}
	}
	return false
}

// Load returns the correct version of addr for a load with sequence number
// seq: the youngest speculative store older than the load, or committed
// memory when none exists. It returns the value and the sequence number of
// the producing store (MemSeq for memory).
//
//tracep:noalloc
func (a *ARB) Load(addr uint32, seq Seq, less LessFunc, mem *isa.Memory) (val int64, src Seq) {
	best := MemSeq
	found := false
	//tracep:allow map access: the ARB is keyed by sparse 32-bit addresses; the probe is the design (§2.2.2) and does not allocate
	for _, v := range a.byAddr[addr] {
		//tracep:allow less is the caller's prebuilt seqLess func value, itself //tracep:noalloc
		if !less(v.seq, seq) {
			continue // store not older than the load
		}
		//tracep:allow less is the caller's prebuilt seqLess func value, itself //tracep:noalloc
		if !found || less(best, v.seq) {
			best = v.seq
			val = v.val
			found = true
		}
	}
	if !found {
		return mem.Read(addr), MemSeq
	}
	return val, best
}

// Commit writes the version for (addr, seq) to memory and removes it from
// the buffer; it reports whether the version existed. Called at trace
// retirement in program order.
//
//tracep:noalloc
func (a *ARB) Commit(addr uint32, seq Seq, mem *isa.Memory) bool {
	//tracep:allow map access: the ARB is keyed by sparse 32-bit addresses; the probe is the design (§2.2.2) and does not allocate
	vs := a.byAddr[addr]
	for i := range vs {
		if vs[i].seq == seq {
			mem.Write(addr, vs[i].val)
			a.Commits++
			vs[i] = vs[len(vs)-1]
			vs = vs[:len(vs)-1]
			if len(vs) == 0 {
				delete(a.byAddr, addr)
				a.recycle(vs)
			} else {
				//tracep:allow map access: writes back the shortened version list; no allocation
				a.byAddr[addr] = vs
			}
			return true
		}
	}
	return false
}

// Versions returns the number of speculative versions buffered for addr
// (diagnostics and tests).
func (a *ARB) Versions(addr uint32) int { return len(a.byAddr[addr]) }

// TotalVersions returns the number of buffered versions across all
// addresses.
func (a *ARB) TotalVersions() int {
	n := 0
	for _, vs := range a.byAddr { //tracep:orderinvariant summing counts
		n += len(vs)
	}
	return n
}

// NeedsReissue is the load snoop predicate of §2.2.2: when a store to the
// load's address performs with sequence number storeSeq, the load (sequence
// loadSeq, currently holding data produced by dataSeq) must reissue iff
//
//  1. the store is logically before the load, and
//  2. the store is logically at or after the load's data source — "after"
//     means the load held an older, incorrect version; "at" means the same
//     store re-performed (possibly with a new value).
//
//tracep:noalloc
func NeedsReissue(loadSeq, dataSeq, storeSeq Seq, less LessFunc) bool {
	//tracep:allow less is the caller's prebuilt seqLess func value, itself //tracep:noalloc
	if !less(storeSeq, loadSeq) {
		return false
	}
	if dataSeq == MemSeq {
		return true // any older speculative store supersedes memory data
	}
	//tracep:allow less is the caller's prebuilt seqLess func value, itself //tracep:noalloc
	return storeSeq == dataSeq || less(dataSeq, storeSeq)
}

// UndoHitsLoad is the store-undo snoop predicate: a load must reissue iff
// the undone store produced its data.
//
//tracep:noalloc
func UndoHitsLoad(dataSeq, undoSeq Seq) bool { return dataSeq == undoSeq }
