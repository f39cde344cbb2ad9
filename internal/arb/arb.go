// Package arb implements the rules of the trace processor's speculative
// memory disambiguation (§2.2.2), a variant of the Address Resolution Buffer
// (Franklin & Sohi 1996): each data address buffers a list of speculative
// store versions, and loads that read the address snoop store performs and
// undos.
//
// The package holds no buffer of its own. The processor keeps one
// per-address table whose entries hold both the address's versions and its
// load records; this package supplies the operations on one address's
// version list (Store, Undo, Load, Commit) and the snoop predicates
// (NeedsReissue, UndoHitsLoad) the processor applies to the load records.
//
// Loads issue as soon as their addresses are available, irrespective of
// prior stores; Load returns the correct (nearest older) version and the
// sequence number of the store that produced it.
package arb

import (
	"math"

	"tracep/internal/isa"
)

// MaxPEs is the most processing elements a Seq can name: Seq.PE is an
// int16 holding PE numbers 0..MaxPEs-1, and -1 is MemSeq's.
const MaxPEs = math.MaxInt16

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

// Version is one speculative store's data buffered at an address. An
// address's versions form an unordered list with at most one version per
// sequence number; Load orders them by the processor's LessFunc.
type Version struct {
	Seq Seq
	Val int64
}

// Store performs (or re-performs) the store seq on an address's version
// list vs: it installs the version, replacing any previous version by the
// same sequence number, and returns the list.
//
//tracep:noalloc
func Store(vs []Version, val int64, seq Seq) []Version {
	for i := range vs {
		if vs[i].Seq == seq {
			vs[i].Val = val
			return vs
		}
	}
	//tracep:allow version lists draw on recycled capacity; growth is amortised across stores
	return append(vs, Version{seq, val})
}

// Undo removes the version by seq from vs and returns the list; it reports
// whether a version was present. Used when a store is squashed or re-issues
// to a different address.
//
//tracep:noalloc
func Undo(vs []Version, seq Seq) ([]Version, bool) {
	vs, _, ok := remove(vs, seq)
	return vs, ok
}

// Load returns the correct version at addr, whose version list is vs, for
// a load with sequence number seq: the youngest speculative store older
// than the load, or committed memory when none exists. It returns the value
// and the sequence number of the producing store (MemSeq for memory).
//
//tracep:noalloc
func Load(vs []Version, addr uint32, seq Seq, less LessFunc, mem *isa.Memory) (val int64, src Seq) {
	best := MemSeq
	found := false
	for _, v := range vs {
		//tracep:allow less is the caller's prebuilt seqLess func value, itself //tracep:noalloc
		if !less(v.Seq, seq) {
			continue // store not older than the load
		}
		//tracep:allow less is the caller's prebuilt seqLess func value, itself //tracep:noalloc
		if !found || less(best, v.Seq) {
			best = v.Seq
			val = v.Val
			found = true
		}
	}
	if !found {
		return mem.Read(addr), MemSeq
	}
	return val, best
}

// Commit writes the version by seq in addr's list vs to memory and removes
// it, returning the list; it reports whether the version existed. Called at
// trace retirement in program order.
//
//tracep:noalloc
func Commit(vs []Version, addr uint32, seq Seq, mem *isa.Memory) ([]Version, bool) {
	vs, v, ok := remove(vs, seq)
	if ok {
		mem.Write(addr, v.Val)
	}
	return vs, ok
}

// remove swap-removes the version by seq from vs, returning the list and
// the removed version.
//
//tracep:noalloc
func remove(vs []Version, seq Seq) ([]Version, Version, bool) {
	for i, v := range vs {
		if v.Seq == seq {
			vs[i] = vs[len(vs)-1]
			return vs[:len(vs)-1], v, true
		}
	}
	return vs, Version{}, false
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
