// Package rename implements the trace processor's register dataflow
// management: global rename maps translating architectural registers to
// value tags, per-trace map checkpoints, and the global register file
// holding tag values.
//
// Tags are garbage-collected by mark/sweep (Table 1 does not bound the
// physical register file, and never reusing a live tag makes the
// selective-reissue semantics exact: a re-dispatched control independent
// trace compares its source tags against the updated maps and reissues only
// instructions whose names changed, §2.2.1). The caller's mark roots bound
// the live set, so the file has a fixed capacity chosen at construction and
// the caller collects before free capacity runs out. A tag packs a physical
// slot index with the slot's generation, so lookups are a gen-checked array
// index instead of a map probe, and a stale tag (its slot swept and reused)
// reads as invalid exactly like a deleted map key used to.
package rename

import "tracep/internal/isa"

// Tag names a value produced by some instruction (or the initial
// architectural state). Tag 0 is invalid. The low 32 bits hold the physical
// slot index plus one (so a zero word stays invalid), the high 32 bits the
// slot generation at allocation time.
type Tag uint64

// makeTag packs a slot index and generation into a tag.
//
//tracep:noalloc
func makeTag(idx, gen uint32) Tag {
	return Tag(gen)<<32 | Tag(idx+1)
}

// SlotIndex returns the dense physical slot behind t, or -1 for the invalid
// tag. The index is stable while t is live and strictly below Slots(), which
// lets callers maintain their own flat per-slot side tables (the processor's
// subscriber table) without a map.
//
//tracep:noalloc
func SlotIndex(t Tag) int {
	return int(uint32(t)) - 1
}

// Entry is a global register file cell.
type Entry struct {
	Val   int64
	Ready bool
}

// Map translates architectural registers to tags.
type Map [isa.NumRegs]Tag

// pageBits sizes a register-file page, the unit capacity is rounded up to.
const (
	pageBits = 9
	pageSize = 1 << pageBits
	pageMask = pageSize - 1
)

// page is one fixed-size block of register file slots with their parallel
// metadata lanes. Entries (read on every operand lookup) and metadata
// (generation checks, liveness, GC marks) sit in separate arrays so the hot
// Get path touches densely packed cache lines.
type page struct {
	ents   [pageSize]Entry
	gen    [pageSize]uint32
	live   [pageSize]bool
	marked [pageSize]bool
}

// File is the global register file: tag -> value storage, laid out as pages
// of slots indexed directly by the tag's low bits. Its capacity is fixed when
// it is built or reset. Swept slots go on a freelist that Alloc drains before
// extending the frontier, and each reuse bumps the slot generation so stale
// tags read as invalid.
type File struct {
	pages    []page
	free     []uint32 // swept slot indexes, drained LIFO; capacity Cap()
	frontier int      // slots [0, frontier) have been handed out at least once
	used     int      // live slot count

	Allocated uint64
	Swept     uint64
	// Exhausted counts Alloc calls that found no free slot and returned the
	// invalid tag. The caller sizes the file so this stays zero.
	Exhausted uint64
}

// Reset empties the file for a new run with room for at least capacity
// tags, reusing its storage when the page count is unchanged. Slot
// numbering and generations restart, so a reset file hands out exactly the
// tags a new one would.
func (f *File) Reset(capacity int) {
	n := max(1, (capacity+pageMask)>>pageBits)
	if len(f.pages) == n {
		clear(f.pages)
	} else {
		f.pages = make([]page, n)
		f.free = make([]uint32, 0, n*pageSize)
	}
	f.free = f.free[:0]
	f.frontier, f.used = 0, 0
	f.Allocated, f.Swept, f.Exhausted = 0, 0, 0
}

// slot resolves a tag to its page and intra-page index, nil page if the tag
// is invalid, out of range, stale, or swept.
//
//tracep:noalloc
func (f *File) slot(t Tag) (*page, uint32) {
	lo := uint32(t)
	if lo == 0 || int(lo) > f.frontier {
		return nil, 0
	}
	idx := lo - 1
	pg := &f.pages[idx>>pageBits]
	s := idx & pageMask
	if !pg.live[s] || pg.gen[s] != uint32(t>>32) {
		return nil, 0
	}
	return pg, s
}

// Alloc creates a new, not-ready tag. A full file returns the invalid tag
// and counts the miss in Exhausted.
//
//tracep:noalloc
func (f *File) Alloc() Tag {
	var idx uint32
	if n := len(f.free); n > 0 {
		idx = f.free[n-1]
		f.free = f.free[:n-1]
	} else {
		if f.frontier == f.Cap() {
			f.Exhausted++
			return 0
		}
		idx = uint32(f.frontier)
		f.frontier++
	}
	pg := &f.pages[idx>>pageBits]
	s := idx & pageMask
	pg.ents[s] = Entry{}
	pg.live[s] = true
	pg.marked[s] = false
	f.used++
	f.Allocated++
	return makeTag(idx, pg.gen[s])
}

// AllocReady creates a new tag holding v, already ready. Used to seed the
// initial architectural state.
func (f *File) AllocReady(v int64) Tag {
	t := f.Alloc()
	if e := f.Get(t); e != nil {
		e.Val, e.Ready = v, true
	}
	return t
}

// Get returns the entry for t (nil for invalid/swept tags).
//
//tracep:noalloc
func (f *File) Get(t Tag) *Entry {
	pg, s := f.slot(t)
	if pg == nil {
		return nil
	}
	return &pg.ents[s]
}

// Write sets t's value and marks it ready, returning whether the value
// changed from a previously ready value (the condition under which
// dependent instructions must reissue).
//
//tracep:noalloc
func (f *File) Write(t Tag, v int64) (changed bool) {
	pg, s := f.slot(t)
	if pg == nil {
		return false
	}
	e := &pg.ents[s]
	changed = !e.Ready || e.Val != v
	e.Val, e.Ready = v, true
	return changed
}

// Size returns the number of live tags.
//
//tracep:noalloc
func (f *File) Size() int { return f.used }

// Slots returns the file's slot high-water mark: every tag handed out so far
// has a SlotIndex strictly below it.
//
//tracep:noalloc
func (f *File) Slots() int { return f.frontier }

// Cap returns the file's fixed slot capacity: every tag's SlotIndex is
// strictly below it, so callers size per-slot side tables off this once.
//
//tracep:noalloc
func (f *File) Cap() int { return len(f.pages) * pageSize }

// Free returns how many more tags Alloc can hand out before a sweep.
//
//tracep:noalloc
func (f *File) Free() int { return f.Cap() - f.used }

// freeSlot retires slot idx: its generation is bumped so outstanding tags go
// stale, and the index joins the freelist for reuse.
//
//tracep:noalloc
func (f *File) freeSlot(pg *page, s, idx uint32) {
	pg.live[s] = false
	pg.gen[s]++
	//tracep:allow the freelist is preallocated to the file's capacity
	f.free = append(f.free, idx)
	f.used--
	f.Swept++
}

// Mark flags t as live for the next SweepUnmarked. Invalid or stale tags are
// ignored. This is the allocation-free way for a caller to run mark/sweep:
// mark every root, then SweepUnmarked.
//
//tracep:noalloc
func (f *File) Mark(t Tag) {
	if pg, s := f.slot(t); pg != nil {
		pg.marked[s] = true
	}
}

// SweepUnmarked frees every live slot not marked since the previous sweep
// and clears the marks, walking slots in index order so the freelist (and
// with it future tag assignment) is deterministic.
//
//tracep:noalloc
func (f *File) SweepUnmarked() {
	for i := 0; i < f.frontier; i++ {
		pg := &f.pages[i>>pageBits]
		s := uint32(i) & pageMask
		if !pg.live[s] {
			continue
		}
		if pg.marked[s] {
			pg.marked[s] = false
			continue
		}
		f.freeSlot(pg, s, uint32(i))
	}
}

// MapFrom seeds a map with fresh ready tags holding the supplied
// architectural values: zeros at reset, or a warm-up checkpoint's values on
// restore. Both paths go through it, so they allocate identical tag layouts
// by construction.
func MapFrom(f *File, vals *[isa.NumRegs]int64) Map {
	var m Map
	for r := 1; r < isa.NumRegs; r++ {
		m[r] = f.AllocReady(vals[r])
	}
	return m
}
