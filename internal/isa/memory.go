package isa

// Memory is a sparse, word-addressed data memory. Pages are allocated on
// first touch; reads of untouched words return zero, so speculative
// wrong-path loads are always safe.
type Memory struct {
	pages map[uint32]*page
}

// PageShift is log2 of the words in one page. A page (32 KB) is allocated
// whole on its first touch.
const PageShift = 12

const (
	pageWords = 1 << PageShift
	pageMask  = pageWords - 1
)

type page [pageWords]int64

// NewMemory builds an empty memory, optionally pre-loading the initial data
// image from prog.
func NewMemory(prog *Program) *Memory {
	m := &Memory{}
	m.Reset(prog)
	return m
}

// Reset empties the memory and, when prog is non-nil, pre-loads its initial
// data image. Pages already allocated are zeroed and kept: an all-zero page
// reads exactly like an untouched one.
func (m *Memory) Reset(prog *Program) {
	if m.pages == nil {
		m.pages = make(map[uint32]*page)
	}
	for _, p := range m.pages { //tracep:orderinvariant independent clears
		clear(p[:])
	}
	if prog != nil {
		for addr, v := range prog.Data { //tracep:orderinvariant keyed writes commute
			m.Write(addr, v)
		}
	}
}

// Read returns the word at addr (zero if never written).
//
//tracep:noalloc
func (m *Memory) Read(addr uint32) int64 {
	//tracep:allow map access: sparse page directory over the 32-bit address space; one probe per memory op, no allocation
	p, ok := m.pages[addr>>PageShift]
	if !ok {
		return 0
	}
	return p[addr&pageMask]
}

// Write stores v at addr.
//
//tracep:noalloc
func (m *Memory) Write(addr uint32, v int64) {
	idx := addr >> PageShift
	//tracep:allow map access: sparse page directory over the 32-bit address space; one probe per memory op, no allocation
	p, ok := m.pages[idx]
	if !ok {
		//tracep:allow page fault-in: one allocation per touched page, bounded by the data footprint
		p = new(page)
		//tracep:allow map access: fills the page directory once per touched page
		m.pages[idx] = p
	}
	p[addr&pageMask] = v
}

// Clone copies m into dst, reusing dst's pages, and returns dst; a nil dst
// gets fresh storage. It gives the architectural oracle and the timing model
// independent memories initialised from the same image.
func (m *Memory) Clone(dst *Memory) *Memory {
	if dst == nil {
		dst = &Memory{}
	}
	dst.Reset(nil)
	for idx, p := range m.pages { //tracep:orderinvariant map-to-map copy
		q, ok := dst.pages[idx]
		if !ok {
			q = new(page)
			dst.pages[idx] = q
		}
		*q = *p
	}
	return dst
}
