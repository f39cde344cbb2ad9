// Package tpred implements the next-trace predictor (Jacobson, Rotenberg &
// Smith 1997) used by the trace processor frontend: a hybrid of a path-based
// predictor indexed by a hash of the last 8 trace IDs and a simple predictor
// indexed by the last trace ID alone, each 2^16 entries (Table 1). A single
// trace prediction implicitly predicts multiple branches per cycle.
//
// The predictor keeps a speculative history that the frontend checkpoints
// per fetched trace and rebuilds on misprediction recovery ("the trace
// predictor is backed up to that trace", §2.1).
package tpred

import (
	"slices"

	"tracep/internal/trace"
)

// Config sizes the predictor.
type Config struct {
	PathEntries   int // 2^16 per Table 1
	SimpleEntries int // 2^16 per Table 1
	HistLen       int // path history depth: 8 traces
}

// DefaultConfig matches Table 1.
func DefaultConfig() Config {
	return Config{PathEntries: 1 << 16, SimpleEntries: 1 << 16, HistLen: 8}
}

type entry struct {
	// gen is the Reset generation that last wrote the entry; an entry from
	// an older generation reads as its pristine value (see Predictor.at).
	gen  uint32
	desc trace.Descriptor
	// valid is false until the entry's first installation.
	valid bool
	// ctr is a 2-bit saturating confidence counter with replace-on-zero
	// hysteresis.
	ctr uint8
}

// pageShift sizes a table page: 64 entries. The tables are directories of
// pages allocated on first write, so a short run allocates only the pages
// its trace history trains, not two 2^16-entry tables.
const (
	pageShift = 6
	pageMask  = 1<<pageShift - 1
)

type page [1 << pageShift]entry

// Predictor is the hybrid next-trace predictor.
type Predictor struct {
	cfg     Config  //tracep:nostats configuration
	seed    int64   //tracep:nostats configuration: see New
	path    []*page //tracep:nostats model state
	simple  []*page //tracep:nostats model state
	histLen int     //tracep:nostats model state

	// gen is the current Reset generation. Reset increments it instead of
	// clearing the tables, so every entry stamped by an older generation
	// reads as pristine. Stamps never exceed gen.
	//tracep:nostats model state
	gen uint32

	// hist is the speculative history of trace IDs, stored as a power-of-two
	// ring indexed by absolute position (hist[pos&(len-1)]): the frontend
	// checkpoints absolute positions and rebuilds suffixes on recovery, but
	// only ever reads the histLen positions preceding a live checkpoint, and
	// live checkpoints reach back at most the machine's in-flight trace
	// count — so a small fixed arena replaces the old grow-forever slice.
	// EnsureHistoryCapacity sizes the ring for deep windows.
	//tracep:nostats model state
	hist []uint64
	// pos is the absolute history length: the next position SpecUpdate fills.
	//tracep:nostats model state
	pos int

	// Stats.
	Predictions     uint64
	PathPredictions uint64
	Trains          uint64
}

// New builds a predictor. A nonzero seed scrambles the initial per-entry
// confidence counters with a deterministic PRNG. Untrained entries never
// predict (they are invalid either way), but a scrambled counter delays the
// first installation of an entry by up to its value — a reproducible
// cold-start perturbation for predictor-sensitivity sweeps. Seed 0 keeps
// the canonical reset, where every entry installs on first training.
func New(cfg Config, seed int64) *Predictor {
	p := &Predictor{}
	p.Reset(cfg, seed)
	return p
}

// Reset returns the predictor to the state New(cfg, seed) builds — pristine
// tables, empty speculative history, zero counters — in time independent of
// the table sizes: it starts a new generation rather than clearing entries,
// and keeps every page already allocated. A history ring grown by
// EnsureHistoryCapacity keeps its size.
func (p *Predictor) Reset(cfg Config, seed int64) {
	if cfg.PathEntries == 0 {
		cfg = DefaultConfig()
	}
	if cfg.PathEntries&(cfg.PathEntries-1) != 0 || cfg.SimpleEntries&(cfg.SimpleEntries-1) != 0 {
		panic("tpred: table sizes must be powers of two")
	}
	gen := p.gen + 1
	if gen == 0 {
		// The stamps would alias after 2^32 resets: drop every page instead.
		clear(p.path[:cap(p.path)])
		clear(p.simple[:cap(p.simple)])
		gen = 1
	}
	path := slices.Grow(p.path[:0], pages(cfg.PathEntries))[:pages(cfg.PathEntries)]
	simple := slices.Grow(p.simple[:0], pages(cfg.SimpleEntries))[:pages(cfg.SimpleEntries)]
	hist := p.hist
	if len(hist) < defaultHistRing {
		hist = make([]uint64, defaultHistRing)
	}
	clear(hist)
	*p = Predictor{cfg: cfg, seed: seed, path: path, simple: simple, histLen: cfg.HistLen, hist: hist, gen: gen}
}

// pages returns how many pages hold n entries.
func pages(n int) int { return (n + pageMask) >> pageShift }

// splitmix64 returns the k-th output (from 1) of the splitmix64 generator
// started at state x: cheap, well-mixed, reproducible, and computable for
// any k without drawing the ones before it.
//
//tracep:noalloc
func splitmix64(x, k uint64) uint64 {
	z := x + k*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// pristine is entry i of a table as Reset leaves it: invalid, with a zero
// confidence counter or, seeded, the scramble's draw for that entry. The
// path table takes draws 1..PathEntries and the simple table the ones after;
// draw0 is the draw just before the table's first entry.
//
//tracep:noalloc
func (p *Predictor) pristine(i, draw0 int) entry {
	e := entry{gen: p.gen}
	if p.seed != 0 {
		x := uint64(p.seed) ^ 0xA24BAED4963EE407
		e.ctr = uint8(splitmix64(x, uint64(draw0+i+1)) & 3)
	}
	return e
}

// live returns entry i of table t if the current generation has written it,
// else nil: the entry reads as pristine, and a pristine entry is invalid.
//
//tracep:noalloc
func (p *Predictor) live(t []*page, i int) *entry {
	if pg := t[i>>pageShift]; pg != nil {
		if e := &pg[i&pageMask]; e.gen == p.gen {
			return e
		}
	}
	return nil
}

// at returns entry i of table t for writing, allocating its page and
// writing its pristine value first if the current generation has not
// written it yet.
//
//tracep:noalloc
func (p *Predictor) at(t []*page, i, draw0 int) *entry {
	pg := t[i>>pageShift]
	if pg == nil {
		pg = new(page) //tracep:allow a page is allocated once, on its first write; Reset keeps it
		t[i>>pageShift] = pg
	}
	e := &pg[i&pageMask]
	if e.gen != p.gen {
		*e = p.pristine(i, draw0)
	}
	return e
}

// defaultHistRing is the speculative-history ring capacity at construction:
// ample for the default machine (in-flight traces are bounded by twice the
// PE count). Must be a power of two.
const defaultHistRing = 256

// EnsureHistoryCapacity grows the history ring so that checkpoints up to
// depth positions behind the frontier (plus the hash's histLen lookback)
// remain readable. Called once at processor construction; deep-window
// configurations get a proportionally larger arena.
func (p *Predictor) EnsureHistoryCapacity(depth int) {
	need := depth + p.histLen + 1
	n := len(p.hist)
	for n < need {
		n *= 2
	}
	if n == len(p.hist) {
		return
	}
	ring := make([]uint64, n)
	lo := p.pos - len(p.hist)
	if lo < 0 {
		lo = 0
	}
	for i := lo; i < p.pos; i++ {
		ring[i&(n-1)] = p.hist[i&(len(p.hist)-1)]
	}
	p.hist = ring
}

// ResetStats zeroes the prediction/training counters, keeping the tables.
func (p *Predictor) ResetStats() { p.Predictions, p.PathPredictions, p.Trains = 0, 0, 0 }

// hashPathAt folds the histLen trace IDs preceding absolute position pos
// into a path index, weighting recent traces with more bits (a DOLC-style
// hash).
//
//tracep:noalloc
func (p *Predictor) hashPathAt(pos int) int {
	h := uint64(0x9E3779B97F4A7C15)
	start := pos - p.histLen
	if start < 0 {
		start = 0
	}
	rmask := len(p.hist) - 1
	for i := start; i < pos; i++ {
		h = (h<<5 | h>>59) ^ p.hist[i&rmask]
		h *= 0xBF58476D1CE4E5B9
	}
	return int(h^(h>>21)) & (p.cfg.PathEntries - 1)
}

// hashSimpleAt indexes the simple component with the trace ID at absolute
// position pos-1.
//
//tracep:noalloc
func (p *Predictor) hashSimpleAt(pos int) int {
	if pos == 0 {
		return 0
	}
	h := p.hist[(pos-1)&(len(p.hist)-1)]
	h ^= h >> 17
	h *= 0xBF58476D1CE4E5B9
	return int(h^(h>>29)) & (p.cfg.SimpleEntries - 1)
}

// Predict returns the predicted next trace descriptor given the current
// speculative history. The path-based component is used when its entry is
// valid and confident; otherwise the simple component; ok is false when
// neither has an opinion.
//
//tracep:noalloc
func (p *Predictor) Predict() (trace.Descriptor, bool) {
	p.Predictions++
	pe := p.live(p.path, p.hashPathAt(p.pos))
	if pe != nil && pe.valid && pe.ctr >= 2 {
		p.PathPredictions++
		return pe.desc, true
	}
	if se := p.live(p.simple, p.hashSimpleAt(p.pos)); se != nil && se.valid {
		return se.desc, true
	}
	if pe != nil && pe.valid {
		p.PathPredictions++
		return pe.desc, true
	}
	return trace.Descriptor{}, false
}

// SpecUpdate pushes a fetched trace's ID into the speculative history and
// returns the history position before the push (the checkpoint for that
// trace).
//
//tracep:noalloc
func (p *Predictor) SpecUpdate(d trace.Descriptor) int {
	pos := p.pos
	p.hist[pos&(len(p.hist)-1)] = d.ID()
	p.pos = pos + 1
	return pos
}

// HistoryPos returns the current speculative history length (the checkpoint
// that a trace fetched next would receive).
func (p *Predictor) HistoryPos() int { return p.pos }

// Rewind truncates the speculative history to pos, discarding younger trace
// IDs. Used when recovery backs the predictor up to a mispredicted trace.
//
//tracep:noalloc
func (p *Predictor) Rewind(pos int) {
	if pos < 0 {
		pos = 0
	}
	if pos < p.pos {
		p.pos = pos
	}
}

// ReplaceAt overwrites the history element at pos (the repaired trace's new
// ID after an FGCI repair, where all younger history is preserved). Positions
// older than the ring's reach have already been overwritten and are ignored
// (live traces are always within reach).
//
//tracep:noalloc
func (p *Predictor) ReplaceAt(pos int, d trace.Descriptor) {
	if pos >= 0 && pos < p.pos && p.pos-pos <= len(p.hist) {
		p.hist[pos&(len(p.hist)-1)] = d.ID()
	}
}

// clampPos bounds a checkpoint to the current history length.
//
//tracep:noalloc
func (p *Predictor) clampPos(pos int) int {
	if pos > p.pos {
		pos = p.pos
	}
	if pos < 0 {
		pos = 0
	}
	return pos
}

// Train updates both components with the actual descriptor of the trace
// whose history checkpoint was pos (i.e. the tables are indexed with the
// history that existed when that trace was predicted). Standard 2-bit
// hysteresis: matching entries gain confidence, mismatching entries lose it
// and are replaced at zero.
//
//tracep:noalloc
func (p *Predictor) Train(pos int, actual trace.Descriptor) {
	p.Trains++
	pos = p.clampPos(pos)
	train(p.at(p.path, p.hashPathAt(pos), 0), actual)
	train(p.at(p.simple, p.hashSimpleAt(pos), p.cfg.PathEntries), actual)
}

// train applies 2-bit replace-on-zero hysteresis to one table entry.
//
//tracep:noalloc
func train(e *entry, actual trace.Descriptor) {
	if e.valid && e.desc == actual {
		if e.ctr < 3 {
			e.ctr++
		}
		return
	}
	// Replace-on-zero hysteresis. With the canonical reset this guards
	// valid entries only (invalid entries hold ctr 0 and install
	// immediately); a nonzero seed (see New) scrambles the initial counters so
	// first installations are dithered too.
	if e.ctr > 0 {
		e.ctr--
		return
	}
	e.valid = true
	e.desc = actual
	e.ctr = 1
}
