package tpred

import (
	"math"
	"testing"

	"tracep/internal/trace"
)

// logical is a table entry as the predictor reads it, without the
// generation stamp that decides whether it reads as written or as pristine.
type logical struct {
	valid bool
	desc  trace.Descriptor
	ctr   uint8
}

// contents returns the logical value of every entry, path table first,
// without materialising any of them.
func contents(p *Predictor) []logical {
	var out []logical
	read := func(t []*page, n, draw0 int) {
		for i := 0; i < n; i++ {
			if e := p.live(t, i); e != nil {
				out = append(out, logical{e.valid, e.desc, e.ctr})
			} else {
				e := p.pristine(i, draw0)
				out = append(out, logical{e.valid, e.desc, e.ctr})
			}
		}
	}
	read(p.path, p.cfg.PathEntries, 0)
	read(p.simple, p.cfg.SimpleEntries, p.cfg.PathEntries)
	return out
}

// materialised writes every entry's pristine value where the current
// generation has not written it, then returns the logical value of every
// entry, path table first.
func materialised(p *Predictor) []logical {
	var out []logical
	read := func(t []*page, n, draw0 int) {
		for i := 0; i < n; i++ {
			e := p.at(t, i, draw0)
			out = append(out, logical{e.valid, e.desc, e.ctr})
		}
	}
	read(p.path, p.cfg.PathEntries, 0)
	read(p.simple, p.cfg.SimpleEntries, p.cfg.PathEntries)
	return out
}

// eagerReset is the reset the tables had before they were generation
// stamped, kept as the reference: every entry invalid, and with a seed the
// confidence counters of the path table and then the simple table drawn in
// order from one splitmix64 stream.
func eagerReset(cfg Config, seed int64) []logical {
	out := make([]logical, cfg.PathEntries+cfg.SimpleEntries)
	if seed == 0 {
		return out
	}
	x := uint64(seed) ^ 0xA24BAED4963EE407
	for i := range out {
		x += 0x9E3779B97F4A7C15
		z := x
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		out[i].ctr = uint8((z ^ (z >> 31)) & 3)
	}
	return out
}

// trainSome trains n entries of both tables along a synthetic history.
func trainSome(p *Predictor, n int) {
	for i := 0; i < n; i++ {
		p.Train(p.SpecUpdate(desc(uint32(i), 1)), desc(uint32(i+1), 2))
	}
}

// sameContents reports the first index where got and want differ.
func sameContents(t *testing.T, what string, got, want []logical) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d entries, want %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: entry %d = %+v, want %+v", what, i, got[i], want[i])
		}
	}
}

// TestLazyResetMatchesEager: after Reset — of a fresh predictor or of a
// trained one — every entry reads, and materialises, as the eager reset
// loop left it, for several seeds and table sizes.
func TestLazyResetMatchesEager(t *testing.T) {
	sizes := []Config{
		{PathEntries: 256, SimpleEntries: 32, HistLen: 4},
		{PathEntries: 1 << 12, SimpleEntries: 1 << 10, HistLen: 8},
	}
	for _, cfg := range sizes {
		for _, seed := range []int64{0, 1, 7, -3, math.MaxInt64} {
			want := eagerReset(cfg, seed)
			sameContents(t, "New", contents(New(cfg, seed)), want)

			used := New(Config{PathEntries: 1 << 12, SimpleEntries: 1 << 12, HistLen: 2}, 5)
			trainSome(used, 500)
			used.Reset(cfg, seed, 0)
			sameContents(t, "Reset of a trained predictor", contents(used), want)
			sameContents(t, "materialised after Reset", materialised(used), want)
		}
	}
}

// TestResetGenerationWrap: when the generation counter wraps, entries
// stamped by any earlier generation — including the one the wrapped counter
// lands on — still read as pristine.
func TestResetGenerationWrap(t *testing.T) {
	cfg := Config{PathEntries: 256, SimpleEntries: 256, HistLen: 4}
	p := New(cfg, 7)
	trainSome(p, 100) // stamped with generation 1
	p.gen = math.MaxUint32
	trainSome(p, 100)
	p.Reset(cfg, 7, 0)
	sameContents(t, "Reset across the wrap", contents(p), eagerReset(cfg, 7))
	trainSome(p, 10)
	if p.Trains != 10 {
		t.Errorf("Trains = %d after the wrap, want 10", p.Trains)
	}
}

// TestPagesAllocatedOnFirstWrite: a fresh predictor holds no pages,
// prediction allocates none, and a training allocates at most one page per
// table.
func TestPagesAllocatedOnFirstWrite(t *testing.T) {
	p := New(DefaultConfig(), 0)
	count := func() (n int) {
		for _, t := range [][]*page{p.path, p.simple} {
			for _, pg := range t {
				if pg != nil {
					n++
				}
			}
		}
		return n
	}
	p.Predict()
	if n := count(); n != 0 {
		t.Fatalf("fresh predictor holds %d pages after a prediction", n)
	}
	p.Train(p.SpecUpdate(desc(4, 1)), desc(8, 0))
	if n := count(); n == 0 || n > 2 {
		t.Fatalf("one training allocated %d pages, want 1 or 2", n)
	}
}

// TestResetAndCloneReuseStorage: Reset of a trained predictor reads, entry
// for entry over every index, as New builds it, seed scramble included, with
// the same history and counters, and keeps the pages it already allocated.
func TestResetAndCloneReuseStorage(t *testing.T) {
	cfg := Config{PathEntries: 256, SimpleEntries: 128, HistLen: 4}
	used := New(Config{PathEntries: 256, SimpleEntries: 256, HistLen: 2}, 0)
	trainSome(used, 20)
	var kept *page
	for _, pg := range used.path {
		if pg != nil {
			kept = pg
			break
		}
	}
	used.Reset(cfg, 7, 0)
	fresh := New(cfg, 7)
	sameContents(t, "Reset of a trained predictor", contents(used), contents(fresh))
	if used.cfg != fresh.cfg || used.seed != fresh.seed || used.pos != fresh.pos || len(used.hist) != len(fresh.hist) ||
		used.Predictions != 0 || used.PathPredictions != 0 || used.Trains != 0 {
		t.Error("Reset of a trained predictor left configuration, history or counters unlike New")
	}
	found := false
	for _, pg := range used.path {
		found = found || pg == kept
	}
	if kept == nil || !found {
		t.Error("Reset dropped a page the training allocated")
	}
}
