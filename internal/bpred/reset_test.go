package bpred

import (
	"math"
	"testing"
)

// eagerReset is the reset the tables had before they were generation
// stamped, kept as the reference: counters then targets drawn in order from
// one splitmix64 stream, or weakly not-taken with no targets unseeded.
func eagerReset(cfg Config, seed int64) (ctr []uint8, target []uint32) {
	ctr, target = make([]uint8, cfg.Entries), make([]uint32, cfg.Entries)
	if seed == 0 {
		for i := range ctr {
			ctr[i] = 1
		}
		return ctr, target
	}
	x := uint64(seed)
	nextRand := func() uint64 {
		x += 0x9E3779B97F4A7C15
		z := x
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		return z ^ (z >> 31)
	}
	for i := range ctr {
		ctr[i] = uint8(nextRand() & 3)
	}
	for i := range target {
		if r := nextRand(); r&7 == 0 {
			target[i] = uint32(r>>16) & 0xFFFFF
		}
	}
	return ctr, target
}

// logicalState returns every entry's counter and target as the predictor
// reads them, without materialising any entry.
func logicalState(p *Predictor) (ctr []uint8, target []uint32) {
	for i := range p.ctr {
		c, tg := p.ctr[i], p.target[i]
		if p.stamp[i] != p.gen {
			c, tg = p.pristine(uint32(i))
		}
		ctr, target = append(ctr, c), append(target, tg)
	}
	return ctr, target
}

// sameState fails at the first entry where the counters or targets differ.
func sameState(t *testing.T, what string, ctr []uint8, target []uint32, wantCtr []uint8, wantTarget []uint32) {
	t.Helper()
	if len(ctr) != len(wantCtr) || len(target) != len(wantTarget) {
		t.Fatalf("%s: %d/%d entries, want %d/%d", what, len(ctr), len(target), len(wantCtr), len(wantTarget))
	}
	for i := range ctr {
		if ctr[i] != wantCtr[i] || target[i] != wantTarget[i] {
			t.Fatalf("%s: entry %d = ctr %d target %#x, want ctr %d target %#x",
				what, i, ctr[i], target[i], wantCtr[i], wantTarget[i])
		}
	}
}

// train writes n entries' counters and targets.
func train(p *Predictor, n int) {
	for pc := uint32(0); pc < uint32(n); pc++ {
		p.UpdateDirection(pc*3, pc%2 == 0)
		p.UpdateIndirect(pc*5, pc+100)
	}
}

// TestLazyResetMatchesEager: after Reset — of a fresh predictor or of a
// trained one — every entry reads as the eager reset loop left it, for
// several seeds and table sizes.
func TestLazyResetMatchesEager(t *testing.T) {
	for _, entries := range []int{64, 1 << 12} {
		for _, seed := range []int64{0, 1, 7, -3, math.MaxInt64} {
			cfg := Config{Entries: entries, RASDepth: 4}
			wantCtr, wantTarget := eagerReset(cfg, seed)
			ctr, target := logicalState(New(cfg, seed))
			sameState(t, "New", ctr, target, wantCtr, wantTarget)

			used := New(Config{Entries: 1 << 12, RASDepth: 4}, 5)
			train(used, 1000)
			used.Reset(cfg, seed)
			ctr, target = logicalState(used)
			sameState(t, "Reset of a trained predictor", ctr, target, wantCtr, wantTarget)
		}
	}
}

// TestResetGenerationWrap: when the generation counter wraps, entries
// stamped by any earlier generation — including the one the wrapped counter
// lands on — still read as pristine.
func TestResetGenerationWrap(t *testing.T) {
	cfg := Config{Entries: 256, RASDepth: 4}
	p := New(cfg, 7)
	train(p, 50) // stamped with generation 1
	p.gen = math.MaxUint32
	train(p, 80)
	p.Reset(cfg, 7)
	ctr, target := logicalState(p)
	wantCtr, wantTarget := eagerReset(cfg, 7)
	sameState(t, "Reset across the wrap", ctr, target, wantCtr, wantTarget)
}
