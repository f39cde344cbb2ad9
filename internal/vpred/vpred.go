// Package vpred implements the live-in value predictor shown in the
// paper's Figure 2 frontend: a last-value/stride predictor (Lipasti 1997)
// with 2-bit confidence, used to speculatively supply trace live-in register
// values at dispatch. The paper's evaluation never parameterises it, so the
// processor keeps it off by default; it exists for the architecture's sake
// and for ablation (BenchmarkAblationValuePrediction).
//
// Mispredicted values are repaired by the trace processor's existing
// selective-reissue machinery: the predicted operand is overwritten when the
// real value arrives on a result bus, and dependent instructions reissue —
// exactly the data-speculation recovery path of §2.2.
package vpred

import "slices"

// Config sizes the predictor.
type Config struct {
	Entries int // power of two
	// Stride enables stride prediction on top of last-value.
	Stride bool
	// ConfidenceThreshold is the 2-bit counter value required to predict.
	ConfidenceThreshold uint8
}

// DefaultConfig returns a 4K-entry stride predictor requiring full
// confidence.
func DefaultConfig() Config {
	return Config{Entries: 4096, Stride: true, ConfidenceThreshold: 3}
}

type entry struct {
	tag    uint64
	last   int64
	stride int64
	conf   uint8
	valid  bool
}

// Predictor predicts live-in values keyed by an opaque 64-bit context
// (the processor uses trace start PC and architectural register).
type Predictor struct {
	cfg   Config  //tracep:nostats configuration
	table []entry //tracep:nostats model state
	mask  uint64  //tracep:nostats configuration

	Predictions uint64
	Correct     uint64
	Trains      uint64
}

// New builds a predictor.
func New(cfg Config) *Predictor {
	p := &Predictor{}
	p.Reset(cfg)
	return p
}

// Reset returns the predictor to the state New(cfg) builds, reusing its
// table where it is large enough.
func (p *Predictor) Reset(cfg Config) {
	if cfg.Entries == 0 {
		cfg = DefaultConfig()
	}
	if cfg.Entries&(cfg.Entries-1) != 0 {
		panic("vpred: Entries must be a power of two")
	}
	table := slices.Grow(p.table[:0], cfg.Entries)[:cfg.Entries]
	clear(table)
	*p = Predictor{cfg: cfg, table: table, mask: uint64(cfg.Entries - 1)}
}

// Clone copies the predictor table and counters into dst, reusing dst's
// table, and returns dst; a nil dst gets a fresh one.
func (p *Predictor) Clone(dst *Predictor) *Predictor {
	if dst == nil {
		dst = &Predictor{}
	}
	table := append(dst.table[:0], p.table...)
	*dst = *p
	dst.table = table
	return dst
}

// ResetStats zeroes the prediction/training counters, keeping the table.
func (p *Predictor) ResetStats() { p.Predictions, p.Correct, p.Trains = 0, 0, 0 }

//tracep:noalloc
func (p *Predictor) slot(key uint64) *entry {
	h := key * 0x9E3779B97F4A7C15
	h ^= h >> 29
	return &p.table[h&p.mask]
}

// Predict returns a confident value prediction for key, if any.
//
//tracep:noalloc
func (p *Predictor) Predict(key uint64) (int64, bool) {
	e := p.slot(key)
	if !e.valid || e.tag != key || e.conf < p.cfg.ConfidenceThreshold {
		return 0, false
	}
	p.Predictions++
	if p.cfg.Stride {
		return e.last + e.stride, true
	}
	return e.last, true
}

// Train observes an actual live-in value for key, updating last-value,
// stride and confidence.
//
//tracep:noalloc
func (p *Predictor) Train(key uint64, actual int64) {
	p.Trains++
	e := p.slot(key)
	if !e.valid || e.tag != key {
		*e = entry{tag: key, last: actual, valid: true}
		return
	}
	predicted := e.last
	if p.cfg.Stride {
		predicted += e.stride
	}
	if predicted == actual {
		if e.conf < 3 {
			e.conf++
		}
		p.Correct++
	} else if e.conf > 0 {
		e.conf--
	}
	newStride := actual - e.last
	if p.cfg.Stride && e.stride != newStride && e.conf == 0 {
		e.stride = newStride
	}
	e.last = actual
}

// Accuracy returns the fraction of trained observations that matched the
// prediction the table would have made.
func (p *Predictor) Accuracy() float64 {
	if p.Trains == 0 {
		return 0
	}
	return float64(p.Correct) / float64(p.Trains)
}
