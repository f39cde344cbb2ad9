package rename

import (
	"testing"

	"tracep/internal/isa"
)

// TestMapFrom: warm values seed ready tags in the same register order as
// InitialMap, so the zero-value case is indistinguishable from reset.
func TestMapFrom(t *testing.T) {
	var vals [isa.NumRegs]int64
	vals[1], vals[31] = 111, 999

	f := NewFile(64)
	m := MapFrom(f, &vals)
	if e := f.Get(m[1]); e == nil || !e.Ready || e.Val != 111 {
		t.Errorf("r1 entry: %+v", e)
	}
	if e := f.Get(m[31]); e == nil || e.Val != 999 {
		t.Errorf("r31 entry: %+v", e)
	}
	if m[0] != 0 {
		t.Errorf("r0 must stay unmapped, got tag %d", m[0])
	}

	// Same allocation order as InitialMap.
	f2 := NewFile(64)
	var zero [isa.NumRegs]int64
	mz := MapFrom(f2, &zero)
	f3 := NewFile(64)
	mi := InitialMap(f3)
	if mz != mi {
		t.Error("MapFrom(zero) and InitialMap allocate different tag layouts")
	}
}
