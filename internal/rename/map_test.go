package rename

import (
	"testing"

	"tracep/internal/isa"
)

// TestMapFrom: warm values seed ready tags for every register but r0.
func TestMapFrom(t *testing.T) {
	var vals [isa.NumRegs]int64
	vals[1], vals[31] = 111, 999

	f := newFile(64)
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

}
