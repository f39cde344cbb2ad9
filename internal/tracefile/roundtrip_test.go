package tracefile_test

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"tracep"
	"tracep/internal/emu"
	"tracep/internal/tracefile"
)

// TestRoundTrip runs Capture then Load over every suite benchmark and one
// instance of every scenario family: the loaded program must equal the
// built one, the record count the emulator's, and the metadata must
// survive.
func TestRoundTrip(t *testing.T) {
	const n = 5000
	benches := tracep.Benchmarks()
	for _, sc := range tracep.Scenarios() {
		benches = append(benches, sc.Benchmark(1))
	}
	for _, bm := range benches {
		t.Run(bm.Name, func(t *testing.T) {
			prog := bm.Build(bm.ScaleFor(n))
			meta := tracefile.Meta{Name: bm.Name, InstsPerIter: bm.InstsPerIter, TargetInsts: n}
			var buf bytes.Buffer
			if _, err := tracefile.Capture(context.Background(), &buf, prog, meta, 0); err != nil {
				t.Fatalf("Capture: %v", err)
			}
			hdr, got, err := tracefile.Load(&buf)
			if err != nil {
				t.Fatalf("Load: %v", err)
			}
			want := *prog
			want.Name = bm.Name
			if !reflect.DeepEqual(got, &want) {
				t.Fatal("loaded program differs from the built one")
			}
			e := emu.New(prog)
			e.Run(^uint64(0))
			if hdr.Meta != meta || hdr.Records != e.Count {
				t.Fatalf("header %+v, want %+v with the emulator's %d records", hdr, meta, e.Count)
			}
		})
	}
}
