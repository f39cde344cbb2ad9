package tracefile

import (
	"bytes"
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"tracep/internal/emu"
	"tracep/internal/isa"
)

// testProgram builds a small program exercising every record-bearing
// instruction class: conditional branch, load, store, direct call/jump,
// indirect return, and halt.
func testProgram() *isa.Program {
	return &isa.Program{
		Name:  "tracefile-test",
		Entry: 0,
		Insts: []isa.Inst{
			0:  {Op: isa.OpAddi, Rd: 1, Rs1: 0, Imm: 40},     // counter
			1:  {Op: isa.OpLui, Rd: 2, Imm: 1},               // base = 65536
			2:  {Op: isa.OpAddi, Rd: 10, Rs1: 0, Imm: 0},     // sum
			3:  {Op: isa.OpLoad, Rd: 3, Rs1: 2, Imm: 0},      // loop:
			4:  {Op: isa.OpAdd, Rd: 10, Rs1: 10, Rs2: 3},     //
			5:  {Op: isa.OpStore, Rs1: 2, Rs2: 10, Imm: 512}, //
			6:  {Op: isa.OpAddi, Rd: 2, Rs1: 2, Imm: 1},      //
			7:  {Op: isa.OpAddi, Rd: 1, Rs1: 1, Imm: -1},     //
			8:  {Op: isa.OpCall, Target: 12},                 //
			9:  {Op: isa.OpBne, Rs1: 1, Rs2: 0, Target: 3},   //
			10: {Op: isa.OpJump, Target: 11},                 //
			11: {Op: isa.OpHalt},                             //
			12: {Op: isa.OpAddi, Rd: 4, Rs1: 4, Imm: 1},      // helper:
			13: {Op: isa.OpRet},                              //
		},
		Data: map[uint32]int64{65536: 7, 65537: -3, 65540: 1 << 40},
	}
}

// captureBuf captures prog to an in-memory trace and returns the bytes and
// the record count.
func captureBuf(t *testing.T, prog *isa.Program, meta Meta) ([]byte, uint64) {
	t.Helper()
	var buf bytes.Buffer
	n, err := Capture(context.Background(), &buf, prog, meta, 1<<20)
	if err != nil {
		t.Fatalf("Capture: %v", err)
	}
	return buf.Bytes(), n
}

// referenceRecords runs the emulator directly and returns the records a
// perfect decoder must reproduce (sans register/store values, which the
// format deliberately omits).
func referenceRecords(prog *isa.Program) []emu.Record {
	e := emu.New(prog)
	var recs []emu.Record
	var rec emu.Record
	for !e.Halted {
		e.Step(&rec)
		rec.Dest, rec.Value, rec.HasDest, rec.StoreVal = 0, 0, false, 0
		recs = append(recs, rec)
	}
	return recs
}

func TestRoundTrip(t *testing.T) {
	prog := testProgram()
	meta := Meta{Name: "rt", InstsPerIter: 11, TargetInsts: 5000}
	data, n := captureBuf(t, prog, meta)
	want := referenceRecords(prog)
	if uint64(len(want)) != n {
		t.Fatalf("Capture reported %d records, emulator committed %d", n, len(want))
	}

	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	if h := r.Header(); h.Name != "rt" || h.InstsPerIter != 11 || h.TargetInsts != 5000 || h.FormatVersion != Version {
		t.Fatalf("header mismatch: %+v", h)
	}
	got := r.Program()
	if got.Name != "rt" || got.Entry != prog.Entry ||
		!reflect.DeepEqual(got.Insts, prog.Insts) || !reflect.DeepEqual(got.Data, prog.Data) {
		t.Fatalf("embedded program did not round-trip")
	}

	for i, w := range want {
		rec, err := r.Next()
		if err != nil {
			t.Fatalf("Next at record %d: %v", i, err)
		}
		if rec != w {
			t.Fatalf("record %d mismatch:\n got %+v\nwant %+v", i, rec, w)
		}
	}
	if _, err := r.Next(); !errors.Is(err, io.EOF) {
		t.Fatalf("Next past end = %v, want io.EOF", err)
	}
	if r.Header().Records != n {
		t.Fatalf("stream reader learned %d records at EOF, want %d", r.Header().Records, n)
	}
}

func TestRoundTripSmallBlocks(t *testing.T) {
	prog := testProgram()
	var buf bytes.Buffer
	w, err := NewWriter(&buf, prog, Meta{Name: "small"})
	if err != nil {
		t.Fatal(err)
	}
	w.BlockRecords = 8 // force many block boundaries
	e := emu.New(prog)
	var rec emu.Record
	for !e.Halted {
		e.Step(&rec)
		if err := w.Add(rec); err != nil {
			t.Fatalf("Add: %v", err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	r, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range referenceRecords(prog) {
		rec, err := r.Next()
		if err != nil {
			t.Fatalf("Next at record %d: %v", i, err)
		}
		if rec != want {
			t.Fatalf("record %d mismatch:\n got %+v\nwant %+v", i, rec, want)
		}
	}
	if _, err := r.Next(); !errors.Is(err, io.EOF) {
		t.Fatalf("Next past end = %v, want io.EOF", err)
	}
}

func TestOpenFile(t *testing.T) {
	prog := testProgram()
	data, n := captureBuf(t, prog, Meta{Name: "file"})
	path := filepath.Join(t.TempDir(), "file"+Ext)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := OpenFile(path)
	if err != nil {
		t.Fatalf("OpenFile: %v", err)
	}
	defer r.Close()
	if r.Header().Records != n {
		t.Fatalf("OpenFile reported %d records, want %d", r.Header().Records, n)
	}
	var count uint64
	for {
		if _, err := r.Next(); err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			t.Fatalf("Next: %v", err)
		}
		count++
	}
	if count != n {
		t.Fatalf("decoded %d records, want %d", count, n)
	}
}

func TestSkip(t *testing.T) {
	prog := testProgram()
	want := referenceRecords(prog)
	total := uint64(len(want))

	var buf bytes.Buffer
	w, err := NewWriter(&buf, prog, Meta{Name: "skip"})
	if err != nil {
		t.Fatal(err)
	}
	w.BlockRecords = 16 // several blocks, so skips cross block boundaries
	e := emu.New(prog)
	var rec emu.Record
	for !e.Halted {
		e.Step(&rec)
		if err := w.Add(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	// Skip amounts chosen to land mid-block, exactly on a boundary, to
	// consume whole blocks without decoding, and to skip nothing at all.
	for _, skip := range []uint64{0, 1, 5, 16, 17, 40, total - 1, total} {
		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Skip(skip); err != nil {
			t.Fatalf("Skip(%d): %v", skip, err)
		}
		for i := skip; i < total; i++ {
			rec, err := r.Next()
			if err != nil {
				t.Fatalf("skip %d: Next at record %d: %v", skip, i, err)
			}
			if rec != want[i] {
				t.Fatalf("skip %d: record %d mismatch:\n got %+v\nwant %+v", skip, i, rec, want[i])
			}
		}
		if _, err := r.Next(); !errors.Is(err, io.EOF) {
			t.Fatalf("skip %d: Next past end = %v, want io.EOF", skip, err)
		}
	}

	// Skipping beyond the end is structural corruption, not EOF.
	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Skip(total + 1); !errors.Is(err, ErrCorruptTrace) {
		t.Fatalf("Skip past end = %v, want ErrCorruptTrace", err)
	}
}

func TestTruncationDetected(t *testing.T) {
	prog := testProgram()
	data, _ := captureBuf(t, prog, Meta{Name: "trunc"})

	for _, cut := range []int{1, trailerSize, trailerSize + 7, len(data) / 2} {
		trunc := data[:len(data)-cut]

		// OpenFile detects the missing trailer before any decode.
		path := filepath.Join(t.TempDir(), "trunc"+Ext)
		if err := os.WriteFile(path, trunc, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenFile(path); !errors.Is(err, ErrCorruptTrace) {
			t.Fatalf("cut %d: OpenFile = %v, want ErrCorruptTrace", cut, err)
		}

		// A pure stream must fail at the tail, never report clean EOF.
		r, err := NewReader(bytes.NewReader(trunc))
		if err != nil {
			if !errors.Is(err, ErrCorruptTrace) {
				t.Fatalf("cut %d: NewReader = %v, want ErrCorruptTrace", cut, err)
			}
			continue
		}
		for {
			_, err := r.Next()
			if err == nil {
				continue
			}
			if errors.Is(err, io.EOF) {
				t.Fatalf("cut %d: stream reported clean EOF on a truncated trace", cut)
			}
			if !errors.Is(err, ErrCorruptTrace) {
				t.Fatalf("cut %d: Next = %v, want ErrCorruptTrace", cut, err)
			}
			break
		}
	}
}

func TestBitFlipsDetected(t *testing.T) {
	prog := testProgram()
	data, _ := captureBuf(t, prog, Meta{Name: "flip"})

	// Flip one byte at a spread of offsets over the whole file; every
	// decode must end in ErrCorruptTrace or io.EOF (a flip in a length
	// varint can reshape framing, but the CRCs catch the damage) and must
	// never panic or loop forever.
	for off := 0; off < len(data); off += 13 {
		mut := bytes.Clone(data)
		mut[off] ^= 0x41
		r, err := NewReader(bytes.NewReader(mut))
		if err != nil {
			if !errors.Is(err, ErrCorruptTrace) {
				t.Fatalf("offset %d: NewReader = %v, want ErrCorruptTrace", off, err)
			}
			continue
		}
		for i := 0; ; i++ {
			if i > len(data)*8 {
				t.Fatalf("offset %d: decoder failed to terminate", off)
			}
			_, err := r.Next()
			if err == nil {
				continue
			}
			if !errors.Is(err, ErrCorruptTrace) && !errors.Is(err, io.EOF) {
				t.Fatalf("offset %d: Next = %v, want ErrCorruptTrace or io.EOF", off, err)
			}
			break
		}
	}
}

func TestWriterMisuse(t *testing.T) {
	prog := testProgram()
	if _, err := NewWriter(io.Discard, &isa.Program{Name: "empty"}, Meta{}); err == nil {
		t.Fatal("NewWriter accepted an empty program")
	}

	var buf bytes.Buffer
	w, err := NewWriter(&buf, prog, Meta{Name: "misuse"})
	if err != nil {
		t.Fatal(err)
	}
	e := emu.New(prog)
	var first emu.Record
	e.Step(&first)
	if err := w.Add(first); err != nil {
		t.Fatal(err)
	}
	// A record that does not continue the committed path is rejected.
	if err := w.Add(emu.Record{PC: first.NextPC + 5}); err == nil {
		t.Fatal("Add accepted a record off the committed path")
	}
}

func TestCaptureBounds(t *testing.T) {
	// An infinite loop must hit the instruction bound, not hang.
	spin := &isa.Program{
		Name:  "spin",
		Insts: []isa.Inst{{Op: isa.OpJump, Target: 0}},
	}
	if _, err := Capture(context.Background(), io.Discard, spin, Meta{Name: "spin"}, 1000); err == nil {
		t.Fatal("Capture of a non-halting program returned no error")
	}

	// Cancellation stops a long capture.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Capture(ctx, io.Discard, spin, Meta{Name: "spin"}, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("Capture under cancelled ctx = %v, want context.Canceled", err)
	}
}
