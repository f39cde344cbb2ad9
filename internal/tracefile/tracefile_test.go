package tracefile

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"hash/fnv"
	"io"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

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

// walkPath emulates prog to its halt, passing each record through edit
// (when non-nil) before it is hashed, and returns the record count and the
// path digest.
func walkPath(prog *isa.Program, edit func(*emu.Record)) (uint64, pathDigest) {
	e := emu.New(prog)
	var rec emu.Record
	digest := fnvOffset64
	for !e.Halted {
		e.Step(&rec)
		if edit != nil {
			edit(&rec)
		}
		digest.add(&rec)
	}
	return e.Count, digest
}

// forge encodes a recording of prog that declares records and digest, with
// every checksum valid, through the encoder Capture uses.
func forge(t *testing.T, prog *isa.Program, records uint64, digest pathDigest) []byte {
	t.Helper()
	buf, err := encodeHeader(prog, Meta{Name: "forged"})
	if err != nil {
		t.Fatal(err)
	}
	return appendPath(buf, records, digest)
}

// wantCorrupt fails t unless err wraps ErrCorruptTrace and mentions want.
func wantCorrupt(t *testing.T, what string, err error, want string) {
	t.Helper()
	if !errors.Is(err, ErrCorruptTrace) || !strings.Contains(err.Error(), want) {
		t.Fatalf("Load of %s = %v, want ErrCorruptTrace mentioning %q", what, err, want)
	}
}

// TestLoad checks Load as Capture's inverse: a captured recording loads
// with its metadata, its program and its record count.
func TestLoad(t *testing.T) {
	prog := testProgram()
	meta := Meta{Name: "load", InstsPerIter: 11, TargetInsts: 5000}
	data, n := captureBuf(t, prog, meta)
	hdr, got, err := Load(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if hdr.Meta != meta || hdr.Records != n {
		t.Fatalf("Load header = %+v, want %+v with %d records", hdr, meta, n)
	}
	if got.Entry != prog.Entry || !reflect.DeepEqual(got.Insts, prog.Insts) || !reflect.DeepEqual(got.Data, prog.Data) {
		t.Fatal("Load returned a program that differs from the captured one")
	}
	if len(data) > 1024 {
		t.Fatalf("recording of a %d-instruction program is %d bytes, want under 1 KB", len(prog.Insts), len(data))
	}
}

// TestPathDigestIsFNV1a holds pathDigest to hash/fnv's 64-bit FNV-1a over
// the documented 13 bytes per record, so the digest is the fixed function
// the format names and not whatever add happens to compute.
func TestPathDigestIsFNV1a(t *testing.T) {
	ref := fnv.New64a()
	var b [13]byte
	_, got := walkPath(testProgram(), func(rec *emu.Record) {
		binary.LittleEndian.PutUint32(b[0:], rec.PC)
		binary.LittleEndian.PutUint32(b[4:], rec.NextPC)
		binary.LittleEndian.PutUint32(b[8:], rec.Addr)
		b[12] = 0
		if rec.Taken {
			b[12] |= 1
		}
		if rec.Halted {
			b[12] |= 2
		}
		ref.Write(b[:])
	})
	if uint64(got) != ref.Sum64() {
		t.Fatalf("path digest %#x, FNV-1a of the same bytes %#x", uint64(got), ref.Sum64())
	}
}

// TestLoadRejectsOffPath forges recordings whose every checksum holds but
// whose count or digest the embedded program's path does not match.
func TestLoadRejectsOffPath(t *testing.T) {
	prog := testProgram()
	n, digest := walkPath(prog, nil)
	if _, _, err := Load(bytes.NewReader(forge(t, prog, n, digest))); err != nil {
		t.Fatalf("Load of the program's own path: %v", err)
	}

	// The third loop iteration's load address moved by one word: the same
	// count, another path.
	loads := 0
	moved, movedDigest := walkPath(prog, func(rec *emu.Record) {
		if rec.Inst.Op == isa.OpLoad {
			if loads++; loads == 3 {
				rec.Addr++
			}
		}
	})
	if moved != n || loads < 3 {
		t.Fatalf("moved path has %d records and %d loads, want %d records and at least 3 loads", moved, loads, n)
	}
	_, _, err := Load(bytes.NewReader(forge(t, prog, n, movedDigest)))
	wantCorrupt(t, "a moved load address", err, "path digest mismatch")

	_, _, err = Load(bytes.NewReader(forge(t, prog, n-1, digest)))
	wantCorrupt(t, "a recording that stops before the halt", err, "does not halt")
	_, _, err = Load(bytes.NewReader(forge(t, prog, n+1, digest)))
	wantCorrupt(t, "a recording that runs past the halt", err, "halts after")
}

// TestLoadBoundsRecords checks the declared record count's bounds: a
// program that never halts fails after the declared steps, and a count
// above maxRecords fails before any step is taken.
func TestLoadBoundsRecords(t *testing.T) {
	spin := &isa.Program{Name: "spin", Insts: []isa.Inst{{Op: isa.OpJump, Target: 0}}}
	start := time.Now()
	_, _, err := Load(bytes.NewReader(forge(t, spin, 1_000_000, fnvOffset64)))
	wantCorrupt(t, "a non-halting program declaring 1e6 records", err, "does not halt")
	if d := time.Since(start); d > 10*time.Second {
		t.Fatalf("rejecting a non-halting program declaring 1e6 records took %v", d)
	}

	// A one-instruction program that halts at once: were the count not
	// refused up front, the emulation would end on "halts after".
	halt := &isa.Program{Name: "halt", Insts: []isa.Inst{{Op: isa.OpHalt}}}
	_, _, err = Load(bytes.NewReader(forge(t, halt, maxRecords+1, fnvOffset64)))
	wantCorrupt(t, "a count above maxRecords", err, "want 1 to")
}

// TestLoadRejectsEmpty checks that neither an empty file nor a recording
// of no records loads.
func TestLoadRejectsEmpty(t *testing.T) {
	_, _, err := Load(bytes.NewReader(nil))
	wantCorrupt(t, "an empty file", err, "bad magic")
	_, _, err = Load(bytes.NewReader(forge(t, testProgram(), 0, fnvOffset64)))
	wantCorrupt(t, "a recording of 0 records", err, "declares 0 records")
}

// TestLoadRejectsVersion1 loads a version-1 recording (the record-stream
// format, captured from testProgram before version 2): it must be refused
// by its version, with the advice to record it again.
func TestLoadRejectsVersion1(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "version1.tptrace"))
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = Load(bytes.NewReader(data))
	wantCorrupt(t, "a version-1 recording", err, "format version 1;")
	if !strings.Contains(err.Error(), "record the workload again") {
		t.Fatalf("version error %q does not say to record again", err)
	}

	// A flipped version byte in a version-2 file is damage, not another
	// version: the header's own checksum reports it first.
	data, _ = captureBuf(t, testProgram(), Meta{Name: "v2"})
	_, lenBytes := binary.Uvarint(data[len(fileMagic):])
	data[len(fileMagic)+lenBytes] ^= 0x01 // the header's first byte
	_, _, err = Load(bytes.NewReader(data))
	wantCorrupt(t, "a version-2 file with its version byte flipped", err, "header checksum mismatch")
}

// TestLoadBoundsDataPages forges a recording whose header is a few KB but
// whose data image puts one word on each of 2,000 pages: building the
// emulator's memory from it would allocate 64 MB. Load must reject it with
// ErrCorruptTrace before any memory is built, allocating under 1 MB, and a
// recording whose image spans exactly the bound must still load.
func TestLoadBoundsDataPages(t *testing.T) {
	recording := func(pages int) []byte {
		prog := &isa.Program{Name: "paged", Insts: []isa.Inst{{Op: isa.OpHalt}}, Data: map[uint32]int64{}}
		for i := 0; i < pages; i++ {
			prog.Data[uint32(i)<<isa.PageShift] = int64(i + 1)
		}
		n, digest := walkPath(prog, nil)
		return forge(t, prog, n, digest)
	}
	forged := recording(2000)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := Load(bytes.NewReader(forged))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrCorruptTrace) {
		t.Fatalf("Load of a %d-byte recording spanning 2000 data pages = %v, want ErrCorruptTrace", len(forged), err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		t.Fatalf("rejecting a %d-byte recording allocated %d bytes, want under 1 MB", len(forged), alloc)
	}
	if _, prog, err := Load(bytes.NewReader(recording(maxDataPages))); err != nil || len(prog.Data) != maxDataPages {
		t.Fatalf("Load of an image spanning %d pages: %v", maxDataPages, err)
	}
}

// TestTruncationDetected cuts a recording at every length short of whole,
// and lengthens it by one byte.
func TestTruncationDetected(t *testing.T) {
	data, _ := captureBuf(t, testProgram(), Meta{Name: "trunc"})
	for n := 0; n < len(data); n++ {
		if _, _, err := Load(bytes.NewReader(data[:n])); !errors.Is(err, ErrCorruptTrace) {
			t.Fatalf("first %d of %d bytes: Load = %v, want ErrCorruptTrace", n, len(data), err)
		}
	}
	if _, _, err := Load(bytes.NewReader(append(data, 0))); !errors.Is(err, ErrCorruptTrace) {
		t.Fatalf("a recording with a byte appended: Load = %v, want ErrCorruptTrace", err)
	}
}

// TestBitFlipsDetected flips one byte at every offset of a recording.
func TestBitFlipsDetected(t *testing.T) {
	data, _ := captureBuf(t, testProgram(), Meta{Name: "flip"})
	for off := range data {
		mut := bytes.Clone(data)
		mut[off] ^= 0x41
		if _, _, err := Load(bytes.NewReader(mut)); !errors.Is(err, ErrCorruptTrace) {
			t.Fatalf("offset %d of %d: Load = %v, want ErrCorruptTrace", off, len(data), err)
		}
	}
}

// TestRoundTripSmallBlocks round-trips the shortest recordings: a lone
// halt (one record) and the test loop cut to 1..8 iterations, so Load's
// emulate-to-count check ends on the halt for paths only a few records long.
func TestRoundTripSmallBlocks(t *testing.T) {
	progs := []*isa.Program{{Name: "halt", Insts: []isa.Inst{{Op: isa.OpHalt}}}}
	for iters := int64(1); iters <= 8; iters++ {
		prog := testProgram()
		prog.Insts[0].Imm = iters
		progs = append(progs, prog)
	}
	for i, prog := range progs {
		want, _ := walkPath(prog, nil)
		data, n := captureBuf(t, prog, Meta{Name: "small"})
		if n != want {
			t.Fatalf("program %d: Capture reported %d records, emulator committed %d", i, n, want)
		}
		hdr, got, err := Load(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("program %d (%d records): Load: %v", i, n, err)
		}
		if hdr.Records != n || !reflect.DeepEqual(got.Insts, prog.Insts) || !maps.Equal(got.Data, prog.Data) {
			t.Fatalf("program %d (%d records): Load returned %d records or another program", i, n, hdr.Records)
		}
	}
}

// TestWriterMisuse checks that Capture refuses what it cannot record, an
// empty program or a name over maxNameLen, and writes nothing when it does.
func TestWriterMisuse(t *testing.T) {
	var buf bytes.Buffer
	if _, err := Capture(context.Background(), &buf, &isa.Program{Name: "empty"}, Meta{}, 0); err == nil {
		t.Fatal("Capture accepted an empty program")
	}
	long := Meta{Name: strings.Repeat("n", maxNameLen+1)}
	if _, err := Capture(context.Background(), &buf, testProgram(), long, 0); err == nil {
		t.Fatalf("Capture accepted a %d-byte name", len(long.Name))
	}
	if buf.Len() != 0 {
		t.Fatalf("refused captures wrote %d bytes", buf.Len())
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
