// Package tracefile defines the .tptrace recorded-trace format: a workload's
// program together with a record of the committed execution path it takes,
// captured from the architectural emulator (Capture) and held to that same
// program when it is loaded back (Load). A loaded recording is an ordinary
// program: the simulator verifies it against the emulator like any other.
//
// A trace file decouples workload acquisition from the in-process program
// generators: a directory of captured traces is a corpus that Sweep,
// cmd/experiments -corpus and the tracepd wire consume interchangeably with
// generated benchmarks.
//
// # Layout (version 2)
//
//	magic    "TPTRACE1"
//	header   uvarint length | header bytes | CRC32-C
//	           version, flags, name, InstsPerIter, TargetInsts,
//	           program image (entry, instructions, initial data)
//	path     uint64 committed-record count | uint64 path digest
//	checksum CRC32-C over every byte before it
//
// The ISA has no input operation and the emulator is deterministic, so the
// program fixes every committed record: the file stores the program and not
// the path. What it keeps of the path is an independent record to audit
// against — the number of records to the halt and a digest of them (see
// pathDigest). Load emulates the program for at most the declared count of
// steps; it must halt on the last one, and the digest must match. A
// recording its program no longer reproduces (a corrupted image, or an
// emulator whose semantics changed since the capture) fails there.
//
// The header keeps its own CRC so that its version can be trusted before
// the rest of the file is parsed: a file of any other version is refused
// by name, and its workload must be recorded again. All load errors wrap
// ErrCorruptTrace.
package tracefile

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"slices"

	"tracep/internal/emu"
	"tracep/internal/isa"
)

// Ext is the conventional file extension of recorded traces.
const Ext = ".tptrace"

// Version is the format version Capture writes and the only one Load
// accepts.
const Version = 2

// ErrCorruptTrace is the sentinel wrapped by every load error: bad magic, a
// checksum mismatch, a truncated file, an unsupported version, impossible
// field values, or a program whose path does not match the recorded count
// and digest. Test with errors.Is.
var ErrCorruptTrace = errors.New("corrupt trace file")

var fileMagic = [8]byte{'T', 'P', 'T', 'R', 'A', 'C', 'E', '1'}

// crcTable is the Castagnoli polynomial table shared by both checksums.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// tailSize is the fixed byte length after the header's CRC: 8 record
// count + 8 path digest + 4 file CRC.
const tailSize = 20

// Decode sanity bounds: a field claiming more than these is corrupt, which
// keeps adversarial inputs (fuzzing, truncated downloads) from provoking
// huge allocations.
const (
	maxNameLen     = 1 << 12
	maxHeaderBytes = 1 << 28
	maxProgInsts   = 1 << 24
	maxDataEntries = 1 << 24
)

// maxRecords bounds the committed-record count a recording may declare, and
// so the steps Load emulates: a worst-case load, of a program that never
// halts, runs 2^32 steps before failing, about 90 s at the ~22 ns per
// step Load takes (Intel Xeon). The count costs 8 bytes whatever its
// value, but a short file could claim billions of records in version 1
// too, which encoded unconditional instructions in zero bits. Capture
// stops at the same bound, so every file it writes loads.
const maxRecords = 1 << 32

// maxFileBytes bounds what Load reads: the largest header and its framing.
const maxFileBytes = len(fileMagic) + binary.MaxVarintLen64 + maxHeaderBytes + 4 + tailSize

// maxDataPages bounds the distinct memory pages (1<<isa.PageShift words,
// 32 KB each) the data image spans, because Load builds the emulator's
// memory from it a whole page at a time: without it, a few KB of header
// with words one page apart make Load allocate tens of MB. Suite and
// scenario programs embed no data image at all (stores fault pages in
// at run time, at most 3 pages over a 300k-instruction run), and the
// hand-built images in tests span one page, so 64 pages (256 Ki words,
// 2 MB at load) leaves ample room for any image this repo writes.
const maxDataPages = 64

// Meta is the capture-time metadata carried in a trace file's header.
type Meta struct {
	// Name labels the workload; recorded Benchmarks inherit it, so it keys
	// ResultSet cells, warm-up overrides and baseline diffs.
	Name string
	// InstsPerIter preserves the source Benchmark's scaling estimate.
	InstsPerIter int64
	// TargetInsts is the dynamic instruction budget the capture was sized
	// for (the capture itself always runs to architectural halt).
	TargetInsts uint64
}

// Header describes a loaded trace file.
type Header struct {
	Meta
	// Records is the committed-record count the recording declares, which
	// Load holds the program to: the program halts on exactly that step.
	Records uint64
}

// corrupt formats a structural decode error wrapping ErrCorruptTrace.
func corrupt(format string, args ...any) error {
	return fmt.Errorf("tracefile: %w: %s", ErrCorruptTrace, fmt.Sprintf(format, args...))
}

// pathDigest is a 64-bit FNV-1a hash of a committed path, fixed and
// unseeded so that a digest written on one machine checks on any other.
// Each record contributes 13 bytes: its PC, NextPC and Addr as 4
// little-endian bytes each, then one byte holding Taken (bit 0) and Halted
// (bit 1) — the fields that place the record on the program's path.
type pathDigest uint64

const (
	fnvOffset64 pathDigest = 14695981039346656037
	fnvPrime64             = 1099511628211
)

// add folds one committed record into the digest.
func (d *pathDigest) add(rec *emu.Record) {
	h := uint64(*d)
	for _, w := range [3]uint32{rec.PC, rec.NextPC, rec.Addr} {
		for shift := 0; shift < 32; shift += 8 {
			h = (h ^ uint64(byte(w>>shift))) * fnvPrime64
		}
	}
	var flags uint64
	if rec.Taken {
		flags = 1
	}
	if rec.Halted {
		flags |= 2
	}
	*d = pathDigest((h ^ flags) * fnvPrime64)
}

// encodeHeader lays out the magic, the CRC'd header and the embedded
// program image: every byte of a recording before its path.
func encodeHeader(prog *isa.Program, meta Meta) ([]byte, error) {
	if prog == nil || len(prog.Insts) == 0 {
		return nil, errors.New("tracefile: cannot write a trace for an empty program")
	}
	if len(meta.Name) > maxNameLen {
		return nil, fmt.Errorf("tracefile: name of %d bytes exceeds the format's %d-byte limit", len(meta.Name), maxNameLen)
	}
	hdr := make([]byte, 0, 64+8*len(prog.Insts))
	hdr = binary.AppendUvarint(hdr, Version)
	hdr = binary.AppendUvarint(hdr, 0) // flags, reserved
	hdr = binary.AppendUvarint(hdr, uint64(len(meta.Name)))
	hdr = append(hdr, meta.Name...)
	hdr = binary.AppendUvarint(hdr, zigzag(meta.InstsPerIter))
	hdr = binary.AppendUvarint(hdr, meta.TargetInsts)
	hdr = encodeProgram(hdr, prog)

	buf := make([]byte, 0, len(fileMagic)+binary.MaxVarintLen64+len(hdr)+4+tailSize)
	buf = append(buf, fileMagic[:]...)
	buf = binary.AppendUvarint(buf, uint64(len(hdr)))
	buf = append(buf, hdr...)
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(hdr, crcTable)), nil
}

// appendPath completes a recording begun by encodeHeader with the
// committed path's record count and digest, then the file CRC.
func appendPath(buf []byte, records uint64, digest pathDigest) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, records)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(digest))
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, crcTable))
}

// decodeHeader parses the header bytes, after their CRC has been checked.
// The version comes first, so a file of another version is refused by name
// before anything else of it is read.
func decodeHeader(hdr []byte) (Meta, *isa.Program, error) {
	br := &byteReader{buf: hdr}
	if version := br.uvarint(); br.err == nil && version != Version {
		return Meta{}, nil, corrupt("format version %d; this build loads version %d only: record the workload again", version, Version)
	}
	if flags := br.uvarint(); flags != 0 {
		return Meta{}, nil, corrupt("unknown header flags %#x", flags)
	}
	nameLen := br.uvarint()
	if nameLen > maxNameLen {
		return Meta{}, nil, corrupt("name claims %d bytes", nameLen)
	}
	var meta Meta
	meta.Name = string(br.take(int(nameLen)))
	meta.InstsPerIter = br.varint()
	meta.TargetInsts = br.uvarint()
	prog, err := decodeProgram(br, meta.Name)
	if err != nil {
		return Meta{}, nil, err
	}
	if len(br.buf) != 0 {
		return Meta{}, nil, corrupt("%d bytes of trailing garbage in header", len(br.buf))
	}
	return meta, prog, nil
}

// zigzag encodes a signed delta as an unsigned varint-friendly value.
func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

// unzigzag inverts zigzag.
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// byteReader decodes a byte slice front to back. Its first exhaustion or
// varint overflow is kept in err and every later read returns zero, so a
// decoder checks err once per section rather than after every field.
type byteReader struct {
	buf []byte
	err error
}

func (b *byteReader) fail() {
	if b.err == nil {
		b.err = corrupt("header truncated or holding an overlong varint")
	}
	b.buf = nil
}

// take returns the next n bytes, or nil if fewer remain.
func (b *byteReader) take(n int) []byte {
	if n > len(b.buf) {
		b.fail()
		return nil
	}
	p := b.buf[:n]
	b.buf = b.buf[n:]
	return p
}

func (b *byteReader) uvarint() uint64 {
	x, n := binary.Uvarint(b.buf)
	if n <= 0 {
		b.fail()
		return 0
	}
	b.buf = b.buf[n:]
	return x
}

func (b *byteReader) varint() int64 { return unzigzag(b.uvarint()) }

// encodeProgram appends the program image to buf.
func encodeProgram(buf []byte, prog *isa.Program) []byte {
	buf = binary.AppendUvarint(buf, uint64(prog.Entry))
	buf = binary.AppendUvarint(buf, uint64(len(prog.Insts)))
	for _, in := range prog.Insts {
		buf = append(buf, byte(in.Op), byte(in.Rd), byte(in.Rs1), byte(in.Rs2))
		buf = binary.AppendUvarint(buf, zigzag(in.Imm))
		buf = binary.AppendUvarint(buf, uint64(in.Target))
	}
	addrs := make([]uint32, 0, len(prog.Data))
	for a := range prog.Data { //tracep:orderinvariant sorted below
		addrs = append(addrs, a)
	}
	// Sort addresses so encoding is deterministic and deltas stay small.
	slices.Sort(addrs)
	buf = binary.AppendUvarint(buf, uint64(len(addrs)))
	prev := uint32(0)
	for _, a := range addrs {
		buf = binary.AppendUvarint(buf, uint64(a-prev))
		buf = binary.AppendUvarint(buf, zigzag(prog.Data[a]))
		prev = a
	}
	return buf
}

// decodeProgram reads the program image, validating every field the
// simulator will later index structures by (register numbers, opcode range).
func decodeProgram(br *byteReader, name string) (*isa.Program, error) {
	entry, n := br.uvarint(), br.uvarint()
	if n > maxProgInsts {
		return nil, corrupt("program claims %d instructions", n)
	}
	// Each instruction is at least 6 bytes; cap the initial allocation by
	// what the header can actually hold.
	prog := &isa.Program{Name: name, Entry: uint32(entry), Insts: make([]isa.Inst, 0, min(n, uint64(len(br.buf)/6)))}
	for i := uint64(0); i < n && br.err == nil; i++ {
		f := br.take(4)
		imm, tgt := br.varint(), br.uvarint()
		if br.err != nil {
			break
		}
		op, rd, rs1, rs2 := isa.Op(f[0]), isa.Reg(f[1]), isa.Reg(f[2]), isa.Reg(f[3])
		if op > isa.OpHalt {
			return nil, corrupt("instruction %d has unknown opcode %d", i, op)
		}
		if rd >= isa.NumRegs || rs1 >= isa.NumRegs || rs2 >= isa.NumRegs {
			return nil, corrupt("instruction %d names register beyond r%d", i, isa.NumRegs-1)
		}
		prog.Insts = append(prog.Insts, isa.Inst{Op: op, Rd: rd, Rs1: rs1, Rs2: rs2, Imm: imm, Target: uint32(tgt)})
	}
	nd := br.uvarint()
	if br.err != nil {
		return nil, br.err
	}
	if entry > uint64(len(prog.Insts)) {
		return nil, corrupt("entry PC %d beyond program of %d instructions", entry, len(prog.Insts))
	}
	if nd > maxDataEntries {
		return nil, corrupt("data image claims %d entries", nd)
	}
	prog.Data = make(map[uint32]int64)
	addr := uint32(0)
	// Count page changes along the image: the encoder sorts addresses, so for
	// its images this is the distinct page count, and for any other order it
	// can only overcount.
	pages, page := 0, uint32(0)
	for i := uint64(0); i < nd && br.err == nil; i++ {
		addr += uint32(br.uvarint())
		if p := addr >> isa.PageShift; i == 0 || p != page {
			if pages++; pages > maxDataPages {
				return nil, corrupt("data image spans more than %d pages", maxDataPages)
			}
			page = p
		}
		prog.Data[addr] = br.varint()
	}
	return prog, br.err
}
