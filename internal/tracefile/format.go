// Package tracefile defines the .tptrace recorded-trace format and its
// streaming codec: a compact, versioned on-disk representation of one
// workload's committed execution path, captured from the architectural
// emulator (Capture) and checked against that same program when it is
// loaded back (Load). A loaded recording is an ordinary program: the
// simulator verifies it against the emulator like any other.
//
// A trace file decouples workload acquisition from the in-process program
// generators: a directory of captured traces is a corpus that Sweep,
// cmd/experiments -corpus and the tracepd wire consume interchangeably with
// generated benchmarks.
//
// # Layout
//
//	magic "TPTRACE1"
//	header   uvarint length | header bytes | CRC32-C
//	           version, flags, name, InstsPerIter, TargetInsts,
//	           program image (entry, instructions, initial data)
//	blocks   "TPBK" | first-record index | record count | start PC |
//	           base address | payload length | CRC32-C | payload
//	trailer  "TPEN" | uint64 total records | CRC32-C          (fixed 16 bytes)
//
// The static program image is small and lives in the header; the dynamic
// committed path — the part that grows with run length — is what streams.
// Records carry only what the program cannot predict: one bit per
// conditional-branch outcome, a zigzag-varint address delta per memory
// access, and a varint target per indirect control transfer. Everything
// else (opcodes, fall-through PCs, direct targets) is reconstructed by
// walking the embedded program, so a record typically costs a fraction of a
// byte.
//
// Each block header carries the absolute record index, the walk PC and the
// address-delta base at its start, which the decoder checks against the
// path it has rebuilt so far, and a CRC over the header fields and the
// payload. A missing or mismatched trailer marks a truncated capture. Load
// then emulates the embedded program alongside the decoded records, so a
// recording whose every checksum holds but whose path the program does not
// take is rejected too. All these errors wrap ErrCorruptTrace.
package tracefile

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"tracep/internal/isa"
)

// Ext is the conventional file extension of recorded traces.
const Ext = ".tptrace"

// Version is the current format version. Readers reject files written by a
// newer major format.
const Version = 1

// ErrCorruptTrace is the sentinel wrapped by every decode error: bad magic,
// header or block CRC mismatch, truncated block, impossible field values, a
// missing trailer, or (from Load) a record off the program's own path. Test
// with errors.Is.
var ErrCorruptTrace = errors.New("corrupt trace file")

var (
	fileMagic  = [8]byte{'T', 'P', 'T', 'R', 'A', 'C', 'E', '1'}
	blockMagic = [4]byte{'T', 'P', 'B', 'K'}
	endMagic   = [4]byte{'T', 'P', 'E', 'N'}
)

// crcTable is the Castagnoli polynomial table shared by all checksums.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Decode sanity bounds: a field claiming more than these is corrupt, which
// keeps adversarial inputs (fuzzing, truncated downloads) from provoking
// huge allocations before the CRC check can reject them.
const (
	maxNameLen      = 1 << 12
	maxHeaderBytes  = 1 << 28
	maxProgInsts    = 1 << 24
	maxDataEntries  = 1 << 24
	maxBlockRecords = 1 << 22
	maxPayloadBytes = 1 << 26
)

// trailerSize is the fixed byte length of the end-of-stream trailer:
// 4 magic + 8 record count + 4 CRC.
const trailerSize = 16

// DefaultBlockRecords is the number of committed records per sync block.
// Larger blocks amortise header overhead; smaller blocks pin a checksum
// failure to fewer records. 4096 records is a few KB of payload on typical
// workloads.
const DefaultBlockRecords = 4096

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

// Header describes an opened trace file.
type Header struct {
	Meta
	// FormatVersion is the file's format version.
	FormatVersion uint32
	// Records is the total committed-record count, declared by the trailer.
	// Load reports it; a Reader reports 0 until Next has returned io.EOF.
	Records uint64
}

// corrupt formats a structural decode error wrapping ErrCorruptTrace.
func corrupt(format string, args ...any) error {
	return fmt.Errorf("tracefile: %w: %s", ErrCorruptTrace, fmt.Sprintf(format, args...))
}

// zigzag encodes a signed delta as an unsigned varint-friendly value.
func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

// unzigzag inverts zigzag.
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// byteReader adapts a byte slice to sequential varint decoding with
// explicit exhaustion errors (bytes.Reader would allocate via interface
// conversion on every refill and cannot report *what* ran out).
type byteReader struct {
	buf []byte
	pos int
}

func (b *byteReader) len() int { return len(b.buf) - b.pos }

func (b *byteReader) byte() (byte, error) {
	if b.pos >= len(b.buf) {
		return 0, corrupt("section exhausted")
	}
	c := b.buf[b.pos]
	b.pos++
	return c, nil
}

func (b *byteReader) uvarint() (uint64, error) {
	var x uint64
	var s uint
	for i := 0; ; i++ {
		c, err := b.byte()
		if err != nil {
			return 0, err
		}
		if i == binary.MaxVarintLen64 {
			return 0, corrupt("varint overflow")
		}
		if c < 0x80 {
			if i == binary.MaxVarintLen64-1 && c > 1 {
				return 0, corrupt("varint overflow")
			}
			return x | uint64(c)<<s, nil
		}
		x |= uint64(c&0x7f) << s
		s += 7
	}
}

func (b *byteReader) varint() (int64, error) {
	u, err := b.uvarint()
	return unzigzag(u), err
}

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
	for i := 1; i < len(addrs); i++ {
		for j := i; j > 0 && addrs[j] < addrs[j-1]; j-- {
			addrs[j], addrs[j-1] = addrs[j-1], addrs[j]
		}
	}
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
	entry, err := br.uvarint()
	if err != nil {
		return nil, err
	}
	n, err := br.uvarint()
	if err != nil {
		return nil, err
	}
	if n > maxProgInsts {
		return nil, corrupt("program claims %d instructions", n)
	}
	prog := &isa.Program{Name: name, Entry: uint32(entry)}
	// Each instruction is at least 6 bytes; cap the initial allocation by
	// what the header can actually hold.
	capHint := int(n)
	if avail := br.len() / 6; capHint > avail {
		capHint = avail
	}
	prog.Insts = make([]isa.Inst, 0, capHint)
	for i := uint64(0); i < n; i++ {
		op, err1 := br.byte()
		rd, err2 := br.byte()
		rs1, err3 := br.byte()
		rs2, err4 := br.byte()
		imm, err5 := br.varint()
		tgt, err6 := br.uvarint()
		if err := firstErr(err1, err2, err3, err4, err5, err6); err != nil {
			return nil, err
		}
		if isa.Op(op) > isa.OpHalt {
			return nil, corrupt("instruction %d has unknown opcode %d", i, op)
		}
		if rd >= isa.NumRegs || rs1 >= isa.NumRegs || rs2 >= isa.NumRegs {
			return nil, corrupt("instruction %d names register beyond r%d", i, isa.NumRegs-1)
		}
		prog.Insts = append(prog.Insts, isa.Inst{
			Op: isa.Op(op), Rd: isa.Reg(rd), Rs1: isa.Reg(rs1), Rs2: isa.Reg(rs2),
			Imm: imm, Target: uint32(tgt),
		})
	}
	if entry > uint64(len(prog.Insts)) {
		return nil, corrupt("entry PC %d beyond program of %d instructions", entry, len(prog.Insts))
	}
	nd, err := br.uvarint()
	if err != nil {
		return nil, err
	}
	if nd > maxDataEntries {
		return nil, corrupt("data image claims %d entries", nd)
	}
	prog.Data = make(map[uint32]int64)
	addr := uint32(0)
	for i := uint64(0); i < nd; i++ {
		d, err1 := br.uvarint()
		v, err2 := br.varint()
		if err := firstErr(err1, err2); err != nil {
			return nil, err
		}
		addr += uint32(d)
		prog.Data[addr] = v
	}
	return prog, nil
}

func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
