package tracefile

import (
	"bufio"
	"encoding/binary"
	"hash/crc32"
	"io"

	"tracep/internal/emu"
	"tracep/internal/isa"
)

// Reader streams committed records out of a .tptrace file. It decodes one
// sync block at a time into a reusable chunk, rebuilding each record by
// walking the embedded program. Next returns io.EOF after the last record,
// and every structural problem wraps ErrCorruptTrace. Load is the one
// caller outside tests: it reads a recording through once, at load.
type Reader struct {
	br *bufio.Reader

	hdr  Header
	prog *isa.Program

	// Decoded-chunk state.
	recs []emu.Record
	pos  int

	// Walk state across blocks.
	nextIndex uint64 // absolute index of the next record to decode
	walkPC    uint32
	prevAddr  uint32
	halted    bool
	err       error

	// Reusable decode scratch.
	payload []byte
	deltas  []int64
	targets []uint32
}

// parseTrailer checks the fixed end-of-stream trailer and returns the total
// record count it declares.
func parseTrailer(trailer [trailerSize]byte) (uint64, error) {
	if [4]byte(trailer[:4]) != endMagic {
		return 0, corrupt("missing end-of-stream trailer (truncated capture?)")
	}
	if crc32.Checksum(trailer[4:12], crcTable) != binary.LittleEndian.Uint32(trailer[12:16]) {
		return 0, corrupt("trailer checksum mismatch")
	}
	return binary.LittleEndian.Uint64(trailer[4:12]), nil
}

// NewReader decodes a trace from a byte stream: the header is parsed
// immediately; the trailer is verified when the stream reaches it. Load
// wraps it to decode a whole recording and hold it to its program.
func NewReader(rd io.Reader) (*Reader, error) {
	r := &Reader{br: bufio.NewReaderSize(rd, 1<<16)}
	if err := r.readHeader(); err != nil {
		return nil, err
	}
	r.walkPC = r.prog.Entry
	return r, nil
}

// Load decodes a whole recording from rd and holds it to its own program —
// Capture's inverse. The embedded program is emulated from its entry, one
// step per decoded record: each record's PC, NextPC, Addr, Taken and Halted
// must match the emulator's, and the stream must end exactly at the halt.
// Anything else, structural or a path the program does not take, fails
// with an error wrapping ErrCorruptTrace. The returned Header reports the
// record count.
func Load(rd io.Reader) (Header, *isa.Program, error) {
	r, err := NewReader(rd)
	if err != nil {
		return Header{}, nil, err
	}
	e := emu.New(r.prog)
	var want emu.Record
	for {
		rec, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return Header{}, nil, err
		}
		e.Step(&want)
		if rec.PC != want.PC || rec.NextPC != want.NextPC || rec.Addr != want.Addr ||
			rec.Taken != want.Taken || rec.Halted != want.Halted {
			return Header{}, nil, corrupt("record %d at pc %d leaves the program's path: recorded next pc %d, addr %d, taken %v; program next pc %d, addr %d, taken %v",
				e.Count-1, rec.PC, rec.NextPC, rec.Addr, rec.Taken, want.NextPC, want.Addr, want.Taken)
		}
	}
	if !e.Halted {
		return Header{}, nil, corrupt("recording ends after %d records, before the program halts", e.Count)
	}
	return r.hdr, r.prog, nil
}

func (r *Reader) readHeader() error {
	var magic [8]byte
	if _, err := io.ReadFull(r.br, magic[:]); err != nil {
		return corrupt("reading magic: %v", err)
	}
	if magic != fileMagic {
		return corrupt("bad magic %q", magic[:])
	}
	hdrLen, err := binary.ReadUvarint(r.br)
	if err != nil {
		return corrupt("reading header length: %v", err)
	}
	if hdrLen > maxHeaderBytes {
		return corrupt("header claims %d bytes", hdrLen)
	}
	hdrBytes := make([]byte, hdrLen)
	if _, err := io.ReadFull(r.br, hdrBytes); err != nil {
		return corrupt("reading header: %v", err)
	}
	var crcBuf [4]byte
	if _, err := io.ReadFull(r.br, crcBuf[:]); err != nil {
		return corrupt("reading header checksum: %v", err)
	}
	if crc32.Checksum(hdrBytes, crcTable) != binary.LittleEndian.Uint32(crcBuf[:]) {
		return corrupt("header checksum mismatch")
	}

	br := &byteReader{buf: hdrBytes}
	version, err := br.uvarint()
	if err != nil {
		return err
	}
	if version == 0 || version > Version {
		return corrupt("unsupported format version %d (reader supports up to %d)", version, Version)
	}
	flags, err := br.uvarint()
	if err != nil {
		return err
	}
	if flags != 0 {
		return corrupt("unknown header flags %#x", flags)
	}
	nameLen, err := br.uvarint()
	if err != nil {
		return err
	}
	if nameLen > maxNameLen {
		return corrupt("name claims %d bytes", nameLen)
	}
	if int(nameLen) > br.len() {
		return corrupt("name of %d bytes overruns the header", nameLen)
	}
	name := string(hdrBytes[br.pos : br.pos+int(nameLen)])
	br.pos += int(nameLen)
	ipi, err := br.varint()
	if err != nil {
		return err
	}
	target, err := br.uvarint()
	if err != nil {
		return err
	}
	prog, err := decodeProgram(br, name)
	if err != nil {
		return err
	}
	if br.len() != 0 {
		return corrupt("%d bytes of trailing garbage in header", br.len())
	}
	r.hdr = Header{
		Meta:          Meta{Name: name, InstsPerIter: ipi, TargetInsts: target},
		FormatVersion: uint32(version),
	}
	r.prog = prog
	return nil
}

// Header returns the file's metadata. Records becomes valid once Next has
// returned io.EOF.
func (r *Reader) Header() Header { return r.hdr }

// Program returns the embedded program image. It is shared, not copied:
// callers must treat it as immutable (the simulator already does).
func (r *Reader) Program() *isa.Program { return r.prog }

// Next returns the next committed record, io.EOF at the verified end of the
// trace, or an error wrapping ErrCorruptTrace. Errors are sticky.
func (r *Reader) Next() (emu.Record, error) {
	if r.pos == len(r.recs) {
		if err := r.refill(); err != nil {
			return emu.Record{}, err
		}
	}
	rec := r.recs[r.pos]
	r.pos++
	return rec, nil
}

// refill decodes the next block into r.recs. At the trailer it verifies the
// declared record count and returns io.EOF. Errors are sticky.
func (r *Reader) refill() error {
	if r.err == nil {
		r.err = r.refillOnce()
	}
	return r.err
}

func (r *Reader) refillOnce() error {
	var magic [4]byte
	if _, err := io.ReadFull(r.br, magic[:]); err != nil {
		return corrupt("reading block magic: %v", err)
	}
	if magic == endMagic {
		var trailer [trailerSize]byte
		copy(trailer[:4], magic[:])
		if _, err := io.ReadFull(r.br, trailer[4:]); err != nil {
			return corrupt("reading trailer: %v", err)
		}
		total, err := parseTrailer(trailer)
		if err != nil {
			return err
		}
		if total != r.nextIndex {
			return corrupt("trailer declares %d records but %d were present", total, r.nextIndex)
		}
		r.hdr.Records = total
		return io.EOF
	}
	if magic != blockMagic {
		return corrupt("bad block magic %q", magic[:])
	}

	var fields [5 * binary.MaxVarintLen64]byte
	nf := 0
	readField := func() (uint64, error) {
		start := nf
		for {
			c, err := r.br.ReadByte()
			if err != nil {
				return 0, corrupt("reading block header: %v", err)
			}
			if nf >= len(fields) {
				return 0, corrupt("block header varint overflow")
			}
			fields[nf] = c
			nf++
			if c < 0x80 {
				break
			}
		}
		v, n := binary.Uvarint(fields[start:nf])
		if n <= 0 {
			return 0, corrupt("block header varint overflow")
		}
		return v, nil
	}
	firstIndex, err1 := readField()
	nrec, err2 := readField()
	startPC, err3 := readField()
	baseAddr, err4 := readField()
	payloadLen, err5 := readField()
	if err := firstErr(err1, err2, err3, err4, err5); err != nil {
		return err
	}
	if nrec == 0 || nrec > maxBlockRecords {
		return corrupt("block claims %d records", nrec)
	}
	if payloadLen > maxPayloadBytes {
		return corrupt("block claims %d payload bytes", payloadLen)
	}
	var crcBuf [4]byte
	if _, err := io.ReadFull(r.br, crcBuf[:]); err != nil {
		return corrupt("reading block checksum: %v", err)
	}
	if cap(r.payload) < int(payloadLen) {
		r.payload = make([]byte, payloadLen)
	}
	r.payload = r.payload[:payloadLen]
	if _, err := io.ReadFull(r.br, r.payload); err != nil {
		return corrupt("reading block payload: %v", err)
	}
	crc := crc32.Update(0, crcTable, fields[:nf])
	crc = crc32.Update(crc, crcTable, r.payload)
	if crc != binary.LittleEndian.Uint32(crcBuf[:]) {
		return corrupt("block %d checksum mismatch", firstIndex)
	}
	if firstIndex != r.nextIndex {
		return corrupt("block starts at record %d, expected %d", firstIndex, r.nextIndex)
	}
	if uint32(startPC) != r.walkPC || uint32(baseAddr) != r.prevAddr {
		return corrupt("block %d walk state (pc %d, addr base %d) disagrees with the decoded path (pc %d, addr base %d)",
			firstIndex, startPC, baseAddr, r.walkPC, r.prevAddr)
	}
	return r.decodeBlock(int(nrec))
}

// decodeBlock expands the current payload into r.recs by replaying the
// embedded program from the walk PC, consuming one branch-outcome bit per
// conditional branch, one address delta per memory access and one target
// per indirect transfer.
func (r *Reader) decodeBlock(nrec int) error {
	br := &byteReader{buf: r.payload}

	nBr, err := br.uvarint()
	if err != nil {
		return err
	}
	bitmapLen := int(nBr+7) / 8
	if nBr > uint64(nrec) || br.len() < bitmapLen {
		return corrupt("branch section claims %d outcomes", nBr)
	}
	bitmap := r.payload[br.pos : br.pos+bitmapLen]
	br.pos += bitmapLen

	nAddr, err := br.uvarint()
	if err != nil {
		return err
	}
	if nAddr > uint64(nrec) {
		return corrupt("address section claims %d accesses", nAddr)
	}
	r.deltas = r.deltas[:0]
	for i := uint64(0); i < nAddr; i++ {
		d, err := br.varint()
		if err != nil {
			return err
		}
		r.deltas = append(r.deltas, d)
	}

	nTgt, err := br.uvarint()
	if err != nil {
		return err
	}
	if nTgt > uint64(nrec) {
		return corrupt("indirect-target section claims %d targets", nTgt)
	}
	r.targets = r.targets[:0]
	for i := uint64(0); i < nTgt; i++ {
		t, err := br.uvarint()
		if err != nil {
			return err
		}
		r.targets = append(r.targets, uint32(t))
	}
	if br.len() != 0 {
		return corrupt("%d bytes of trailing garbage in block payload", br.len())
	}

	if cap(r.recs) < nrec {
		r.recs = make([]emu.Record, 0, nrec)
	}
	r.recs = r.recs[:0]
	r.pos = 0
	pc, prev := r.walkPC, r.prevAddr
	iBr, iAddr, iTgt := 0, 0, 0
	for k := 0; k < nrec; k++ {
		if r.halted {
			return corrupt("record %d follows the halt", r.nextIndex+uint64(k))
		}
		in := r.prog.At(pc)
		rec := emu.Record{PC: pc, Inst: in, NextPC: pc + 1}
		switch {
		case in.Op == isa.OpHalt:
			rec.Halted = true
			rec.NextPC = pc
			r.halted = true
		case in.IsCondBranch():
			if iBr >= int(nBr) {
				return corrupt("walk consumed more branch outcomes than the block carries")
			}
			if bitmap[iBr>>3]>>(iBr&7)&1 == 1 {
				rec.Taken = true
				rec.NextPC = in.Target
			}
			iBr++
		case in.IsMem():
			if iAddr >= int(nAddr) {
				return corrupt("walk consumed more memory addresses than the block carries")
			}
			prev = uint32(int64(prev) + r.deltas[iAddr])
			rec.Addr = prev
			iAddr++
		case in.Op == isa.OpJump || in.Op == isa.OpCall:
			rec.NextPC = in.Target
		case in.IsIndirect():
			if iTgt >= int(nTgt) {
				return corrupt("walk consumed more indirect targets than the block carries")
			}
			rec.NextPC = r.targets[iTgt]
			iTgt++
		}
		r.recs = append(r.recs, rec)
		pc = rec.NextPC
	}
	if iBr != int(nBr) || iAddr != int(nAddr) || iTgt != int(nTgt) {
		return corrupt("block sections oversized for its %d records (%d/%d branches, %d/%d addresses, %d/%d targets consumed)",
			nrec, iBr, nBr, iAddr, nAddr, iTgt, nTgt)
	}
	r.walkPC, r.prevAddr = pc, prev
	r.nextIndex += uint64(nrec)
	return nil
}
