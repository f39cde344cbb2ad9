package tracefile

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"tracep/internal/emu"
	"tracep/internal/isa"
)

// Writer serialises a committed execution path to the .tptrace format. The
// header (with the embedded program image) is written by NewWriter; Add
// appends one committed record at a time; Close flushes the final block and
// the trailer. The underlying io.Writer is not closed.
type Writer struct {
	// BlockRecords is the sync-block size in records. It may be lowered
	// before the first Add (tests use small blocks to exercise block
	// boundaries); it defaults to DefaultBlockRecords.
	BlockRecords int

	bw   *bufio.Writer
	prog *isa.Program

	expectPC uint32
	halted   bool
	closed   bool
	total    uint64

	// Pending-block accumulator state.
	firstIndex uint64
	startPC    uint32
	blockBase  uint32 // address-delta base at block start
	prevAddr   uint32 // running address chain
	nrec       int
	nBr        int
	brBits     []byte
	nAddr      int
	addrBuf    []byte
	nTgt       int
	tgtBuf     []byte
	scratch    []byte
}

// NewWriter writes the file magic and header (embedding prog) to w and
// returns a Writer ready to accept committed records.
func NewWriter(w io.Writer, prog *isa.Program, meta Meta) (*Writer, error) {
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

	tw := &Writer{
		BlockRecords: DefaultBlockRecords,
		bw:           bufio.NewWriterSize(w, 1<<16),
		prog:         prog,
		expectPC:     prog.Entry,
		startPC:      prog.Entry,
	}
	if _, err := tw.bw.Write(fileMagic[:]); err != nil {
		return nil, err
	}
	var lenBuf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(lenBuf[:], uint64(len(hdr)))
	if _, err := tw.bw.Write(lenBuf[:n]); err != nil {
		return nil, err
	}
	if _, err := tw.bw.Write(hdr); err != nil {
		return nil, err
	}
	var crcBuf [4]byte
	binary.LittleEndian.PutUint32(crcBuf[:], crc32.Checksum(hdr, crcTable))
	if _, err := tw.bw.Write(crcBuf[:]); err != nil {
		return nil, err
	}
	return tw, nil
}

// Add appends one committed record. Records must arrive in committed-path
// order: each record's PC must equal the previous record's NextPC (the
// first must be the program entry), and nothing may follow the halt.
func (w *Writer) Add(rec emu.Record) error {
	if w.closed {
		return errors.New("tracefile: Add after Close")
	}
	if w.halted {
		return errors.New("tracefile: Add after the halt record")
	}
	if rec.PC != w.expectPC {
		return fmt.Errorf("tracefile: record at PC %d breaks the committed path (expected PC %d)", rec.PC, w.expectPC)
	}
	in := w.prog.At(rec.PC)
	switch {
	case in.Op == isa.OpHalt:
		w.halted = true
	case in.IsCondBranch():
		if w.nBr&7 == 0 {
			w.brBits = append(w.brBits, 0)
		}
		if rec.Taken {
			w.brBits[w.nBr>>3] |= 1 << (w.nBr & 7)
		}
		w.nBr++
	case in.IsMem():
		delta := int64(rec.Addr) - int64(w.prevAddr)
		w.addrBuf = binary.AppendUvarint(w.addrBuf, zigzag(delta))
		w.prevAddr = rec.Addr
		w.nAddr++
	case in.IsIndirect():
		w.tgtBuf = binary.AppendUvarint(w.tgtBuf, uint64(rec.NextPC))
		w.nTgt++
	}
	w.nrec++
	w.total++
	w.expectPC = rec.NextPC
	if w.nrec >= w.BlockRecords {
		return w.flushBlock()
	}
	return nil
}

// flushBlock emits the pending records as one CRC-checked sync block and
// resets the accumulator for the next block.
func (w *Writer) flushBlock() error {
	payload := w.scratch[:0]
	payload = binary.AppendUvarint(payload, uint64(w.nBr))
	payload = append(payload, w.brBits...)
	payload = binary.AppendUvarint(payload, uint64(w.nAddr))
	payload = append(payload, w.addrBuf...)
	payload = binary.AppendUvarint(payload, uint64(w.nTgt))
	payload = append(payload, w.tgtBuf...)
	w.scratch = payload

	var fields [5 * binary.MaxVarintLen64]byte
	n := binary.PutUvarint(fields[:], w.firstIndex)
	n += binary.PutUvarint(fields[n:], uint64(w.nrec))
	n += binary.PutUvarint(fields[n:], uint64(w.startPC))
	n += binary.PutUvarint(fields[n:], uint64(w.blockBase))
	n += binary.PutUvarint(fields[n:], uint64(len(payload)))

	// The CRC covers the header fields and the payload, so a flipped bit in
	// either (including the walk state the decoder checks) is caught.
	crc := crc32.Update(0, crcTable, fields[:n])
	crc = crc32.Update(crc, crcTable, payload)

	if _, err := w.bw.Write(blockMagic[:]); err != nil {
		return err
	}
	if _, err := w.bw.Write(fields[:n]); err != nil {
		return err
	}
	var crcBuf [4]byte
	binary.LittleEndian.PutUint32(crcBuf[:], crc)
	if _, err := w.bw.Write(crcBuf[:]); err != nil {
		return err
	}
	if _, err := w.bw.Write(payload); err != nil {
		return err
	}

	w.firstIndex = w.total
	w.startPC = w.expectPC
	w.blockBase = w.prevAddr
	w.nrec, w.nBr, w.nAddr, w.nTgt = 0, 0, 0, 0
	w.brBits = w.brBits[:0]
	w.addrBuf = w.addrBuf[:0]
	w.tgtBuf = w.tgtBuf[:0]
	return nil
}

// Close flushes the final partial block, writes the trailer and flushes the
// buffered writer. It does not close the underlying io.Writer.
func (w *Writer) Close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	if w.nrec > 0 {
		if err := w.flushBlock(); err != nil {
			return err
		}
	}
	var trailer [trailerSize]byte
	copy(trailer[:4], endMagic[:])
	binary.LittleEndian.PutUint64(trailer[4:12], w.total)
	binary.LittleEndian.PutUint32(trailer[12:16], crc32.Checksum(trailer[4:12], crcTable))
	if _, err := w.bw.Write(trailer[:]); err != nil {
		return err
	}
	return w.bw.Flush()
}

// Capture emulates prog from its entry to the architectural halt, streaming
// every committed record into a trace written to w, and returns the record
// count. maxInsts bounds runaway programs (0 means unbounded); reaching the
// bound before halt is an error, because a trace without its halt would
// replay as truncated. Cancellation is checked every few tens of thousands
// of instructions.
func Capture(ctx context.Context, w io.Writer, prog *isa.Program, meta Meta, maxInsts uint64) (uint64, error) {
	tw, err := NewWriter(w, prog, meta)
	if err != nil {
		return 0, err
	}
	e := emu.New(prog)
	var rec emu.Record
	for !e.Halted {
		if maxInsts > 0 && e.Count >= maxInsts {
			return e.Count, fmt.Errorf("tracefile: capture of %q hit the %d-instruction bound before halting", prog.Name, maxInsts)
		}
		if e.Count&0xffff == 0 {
			if err := ctx.Err(); err != nil {
				return e.Count, err
			}
		}
		e.Step(&rec)
		if err := tw.Add(rec); err != nil {
			return e.Count, err
		}
	}
	if err := tw.Close(); err != nil {
		return e.Count, err
	}
	return e.Count, nil
}
