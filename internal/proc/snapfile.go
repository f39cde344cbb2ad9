package proc

// Snapshot serialisation: the binary wire/disk form of a warm-up
// checkpoint, with the same framing discipline as internal/tracefile — a
// magic string, a length-prefixed payload, and a trailing CRC32-C over the
// payload, so truncation and bit rot are detected before any field is
// trusted. The format is what lets a sweep cluster capture a row's warm-up
// once and ship it to whichever node runs the row (server/cluster), and
// what a content-addressed snapshot store persists (server/store).
//
// Layout (all integers varint-encoded unless noted):
//
//	magic "TPSNAP1\n"                       (8 bytes)
//	payload length                          (uvarint)
//	payload:
//	  capture Config as canonical JSON      (length-prefixed)
//	  warm-up instruction count
//	  program name                          (length-prefixed)
//	  program image                         (tracefile.AppendProgram)
//	  architectural state: PC, halted flag, executed count,
//	    32 registers (zigzag), memory words (count, addr-delta + zigzag value)
//	  I-cache, D-cache, BIT residency arrays (tags/valid/LRU + counters)
//	  branch predictor (counters, BTB targets, RAS, lookup counter)
//	  BIT counters
//	CRC32-C of payload                      (4 bytes, little-endian)
//
// Only the model-independent warmed structures are encoded. The trace
// cache, next-trace predictor and value predictor are not part of a
// Snapshot (a restore resets them from the configuration); the
// rename file and map are a pure function of the architectural registers,
// so they are rebuilt rather than shipped; and the BIT's memoised analyses
// are recomputed on demand (AnalyzeRegion is pure), so only its residency
// array travels.

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"

	"tracep/internal/bpred"
	"tracep/internal/cache"
	"tracep/internal/core"
	"tracep/internal/emu"
	"tracep/internal/isa"
	"tracep/internal/tracefile"
)

// ErrCorruptSnapshot is the sentinel wrapped by every structural error
// UnmarshalSnapshot returns: bad magic, CRC mismatch, truncated sections,
// or field values inconsistent with the embedded configuration. Test with
// errors.Is.
var ErrCorruptSnapshot = errors.New("corrupt snapshot")

var snapMagic = [8]byte{'T', 'P', 'S', 'N', 'A', 'P', '1', '\n'}

var snapCRCTable = crc32.MakeTable(crc32.Castagnoli)

// Decode sanity bounds, mirroring internal/tracefile's: a section claiming
// more than these is corrupt, which keeps malformed inputs from provoking
// huge allocations before validation can reject them.
const (
	snapMaxSection = 1 << 26
	snapMaxPayload = 1 << 30
)

func corruptSnap(format string, args ...any) error {
	return fmt.Errorf("snapshot: %w: %s", ErrCorruptSnapshot, fmt.Sprintf(format, args...))
}

// snapReader walks a payload with explicit exhaustion errors.
type snapReader struct {
	buf []byte
	pos int
}

func (r *snapReader) len() int { return len(r.buf) - r.pos }

func (r *snapReader) byte() (byte, error) {
	if r.pos >= len(r.buf) {
		return 0, corruptSnap("section exhausted")
	}
	c := r.buf[r.pos]
	r.pos++
	return c, nil
}

func (r *snapReader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.buf[r.pos:])
	if n <= 0 {
		return 0, corruptSnap("bad varint")
	}
	r.pos += n
	return v, nil
}

func (r *snapReader) varint() (int64, error) {
	u, err := r.uvarint()
	return int64(u>>1) ^ -int64(u&1), err
}

// count reads a uvarint bounded by snapMaxSection.
func (r *snapReader) count(what string) (int, error) {
	n, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if n > snapMaxSection {
		return 0, corruptSnap("%s claims %d entries", what, n)
	}
	return int(n), nil
}

func (r *snapReader) bytes(n int) ([]byte, error) {
	if r.len() < n {
		return nil, corruptSnap("section exhausted (%d bytes short)", n-r.len())
	}
	b := r.buf[r.pos : r.pos+n]
	r.pos += n
	return b, nil
}

func appendZigzag(buf []byte, v int64) []byte {
	return binary.AppendUvarint(buf, uint64(v<<1)^uint64(v>>63))
}

// appendSetAssoc encodes one set-associative array's residency state.
func appendSetAssoc(buf []byte, c *cache.SetAssoc) []byte {
	tags, valid, lru := c.ExportState()
	buf = binary.AppendUvarint(buf, uint64(len(tags)))
	for _, t := range tags {
		buf = binary.AppendUvarint(buf, t)
	}
	for _, v := range valid {
		if v {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
	}
	buf = append(buf, lru...)
	buf = binary.AppendUvarint(buf, c.Accesses)
	buf = binary.AppendUvarint(buf, c.Misses)
	return buf
}

// readSetAssoc decodes state written by appendSetAssoc into c, which must
// already have the matching geometry (it is built from the configuration).
func readSetAssoc(r *snapReader, c *cache.SetAssoc, what string) error {
	n, err := r.count(what)
	if err != nil {
		return err
	}
	tags := make([]uint64, n)
	for i := range tags {
		if tags[i], err = r.uvarint(); err != nil {
			return err
		}
	}
	vbytes, err := r.bytes(n)
	if err != nil {
		return err
	}
	valid := make([]bool, n)
	for i, b := range vbytes {
		valid[i] = b != 0
	}
	lbytes, err := r.bytes(n)
	if err != nil {
		return err
	}
	if err := c.ImportState(tags, valid, append([]uint8(nil), lbytes...)); err != nil {
		return corruptSnap("%s: %v", what, err)
	}
	if c.Accesses, err = r.uvarint(); err != nil {
		return err
	}
	if c.Misses, err = r.uvarint(); err != nil {
		return err
	}
	return nil
}

// MarshalBinary encodes the snapshot in the TPSNAP1 format. The encoding is
// deterministic — two captures of the same (program, configuration,
// warm-up) marshal to identical bytes — which is what lets a
// content-addressed store deduplicate snapshots and a test assert
// byte-identity across the wire.
func (s *Snapshot) MarshalBinary() ([]byte, error) {
	if s == nil || s.prog == nil {
		return nil, errors.New("snapshot: cannot marshal a zero-value snapshot")
	}
	cfgJSON, err := json.Marshal(s.cfg)
	if err != nil {
		return nil, err
	}

	payload := make([]byte, 0, 1<<16)
	payload = binary.AppendUvarint(payload, uint64(len(cfgJSON)))
	payload = append(payload, cfgJSON...)
	payload = binary.AppendUvarint(payload, s.warmupInsts)
	payload = binary.AppendUvarint(payload, uint64(len(s.prog.Name)))
	payload = append(payload, s.prog.Name...)
	payload = tracefile.AppendProgram(payload, s.prog)

	// Architectural state.
	payload = binary.AppendUvarint(payload, uint64(s.emu.PC))
	if s.emu.Halted {
		payload = append(payload, 1)
	} else {
		payload = append(payload, 0)
	}
	payload = binary.AppendUvarint(payload, s.emu.Count)
	for _, v := range s.emu.Regs {
		payload = appendZigzag(payload, v)
	}
	addrs, vals := s.emu.Mem.DumpWords()
	payload = binary.AppendUvarint(payload, uint64(len(addrs)))
	prev := uint32(0)
	for i, a := range addrs {
		payload = binary.AppendUvarint(payload, uint64(a-prev))
		payload = appendZigzag(payload, vals[i])
		prev = a
	}

	// Warmed model-independent structures.
	payload = appendSetAssoc(payload, s.icache.State())
	payload = appendSetAssoc(payload, s.dcache.State())
	payload = appendSetAssoc(payload, s.bit.Timing())

	ctr, target, ras := s.bp.ExportState()
	payload = binary.AppendUvarint(payload, uint64(len(ctr)))
	payload = append(payload, ctr...)
	for _, t := range target {
		payload = binary.AppendUvarint(payload, uint64(t))
	}
	payload = binary.AppendUvarint(payload, uint64(len(ras)))
	for _, t := range ras {
		payload = binary.AppendUvarint(payload, uint64(t))
	}
	payload = binary.AppendUvarint(payload, s.bp.Lookups)

	payload = binary.AppendUvarint(payload, s.bit.Lookups)
	payload = binary.AppendUvarint(payload, s.bit.MissCycles)

	out := make([]byte, 0, len(payload)+24)
	out = append(out, snapMagic[:]...)
	out = binary.AppendUvarint(out, uint64(len(payload)))
	out = append(out, payload...)
	out = binary.LittleEndian.AppendUint32(out, crc32.Checksum(payload, snapCRCTable))
	return out, nil
}

// UnmarshalSnapshot decodes a snapshot marshalled by MarshalBinary,
// rebuilding the full Snapshot: the embedded program and configuration, the
// architectural state, and the warmed structures. Reset-captured structures
// (trace cache, next-trace predictor, value predictor) and the rename state
// are reconstructed from the configuration and registers, exactly as
// CaptureSnapshot builds them, so a restored run from a decoded snapshot is
// byte-identical to one restored from the original. Structural errors wrap
// ErrCorruptSnapshot; the decoder never panics on malformed input.
func UnmarshalSnapshot(data []byte) (*Snapshot, error) {
	if len(data) < len(snapMagic) {
		return nil, corruptSnap("short input (%d bytes)", len(data))
	}
	for i, c := range snapMagic {
		if data[i] != c {
			return nil, corruptSnap("bad magic")
		}
	}
	hdr := &snapReader{buf: data[len(snapMagic):]}
	plen, err := hdr.uvarint()
	if err != nil {
		return nil, err
	}
	if plen > snapMaxPayload {
		return nil, corruptSnap("payload claims %d bytes", plen)
	}
	payload, err := hdr.bytes(int(plen))
	if err != nil {
		return nil, err
	}
	crcBytes, err := hdr.bytes(4)
	if err != nil {
		return nil, err
	}
	if got, want := crc32.Checksum(payload, snapCRCTable), binary.LittleEndian.Uint32(crcBytes); got != want {
		return nil, corruptSnap("payload CRC mismatch (got %08x, want %08x)", got, want)
	}

	r := &snapReader{buf: payload}
	cfgLen, err := r.count("configuration")
	if err != nil {
		return nil, err
	}
	cfgJSON, err := r.bytes(cfgLen)
	if err != nil {
		return nil, err
	}
	var cfg Config
	if err := json.Unmarshal(cfgJSON, &cfg); err != nil {
		return nil, corruptSnap("configuration: %v", err)
	}
	if err := cfg.Validate(); err != nil {
		return nil, corruptSnap("configuration: %v", err)
	}
	warmup, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	nameLen, err := r.count("program name")
	if err != nil {
		return nil, err
	}
	nameBytes, err := r.bytes(nameLen)
	if err != nil {
		return nil, err
	}
	prog, rest, err := tracefile.ReadProgram(r.buf[r.pos:], string(nameBytes))
	if err != nil {
		return nil, corruptSnap("program image: %v", err)
	}
	r.pos = len(r.buf) - len(rest)

	// Architectural state. Memory is rebuilt from the dumped words alone
	// (not the program's initial image): a word the warm-up stored zero
	// into must read zero, and unwritten words read zero either way.
	pc, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	haltB, err := r.byte()
	if err != nil {
		return nil, err
	}
	count, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	e := &emu.Emulator{Prog: prog, Mem: isa.NewMemory(nil), PC: uint32(pc), Halted: haltB != 0, Count: count}
	for i := range e.Regs {
		if e.Regs[i], err = r.varint(); err != nil {
			return nil, err
		}
	}
	nwords, err := r.count("memory image")
	if err != nil {
		return nil, err
	}
	addr := uint32(0)
	for i := 0; i < nwords; i++ {
		d, err1 := r.uvarint()
		v, err2 := r.varint()
		if err1 != nil {
			return nil, err1
		}
		if err2 != nil {
			return nil, err2
		}
		addr += uint32(d)
		e.Mem.Write(addr, v)
	}

	ic := cache.NewICache(cfg.ICache)
	if err := readSetAssoc(r, ic.State(), "I-cache"); err != nil {
		return nil, err
	}
	dc := cache.NewDCache(cfg.DCache)
	if err := readSetAssoc(r, dc.State(), "D-cache"); err != nil {
		return nil, err
	}
	bit := core.NewBIT(prog, effectiveBITConfig(cfg))
	if err := readSetAssoc(r, bit.Timing(), "BIT"); err != nil {
		return nil, err
	}

	bp := bpred.New(cfg.BPred, cfg.Seed)
	nctr, err := r.count("branch predictor")
	if err != nil {
		return nil, err
	}
	ctr, err := r.bytes(nctr)
	if err != nil {
		return nil, err
	}
	target := make([]uint32, nctr)
	for i := range target {
		t, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		target[i] = uint32(t)
	}
	nras, err := r.count("RAS")
	if err != nil {
		return nil, err
	}
	ras := make([]uint32, nras)
	for i := range ras {
		t, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		ras[i] = uint32(t)
	}
	if err := bp.ImportState(append([]uint8(nil), ctr...), target, ras); err != nil {
		return nil, corruptSnap("branch predictor: %v", err)
	}
	if bp.Lookups, err = r.uvarint(); err != nil {
		return nil, err
	}
	if bit.Lookups, err = r.uvarint(); err != nil {
		return nil, err
	}
	if bit.MissCycles, err = r.uvarint(); err != nil {
		return nil, err
	}
	if r.len() != 0 {
		return nil, corruptSnap("%d trailing bytes after the last section", r.len())
	}

	return &Snapshot{
		prog:        prog,
		cfg:         cfg,
		warmupInsts: warmup,
		emu:         e,
		icache:      ic,
		dcache:      dc,
		bp:          bp,
		bit:         bit,
	}, nil
}
