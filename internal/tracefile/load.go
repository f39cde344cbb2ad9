package tracefile

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"tracep/internal/emu"
	"tracep/internal/isa"
)

// Load reads a whole recording from rd and holds it to its own program —
// Capture's inverse. After the checksums, the version and the header's
// bounds, the embedded program is emulated from its entry for at most the
// declared record count: it must halt on the last of those steps, and the
// digest of its path must equal the recorded one. Anything else fails with
// an error wrapping ErrCorruptTrace; only a failure to read rd does not.
// The returned Header reports the record count.
func Load(rd io.Reader) (Header, *isa.Program, error) {
	data, err := io.ReadAll(io.LimitReader(rd, int64(maxFileBytes)+1))
	if err != nil {
		return Header{}, nil, fmt.Errorf("tracefile: reading: %w", err)
	}
	if len(data) > maxFileBytes {
		return Header{}, nil, corrupt("file exceeds %d bytes", maxFileBytes)
	}
	rest, ok := bytes.CutPrefix(data, fileMagic[:])
	if !ok {
		return Header{}, nil, corrupt("bad magic %q", data[:min(len(data), len(fileMagic))])
	}
	hdrLen, n := binary.Uvarint(rest)
	if n <= 0 {
		return Header{}, nil, corrupt("unreadable header length")
	}
	rest = rest[n:]
	if hdrLen > maxHeaderBytes || int(hdrLen)+4 > len(rest) {
		return Header{}, nil, corrupt("header of %d bytes overruns the %d-byte file", hdrLen, len(data))
	}
	hdr, rest := rest[:hdrLen], rest[hdrLen:]
	if crc32.Checksum(hdr, crcTable) != binary.LittleEndian.Uint32(rest) {
		return Header{}, nil, corrupt("header checksum mismatch")
	}
	meta, prog, err := decodeHeader(hdr)
	if err != nil {
		return Header{}, nil, err
	}
	tail := rest[4:]
	if len(tail) != tailSize {
		return Header{}, nil, corrupt("%d bytes follow the header, want %d (record count, path digest, checksum)", len(tail), tailSize)
	}
	if crc32.Checksum(data[:len(data)-4], crcTable) != binary.LittleEndian.Uint32(tail[16:]) {
		return Header{}, nil, corrupt("file checksum mismatch")
	}
	records := binary.LittleEndian.Uint64(tail)
	want := pathDigest(binary.LittleEndian.Uint64(tail[8:]))
	if records == 0 || records > maxRecords {
		return Header{}, nil, corrupt("recording declares %d records, want 1 to %d", records, uint64(maxRecords))
	}

	e := emu.New(prog)
	var rec emu.Record
	digest := fnvOffset64
	for i := uint64(0); i < records; i++ {
		if e.Halted {
			return Header{}, nil, corrupt("program halts after %d records, but the recording declares %d", i, records)
		}
		e.Step(&rec)
		digest.add(&rec)
	}
	if !e.Halted {
		return Header{}, nil, corrupt("program does not halt within the recording's %d records", records)
	}
	if digest != want {
		return Header{}, nil, corrupt("path digest mismatch: recorded %#016x, program's path %#016x", uint64(want), uint64(digest))
	}
	return Header{Meta: meta, Records: records}, prog, nil
}
