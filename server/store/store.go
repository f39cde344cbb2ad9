// Package store is tracepd's durability layer: an fsync'd, CRC-framed,
// append-only job log in one directory. It is what makes tracepd
// restart-safe — jobs, their append-only cell logs and their terminal
// states survive a SIGKILL, so a restarted server re-opens the directory,
// replays finished sweeps to reconnecting clients byte-identically, and
// resumes unfinished ones from their last durable cell.
//
// # Log format
//
// The job log (jobs.log) follows the same framing discipline as the
// .tptrace format (internal/tracefile): a magic string, then self-checking
// records —
//
//	magic "TPSTORE1"                                 (8 bytes)
//	record  kind (1 byte) | uvarint job-ID length | job ID
//	        | uvarint payload length | payload
//	        | CRC32-C over the frame                 (4 bytes, little-endian)
//
// Payloads are opaque to the store (the server writes its own JSON), so
// the log format and the wire format cannot fall out of sync: a persisted
// cell IS the tracep.Result JSON a stream replays.
//
// Every Append is fsync'd before it returns: a record the server has acted
// on (a cell delivered to a stream, a job acknowledged to a client) is on
// disk. Opening tolerates a torn final write — a crash can land mid-frame,
// so the undecodable tail is truncated away and reported — but a log whose
// head is not even the magic is corrupt, not torn, and surfaces as
// ErrCorruptStore. DecodeAll is the strict decoder (no repair) and the
// FuzzStoreLog target's entry point: malformed input of any shape must
// produce a typed error, never a panic.
package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
)

// ErrCorruptStore is the sentinel wrapped by every structural decode error:
// bad magic, a CRC mismatch, truncated frames, or impossible field values.
// Test with errors.Is.
var ErrCorruptStore = errors.New("corrupt job store")

var logMagic = [8]byte{'T', 'P', 'S', 'T', 'O', 'R', 'E', '1'}

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Decode sanity bounds: fields claiming more than these are corrupt, which
// keeps malformed input from provoking huge allocations before the CRC can
// reject it.
const (
	maxJobIDLen = 1 << 10
	maxPayload  = 1 << 28
	logFileName = "jobs.log"
)

// Kind tags one log record.
type Kind byte

const (
	// KindJob records a job's creation; the payload is the server's job
	// metadata JSON (resolved grid, parameters, creation time).
	KindJob Kind = 'J'
	// KindCell appends one completed cell; the payload is the cell's
	// tracep.Result JSON, exactly as the stream delivers it.
	KindCell Kind = 'C'
	// KindState records a job's terminal state; the payload is the state
	// string ("done" or "cancelled").
	KindState Kind = 'S'
	// KindEvict marks a job dropped from retention; recovery skips all its
	// records and compaction removes them.
	KindEvict Kind = 'E'
)

func (k Kind) valid() bool {
	switch k {
	case KindJob, KindCell, KindState, KindEvict:
		return true
	}
	return false
}

// Record is one framed log entry.
type Record struct {
	Kind    Kind
	JobID   string
	Payload []byte
}

func corrupt(format string, args ...any) error {
	return fmt.Errorf("store: %w: %s", ErrCorruptStore, fmt.Sprintf(format, args...))
}

// AppendRecord appends rec's frame (kind, job ID, payload, CRC) to buf.
func AppendRecord(buf []byte, rec Record) []byte {
	start := len(buf)
	buf = append(buf, byte(rec.Kind))
	buf = binary.AppendUvarint(buf, uint64(len(rec.JobID)))
	buf = append(buf, rec.JobID...)
	buf = binary.AppendUvarint(buf, uint64(len(rec.Payload)))
	buf = append(buf, rec.Payload...)
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf[start:], crcTable))
}

// decodeNext decodes one frame from data, returning the record and the
// number of bytes consumed. Errors wrap ErrCorruptStore.
func decodeNext(data []byte) (Record, int, error) {
	if len(data) == 0 {
		return Record{}, 0, corrupt("empty frame")
	}
	kind := Kind(data[0])
	if !kind.valid() {
		return Record{}, 0, corrupt("unknown record kind %q", data[0])
	}
	pos := 1
	idLen, n := binary.Uvarint(data[pos:])
	if n <= 0 || idLen > maxJobIDLen {
		return Record{}, 0, corrupt("bad job-ID length")
	}
	pos += n
	if len(data)-pos < int(idLen) {
		return Record{}, 0, corrupt("truncated job ID")
	}
	id := string(data[pos : pos+int(idLen)])
	pos += int(idLen)
	payLen, n := binary.Uvarint(data[pos:])
	if n <= 0 || payLen > maxPayload {
		return Record{}, 0, corrupt("bad payload length")
	}
	pos += n
	if len(data)-pos < int(payLen)+4 {
		return Record{}, 0, corrupt("truncated payload")
	}
	payload := data[pos : pos+int(payLen)]
	pos += int(payLen)
	want := binary.LittleEndian.Uint32(data[pos:])
	if got := crc32.Checksum(data[:pos], crcTable); got != want {
		return Record{}, 0, corrupt("frame CRC mismatch (got %08x, want %08x)", got, want)
	}
	return Record{Kind: kind, JobID: id, Payload: append([]byte(nil), payload...)}, pos + 4, nil
}

// scan decodes records until the data ends or a frame fails, returning the
// records decoded, the offset of the first undecodable byte, and the decode
// error (nil when the whole input was consumed cleanly). The offset is
// relative to the start of data, which must already exclude the file magic.
func scan(data []byte) (recs []Record, goodOff int, err error) {
	for goodOff < len(data) {
		rec, n, err := decodeNext(data[goodOff:])
		if err != nil {
			return recs, goodOff, err
		}
		recs = append(recs, rec)
		goodOff += n
	}
	return recs, goodOff, nil
}

// DecodeAll strictly decodes a whole log image (magic plus frames). Any
// structural damage — truncation, bit flips, interleaved garbage, a missing
// magic — is a typed ErrCorruptStore error; the decoder never panics. This
// is the fuzz target's entry point and the integrity check for log copies.
func DecodeAll(data []byte) ([]Record, error) {
	if len(data) < len(logMagic) {
		return nil, corrupt("short log (%d bytes)", len(data))
	}
	for i, c := range logMagic {
		if data[i] != c {
			return nil, corrupt("bad magic")
		}
	}
	recs, _, err := scan(data[len(logMagic):])
	if err != nil {
		return nil, err
	}
	return recs, nil
}

// Store is an open job log. All methods are safe for concurrent use;
// appends are serialised and fsync'd in call order.
type Store struct {
	dir  string
	path string

	mu  sync.Mutex
	f   *os.File
	buf []byte // reusable frame scratch
}

// Recovery reports what Open found in an existing log.
type Recovery struct {
	// Records is every decodable record in append order, including records
	// of evicted jobs (the server filters those out while rebuilding).
	Records []Record
	// TruncatedBytes counts bytes discarded from the log's tail: a crash
	// mid-Append leaves a torn frame, which Open repairs by truncating to
	// the last whole record. 0 means the log was clean.
	TruncatedBytes int
}

// Open opens (creating if necessary) the job store in dir. A torn final
// write — the expected aftermath of SIGKILL mid-append — is repaired by
// truncation and reported via Recovery; a log that does not even begin
// with the format magic is corrupt, not torn, and fails with
// ErrCorruptStore rather than silently destroying data that was never a
// tracepd log.
func Open(dir string) (*Store, Recovery, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, Recovery{}, err
	}
	path := filepath.Join(dir, logFileName)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, Recovery{}, err
	}
	data, err := os.ReadFile(path)
	if err != nil {
		f.Close()
		return nil, Recovery{}, err
	}
	s := &Store{dir: dir, path: path, f: f}
	if len(data) == 0 {
		if _, err := f.Write(logMagic[:]); err != nil {
			f.Close()
			return nil, Recovery{}, err
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, Recovery{}, err
		}
		return s, Recovery{}, nil
	}
	if len(data) < len(logMagic) || string(data[:len(logMagic)]) != string(logMagic[:]) {
		f.Close()
		return nil, Recovery{}, corrupt("%s does not begin with the TPSTORE1 magic", path)
	}
	recs, goodOff, scanErr := scan(data[len(logMagic):])
	rec := Recovery{Records: recs}
	if scanErr != nil {
		// Torn tail: truncate to the last whole record and carry on. A
		// mid-file bit flip is indistinguishable from a torn write without
		// a second copy, so everything beyond the damage is discarded —
		// the cells it held are re-simulated on resume, deterministically.
		rec.TruncatedBytes = len(data) - len(logMagic) - goodOff
		if err := f.Truncate(int64(len(logMagic) + goodOff)); err != nil {
			f.Close()
			return nil, Recovery{}, err
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, Recovery{}, err
		}
	}
	if _, err := f.Seek(0, 2); err != nil {
		f.Close()
		return nil, Recovery{}, err
	}
	return s, rec, nil
}

// Append frames rec, writes it, and fsyncs before returning: once Append
// returns nil the record survives a crash.
func (s *Store) Append(rec Record) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return errors.New("store: append to closed store")
	}
	s.buf = AppendRecord(s.buf[:0], rec)
	if _, err := s.f.Write(s.buf); err != nil {
		return err
	}
	return s.f.Sync()
}

// Compact atomically rewrites the log to contain exactly keep, in order:
// the tmp-write/fsync/rename discipline means a crash during compaction
// leaves either the old log or the new one, never a mix. The server calls
// it at recovery with evicted jobs' records dropped, so the log does not
// grow without bound across restarts.
func (s *Store) Compact(keep []Record) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return errors.New("store: compact of closed store")
	}
	buf := append([]byte(nil), logMagic[:]...)
	for _, rec := range keep {
		buf = AppendRecord(buf, rec)
	}
	tmp := s.path + ".tmp"
	tf, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := tf.Write(buf); err != nil {
		tf.Close()
		return err
	}
	if err := tf.Sync(); err != nil {
		tf.Close()
		return err
	}
	if err := tf.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, s.path); err != nil {
		return err
	}
	if d, err := os.Open(s.dir); err == nil {
		_ = d.Sync()
		_ = d.Close()
	}
	old := s.f
	f, err := os.OpenFile(s.path, os.O_RDWR, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Seek(0, 2); err != nil {
		f.Close()
		return err
	}
	s.f = f
	_ = old.Close()
	return nil
}

// Close releases the log file handle. Appends after Close fail.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return nil
	}
	err := s.f.Close()
	s.f = nil
	return err
}
