package store

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

func sampleRecords() []Record {
	return []Record{
		{Kind: KindJob, JobID: "sw-1", Payload: []byte(`{"benchmarks":["compress"]}`)},
		{Kind: KindCell, JobID: "sw-1", Payload: []byte(`{"benchmark":"compress","model":"base"}`)},
		{Kind: KindCell, JobID: "sw-1", Payload: []byte(`{"benchmark":"compress","model":"FG"}`)},
		{Kind: KindState, JobID: "sw-1", Payload: []byte("done")},
		{Kind: KindJob, JobID: "sw-2", Payload: nil},
		{Kind: KindEvict, JobID: "sw-1", Payload: nil},
	}
}

// normalise nil-vs-empty payloads for comparison: the decoder returns what
// was framed, and a nil payload frames as zero bytes.
func payloadEq(a, b []byte) bool { return bytes.Equal(a, b) }

func recordsEq(t *testing.T, got, want []Record) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Kind != want[i].Kind || got[i].JobID != want[i].JobID ||
			!payloadEq(got[i].Payload, want[i].Payload) {
			t.Fatalf("record %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestStoreRoundTrip: append, close, re-open — Recovery carries every
// record back in order with no truncation.
func TestStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, rec, err := Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if len(rec.Records) != 0 || rec.TruncatedBytes != 0 {
		t.Fatalf("fresh store recovered %+v", rec)
	}
	want := sampleRecords()
	for _, r := range want {
		if err := s.Append(r); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := s.Append(Record{Kind: KindJob, JobID: "x"}); err == nil {
		t.Fatal("Append after Close succeeded")
	}

	s2, rec, err := Open(dir)
	if err != nil {
		t.Fatalf("re-Open: %v", err)
	}
	defer s2.Close()
	if rec.TruncatedBytes != 0 {
		t.Fatalf("clean log reported %d truncated bytes", rec.TruncatedBytes)
	}
	recordsEq(t, rec.Records, want)

	// The on-disk image also passes the strict decoder.
	data, err := os.ReadFile(filepath.Join(dir, logFileName))
	if err != nil {
		t.Fatal(err)
	}
	recs, err := DecodeAll(data)
	if err != nil {
		t.Fatalf("DecodeAll of a clean log: %v", err)
	}
	recordsEq(t, recs, want)
}

// TestStoreTornTail: a partial final frame — the aftermath of SIGKILL
// mid-append — is truncated away on Open; every whole record survives, and
// appends after the repair work.
func TestStoreTornTail(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := sampleRecords()[:3]
	for _, r := range want {
		if err := s.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	path := filepath.Join(dir, logFileName)
	frame := AppendRecord(nil, Record{Kind: KindState, JobID: "sw-1", Payload: []byte("done")})
	for cut := 1; cut < len(frame); cut++ {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		torn := append(append([]byte(nil), data...), frame[:cut]...)
		if err := os.WriteFile(path, torn, 0o644); err != nil {
			t.Fatal(err)
		}

		s2, rec, err := Open(dir)
		if err != nil {
			t.Fatalf("cut %d: Open of torn log: %v", cut, err)
		}
		if rec.TruncatedBytes != cut {
			t.Fatalf("cut %d: truncated %d bytes, want %d", cut, rec.TruncatedBytes, cut)
		}
		recordsEq(t, rec.Records, want)
		// The repaired log accepts appends and round-trips again.
		if err := s2.Append(Record{Kind: KindCell, JobID: "sw-1", Payload: []byte("x")}); err != nil {
			t.Fatalf("cut %d: append after repair: %v", cut, err)
		}
		s2.Close()
		s3, rec, err := Open(dir)
		if err != nil {
			t.Fatalf("cut %d: re-open after repair: %v", cut, err)
		}
		if rec.TruncatedBytes != 0 || len(rec.Records) != len(want)+1 {
			t.Fatalf("cut %d: repaired log recovered %d records (%d truncated)",
				cut, len(rec.Records), rec.TruncatedBytes)
		}
		s3.Close()
		// Restore the clean 3-record log for the next cut.
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestStoreBadMagic: a file that is not a TPSTORE1 log at all must fail
// with ErrCorruptStore, not be silently truncated to nothing.
func TestStoreBadMagic(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, logFileName), []byte("definitely not a log"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir); !errors.Is(err, ErrCorruptStore) {
		t.Fatalf("Open of non-log file: %v, want ErrCorruptStore", err)
	}
}

// TestStoreCompact: compaction rewrites the log to exactly the kept
// records, atomically, and the store stays appendable afterwards.
func TestStoreCompact(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, r := range sampleRecords() {
		if err := s.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	keep := []Record{
		{Kind: KindJob, JobID: "sw-2", Payload: nil},
		{Kind: KindCell, JobID: "sw-2", Payload: []byte("cell")},
	}
	if err := s.Compact(keep); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	extra := Record{Kind: KindState, JobID: "sw-2", Payload: []byte("done")}
	if err := s.Append(extra); err != nil {
		t.Fatalf("Append after Compact: %v", err)
	}
	s.Close()
	_, rec, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	recordsEq(t, rec.Records, append(keep, extra))
}

// TestDecodeAllStrict: the strict decoder rejects damage anywhere, not
// just at the tail.
func TestDecodeAllStrict(t *testing.T) {
	buf := append([]byte(nil), logMagic[:]...)
	for _, r := range sampleRecords() {
		buf = AppendRecord(buf, r)
	}
	if _, err := DecodeAll(buf); err != nil {
		t.Fatalf("clean image: %v", err)
	}
	// A log cut down to exactly the magic is a valid empty log, not damage.
	if recs, err := DecodeAll(buf[:8]); err != nil || len(recs) != 0 {
		t.Fatalf("magic-only log: %v, %d records", err, len(recs))
	}
	for _, n := range []int{0, 4, 9, 10, len(buf) / 2, len(buf) - 1} {
		if _, err := DecodeAll(buf[:n]); !errors.Is(err, ErrCorruptStore) {
			t.Errorf("truncation to %d: %v, want ErrCorruptStore", n, err)
		}
	}
	for off := 0; off < len(buf); off++ {
		mut := append([]byte(nil), buf...)
		mut[off] ^= 0x01
		// Every field of every frame is CRC-covered, so no single-bit flip
		// may decode cleanly anywhere in the image.
		if _, err := DecodeAll(mut); err == nil {
			t.Errorf("bit flip at %d decoded cleanly", off)
		} else if !errors.Is(err, ErrCorruptStore) {
			t.Errorf("bit flip at %d: %v, want ErrCorruptStore", off, err)
		}
	}
}
