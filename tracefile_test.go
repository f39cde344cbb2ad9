package tracep_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tracep"
)

// captureCorpus records every benchmark of the CI baseline grid to a
// temporary corpus directory, sized exactly as the grid runs them.
func captureCorpus(t *testing.T, targetInsts uint64) string {
	t.Helper()
	dir := t.TempDir()
	for _, name := range []string{"compress", "vortex"} {
		bm, err := tracep.BenchmarkByName(name)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name+tracep.TraceExt)
		if _, err := tracep.CaptureTraceFile(context.Background(), bm, targetInsts, path); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestRecordedTraceByteIdentity is the round-trip gate for the trace
// ingestion subsystem: capture → load → simulate must be invisible in the
// results. Every benchmark of the CI baseline grid is recorded to a
// .tptrace file, loaded back through Corpus (which holds each recording
// to its embedded program), and swept across all eight
// models; the ResultSet JSON must be byte-identical to the direct sweep and
// to the committed testdata/ci-baseline.json.
func TestRecordedTraceByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates the full baseline grid twice")
	}
	direct := mustRunJSON(t, ciBaselineSweep(t))

	corpus, err := tracep.Corpus(captureCorpus(t, 5000))
	if err != nil {
		t.Fatal(err)
	}
	if len(corpus) != 2 || corpus[0].Name != "compress" || corpus[1].Name != "vortex" {
		t.Fatalf("corpus loaded %d benchmarks, want [compress vortex]", len(corpus))
	}
	replayed := mustRunJSON(t, tracep.Sweep{
		Benchmarks:  corpus,
		Models:      tracep.Models(),
		TargetInsts: 5000,
	})
	if !bytes.Equal(direct, replayed) {
		t.Fatal("trace-file-backed sweep is not byte-identical to the direct sweep")
	}
	want, err := os.ReadFile("testdata/ci-baseline.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(replayed, want) {
		t.Fatal("trace-file-backed sweep diverges from testdata/ci-baseline.json")
	}
}

// TestRecordedTraceWarmupIdentity checks warm-ups over recordings: a
// warmed-up sweep over recorded traces must match the direct warmed-up
// sweep byte for byte, so a loaded program warms exactly like the one it
// was captured from.
func TestRecordedTraceWarmupIdentity(t *testing.T) {
	const target, warm = 20_000, 7_500
	mk := func(benches []tracep.Benchmark) tracep.Sweep {
		return tracep.Sweep{
			Benchmarks:  benches,
			Models:      []tracep.Model{tracep.ModelBase, tracep.ModelFGMLBRET},
			TargetInsts: target,
			Warmup:      warm,
		}
	}
	var direct []tracep.Benchmark
	for _, name := range []string{"compress", "vortex"} {
		bm, err := tracep.BenchmarkByName(name)
		if err != nil {
			t.Fatal(err)
		}
		direct = append(direct, bm)
	}
	corpus, err := tracep.Corpus(captureCorpus(t, target))
	if err != nil {
		t.Fatal(err)
	}
	a := mustRunJSON(t, mk(direct))
	b := mustRunJSON(t, mk(corpus))
	if !bytes.Equal(a, b) {
		t.Fatal("warmed trace-file-backed sweep diverges from the direct warmed sweep")
	}
}

// TestRecordedTraceTypedErrors pins the failure modes of trace loading to
// typed sentinels: a truncated, corrupt or off-path recording is
// ErrCorruptTrace at FromTraceFile and Corpus, before any cell runs, and an
// empty corpus directory refuses to masquerade as a zero-benchmark sweep.
// None of them may panic.
func TestRecordedTraceTypedErrors(t *testing.T) {
	dir := captureCorpus(t, 5000)
	path := filepath.Join(dir, "compress"+tracep.TraceExt)

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	trunc := filepath.Join(t.TempDir(), "trunc"+tracep.TraceExt)
	if err := os.WriteFile(trunc, data[:len(data)-9], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := tracep.FromTraceFile(trunc); !errors.Is(err, tracep.ErrCorruptTrace) {
		t.Fatalf("FromTraceFile(truncated) = %v, want ErrCorruptTrace", err)
	}

	if _, err := tracep.FromTraceFile(filepath.Join(dir, "missing.tptrace")); err == nil {
		t.Fatal("FromTraceFile of a missing file succeeded")
	}

	if _, err := tracep.Corpus(t.TempDir()); !errors.Is(err, tracep.ErrInvalidBenchmark) {
		t.Fatalf("Corpus(empty dir) = %v, want ErrInvalidBenchmark", err)
	}
	if _, err := tracep.Corpus(filepath.Join(dir, "nope")); err == nil {
		t.Fatal("Corpus of a missing directory succeeded")
	}

	// (a) One flipped byte in the record count (20 bytes of count, digest
	// and checksum end the file): the file checksum catches it.
	flipped := filepath.Join(t.TempDir(), "flipped"+tracep.TraceExt)
	mut := bytes.Clone(data)
	mut[len(mut)-17] ^= 0x01
	if err := os.WriteFile(flipped, mut, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := tracep.FromTraceFile(flipped); !errors.Is(err, tracep.ErrCorruptTrace) {
		t.Fatalf("FromTraceFile(record-count byte flipped) = %v, want ErrCorruptTrace", err)
	}

	// (b) A recording whose every checksum holds but whose path digest the
	// program's path does not match: the digest's low byte changed and the
	// file checksum recomputed over it.
	offDir := t.TempDir()
	off := filepath.Join(offDir, "compress"+tracep.TraceExt)
	mut = bytes.Clone(data)
	mut[len(mut)-12] ^= 0x01
	binary.LittleEndian.PutUint32(mut[len(mut)-4:], crc32.Checksum(mut[:len(mut)-4], crc32.MakeTable(crc32.Castagnoli)))
	if err := os.WriteFile(off, mut, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := tracep.FromTraceFile(off); !errors.Is(err, tracep.ErrCorruptTrace) || !strings.Contains(err.Error(), "path digest mismatch") {
		t.Fatalf("FromTraceFile(off-path) = %v, want ErrCorruptTrace on the path digest", err)
	}

	// (c) A corpus holding it fails as a whole, on the same check.
	if _, err := tracep.Corpus(offDir); !errors.Is(err, tracep.ErrCorruptTrace) || !strings.Contains(err.Error(), "path digest mismatch") {
		t.Fatalf("Corpus(off-path recording) = %v, want ErrCorruptTrace on the path digest", err)
	}

	bm, err := tracep.FromTraceFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bm.Recorded == nil || bm.Recorded.Records() == 0 {
		t.Fatal("recorded benchmark carries no recording metadata")
	}
}
