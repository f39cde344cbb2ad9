package tracep_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tracep"
	"tracep/internal/emu"
	"tracep/internal/isa"
	"tracep/internal/tracefile"
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
// .tptrace file, loaded back through Corpus (which decodes each recording
// and holds it to its embedded program), and swept across all eight
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

	// (a) One flipped byte in a block payload: the byte just before the
	// 16-byte trailer ends the last block's payload. The load reads every
	// block, so the file fails there.
	flipped := filepath.Join(t.TempDir(), "flipped"+tracep.TraceExt)
	mut := bytes.Clone(data)
	mut[len(mut)-17] ^= 0x01
	if err := os.WriteFile(flipped, mut, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := tracep.FromTraceFile(flipped); !errors.Is(err, tracep.ErrCorruptTrace) {
		t.Fatalf("FromTraceFile(payload byte flipped) = %v, want ErrCorruptTrace", err)
	}

	// (b) A recording whose every checksum holds but whose path the program
	// does not take: the emulator's records with one load address moved.
	offDir := t.TempDir()
	off := filepath.Join(offDir, "compress"+tracep.TraceExt)
	rec := writeOffPath(t, off, 5000)
	_, err = tracep.FromTraceFile(off)
	if !errors.Is(err, tracep.ErrCorruptTrace) || !strings.Contains(err.Error(), fmt.Sprintf("record %d ", rec)) {
		t.Fatalf("FromTraceFile(off-path) = %v, want ErrCorruptTrace naming record %d", err, rec)
	}

	// (c) A corpus holding it fails as a whole.
	if _, err := tracep.Corpus(offDir); !errors.Is(err, tracep.ErrCorruptTrace) {
		t.Fatalf("Corpus(off-path recording) = %v, want ErrCorruptTrace", err)
	}

	bm, err := tracep.FromTraceFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bm.Recorded == nil || bm.Recorded.Records() == 0 {
		t.Fatal("recorded benchmark carries no recording metadata")
	}
}

// writeOffPath writes compress, sized for targetInsts, to path through
// tracefile.NewWriter from the emulator's own records, except that the
// address of a load about halfway along is moved by one word. It returns
// that record's index.
func writeOffPath(t *testing.T, path string, targetInsts uint64) uint64 {
	t.Helper()
	bm, err := tracep.BenchmarkByName("compress")
	if err != nil {
		t.Fatal(err)
	}
	prog := bm.Build(bm.ScaleFor(targetInsts))
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	w, err := tracefile.NewWriter(f, prog, tracefile.Meta{Name: bm.Name, InstsPerIter: bm.InstsPerIter, TargetInsts: targetInsts})
	if err != nil {
		t.Fatal(err)
	}
	e := emu.New(prog)
	var rec emu.Record
	moved := uint64(0)
	for !e.Halted {
		e.Step(&rec)
		if moved == 0 && e.Count > targetInsts/2 && rec.Inst.Op == isa.OpLoad {
			moved = e.Count - 1
			rec.Addr++
		}
		if err := w.Add(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if moved == 0 {
		t.Fatal("compress retired no load past its midpoint")
	}
	return moved
}
