package tracep

import (
	"context"
	"fmt"
	"io"
	"os"

	"tracep/internal/bench"
	"tracep/internal/tracefile"
)

// ErrCorruptTrace is the sentinel wrapped by errors reporting an invalid
// .tptrace file — bad magic, checksum mismatch, truncation, a format
// version other than the current one (record the workload again), or a
// program whose path does not match the recorded count and digest; test
// with errors.Is. FromTraceFile and Corpus check every recording at load,
// so corruption surfaces there rather than mid-simulation.
var ErrCorruptTrace = tracefile.ErrCorruptTrace

// TraceExt is the conventional file extension of recorded traces.
const TraceExt = tracefile.Ext

// FromTraceFile loads a .tptrace recording as a Benchmark: the program
// image embedded in the file replaces the in-process generator. The load
// emulates the program to its halt and checks the recorded record count
// and path digest, so the recording is held to its program once, here;
// the file is not read again.
// Simulations of the benchmark verify against the emulator (Config.Verify)
// like those of any program. The benchmark keeps the recording's workload
// name, so it slots into Sweep grids, baselines and warm-up overrides
// exactly like the generated suite:
//
//	bm, err := tracep.FromTraceFile("traces/compress.tptrace")
//	...
//	res, err := tracep.NewBenchmark(bm, 300_000).Run(ctx)
//
// Empty, truncated, corrupt, off-path and version-1 recordings fail here
// with errors wrapping ErrCorruptTrace.
func FromTraceFile(path string) (Benchmark, error) {
	return bench.FromTraceFile(path)
}

// Corpus loads every .tptrace file in dir as a Benchmark, sorted by
// filename — a directory of recordings becomes a sweepable suite:
//
//	bms, err := tracep.Corpus("traces/")
//	...
//	sw := tracep.Sweep{Benchmarks: bms, Models: tracep.Models(), TargetInsts: 300_000}
//
// An empty directory or two recordings claiming the same workload name are
// errors (a silently empty sweep would masquerade as success).
func Corpus(dir string) ([]Benchmark, error) {
	return bench.Corpus(dir)
}

// CaptureTrace records bm to w as a .tptrace file: the workload is built
// for targetInsts (exactly like NewBenchmark) and emulated to its
// architectural halt, and the file holds the program with its committed
// path's record count and digest, so a later replay at the same
// TargetInsts retires the identical instruction sequence. It returns the
// number of instructions captured. Cancelling ctx abandons the capture.
func CaptureTrace(ctx context.Context, bm Benchmark, targetInsts uint64, w io.Writer) (uint64, error) {
	prog, err := buildProgram(bm, targetInsts)
	if err != nil {
		return 0, fmt.Errorf("tracep: %s: %w", bm.Name, err)
	}
	meta := tracefile.Meta{Name: bm.Name, InstsPerIter: bm.InstsPerIter, TargetInsts: targetInsts}
	n, err := tracefile.Capture(ctx, w, prog, meta, 0)
	if err != nil {
		return n, fmt.Errorf("tracep: %s: %w", bm.Name, err)
	}
	return n, nil
}

// CaptureTraceFile captures bm (see CaptureTrace) to path, creating or
// truncating it. On error the partial file is removed — a .tptrace on disk
// is always a complete capture.
func CaptureTraceFile(ctx context.Context, bm Benchmark, targetInsts uint64, path string) (uint64, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, fmt.Errorf("tracep: %s: %w", bm.Name, err)
	}
	n, err := CaptureTrace(ctx, bm, targetInsts, f)
	if cerr := f.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("tracep: %s: %w", bm.Name, cerr)
	}
	if err != nil {
		os.Remove(path)
		return n, err
	}
	return n, nil
}
