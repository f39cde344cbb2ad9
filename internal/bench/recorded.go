package bench

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"tracep/internal/isa"
	"tracep/internal/tracefile"
)

// RecordedTrace ties a Benchmark to the .tptrace file it was loaded from.
// The file holds the program with its committed path's record count and
// digest; the program was held to both once, at load, and the file is not
// read again.
type RecordedTrace struct {
	path string
	hdr  tracefile.Header
}

// Path returns the trace file the benchmark was loaded from.
func (rt *RecordedTrace) Path() string { return rt.path }

// Records returns the total committed-record count of the recording.
func (rt *RecordedTrace) Records() uint64 { return rt.hdr.Records }

// FromTraceFile loads path as a recorded-trace Benchmark: the embedded
// program replaces Build (every scale returns the same image — a recording
// has one fixed committed path), and Recorded names the file. The program
// is emulated to its halt and held to the recorded count and digest here
// (tracefile.Load), so a corrupt, truncated, off-path or version-1 capture
// fails at load with an error wrapping tracefile.ErrCorruptTrace, never at
// simulation time. Simulations of the benchmark verify against the
// emulator like any other program.
func FromTraceFile(path string) (Benchmark, error) {
	f, err := os.Open(path)
	if err != nil {
		return Benchmark{}, fmt.Errorf("bench: loading trace %s: %w", path, err)
	}
	defer f.Close()
	hdr, prog, err := tracefile.Load(f)
	if err != nil {
		return Benchmark{}, fmt.Errorf("bench: loading trace %s: %w", path, err)
	}
	name := hdr.Name
	if name == "" {
		name = strings.TrimSuffix(filepath.Base(path), tracefile.Ext)
	}
	ipi := hdr.InstsPerIter
	if ipi <= 0 {
		// A recording replays one fixed path; with no per-iteration
		// estimate the whole recording is "one iteration".
		ipi = int64(hdr.Records)
	}
	return Benchmark{
		Name:     name,
		Analogue: "recorded",
		Profile:  fmt.Sprintf("recorded trace (%d insts) from %s", hdr.Records, filepath.Base(path)),
		Build:    func(scale int64) *isa.Program { return prog },
		Recorded: &RecordedTrace{path: path, hdr: hdr},

		InstsPerIter: ipi,
	}, nil
}

// Corpus loads every *.tptrace file in dir (sorted by filename, so corpus
// order — and therefore ResultSet order — is deterministic) as a recorded
// Benchmark. An empty or missing directory and colliding workload names are
// errors: a silent zero-benchmark sweep would look like success.
func Corpus(dir string) ([]Benchmark, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*"+tracefile.Ext))
	if err != nil {
		return nil, fmt.Errorf("bench: scanning corpus %s: %w", dir, err)
	}
	if len(paths) == 0 {
		if _, statErr := os.Stat(dir); statErr != nil {
			return nil, fmt.Errorf("bench: corpus directory: %w", statErr)
		}
		return nil, fmt.Errorf("bench: %w: corpus %s contains no %s files", ErrInvalidBenchmark, dir, tracefile.Ext)
	}
	sort.Strings(paths)
	bms := make([]Benchmark, 0, len(paths))
	seen := make(map[string]string, len(paths))
	for _, path := range paths {
		bm, err := FromTraceFile(path)
		if err != nil {
			return nil, err
		}
		if prev, dup := seen[bm.Name]; dup {
			return nil, fmt.Errorf("bench: %w: corpus traces %s and %s both record workload %q",
				ErrInvalidBenchmark, prev, path, bm.Name)
		}
		seen[bm.Name] = path
		bms = append(bms, bm)
	}
	return bms, nil
}
