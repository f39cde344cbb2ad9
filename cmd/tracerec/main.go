// Command tracerec captures workloads to .tptrace recordings: it emulates
// each benchmark's program to architectural halt and writes the program
// image with the committed path's record count and digest, in the
// recorded-trace format defined by internal/tracefile (a few hundred bytes
// per workload, whatever its length). The resulting files load through
// tracep.FromTraceFile and tracep.Corpus, which hold each program to its
// count and digest — and a directory of them is a corpus for
// `experiments -corpus` or a tracepd started with -corpus.
//
// Usage:
//
//	tracerec -o traces/                      # capture the full 8-workload suite
//	tracerec -o traces/ -bench compress,gcc  # a subset
//	tracerec -o traces/ -n 500000            # sized to ~500k dynamic insts
//	tracerec -o traces/ -gen-seeds 1,2,3     # synthetic generator workloads too
//
// Each workload lands in <out>/<name>.tptrace; a capture that fails leaves
// no partial file behind.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"

	"tracep"
)

func main() {
	out := flag.String("o", ".", "output directory for .tptrace files")
	benches := flag.String("bench", "", "comma-separated workload names (default: the full suite)")
	n := flag.Uint64("n", 300_000, "dynamic instruction target each workload is sized for")
	genSeeds := flag.String("gen-seeds", "", "comma-separated seeds; each adds a synthetic gen-<seed> workload")
	quiet := flag.Bool("q", false, "suppress per-capture progress lines")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	bms, err := selectWorkloads(*benches, *genSeeds)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tracerec:", err)
		os.Exit(2)
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "tracerec:", err)
		os.Exit(1)
	}

	for _, bm := range bms {
		path := filepath.Join(*out, bm.Name+tracep.TraceExt)
		recs, err := tracep.CaptureTraceFile(ctx, bm, *n, path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tracerec:", err)
			os.Exit(1)
		}
		if !*quiet {
			fi, _ := os.Stat(path)
			var size int64
			if fi != nil {
				size = fi.Size()
			}
			fmt.Printf("%s: %d insts, %d bytes\n", path, recs, size)
		}
	}
}

// selectWorkloads resolves the -bench and -gen-seeds flags into benchmarks,
// defaulting to the full suite when neither selects anything.
func selectWorkloads(names, genSeeds string) ([]tracep.Benchmark, error) {
	var bms []tracep.Benchmark
	if names != "" {
		for _, name := range strings.Split(names, ",") {
			bm, err := tracep.BenchmarkByName(strings.TrimSpace(name))
			if err != nil {
				return nil, err
			}
			bms = append(bms, bm)
		}
	}
	if genSeeds != "" {
		for _, s := range strings.Split(genSeeds, ",") {
			seed, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
			if err != nil {
				return nil, fmt.Errorf("bad -gen-seeds entry %q: %v", s, err)
			}
			bms = append(bms, tracep.Generated(tracep.DefaultGenConfig(seed)))
		}
	}
	if len(bms) == 0 {
		bms = tracep.Benchmarks()
	}
	return bms, nil
}
