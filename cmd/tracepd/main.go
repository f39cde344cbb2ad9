// Command tracepd serves the trace-processor sweep engine over HTTP: a
// long-lived simulation service that accepts (benchmark × model) grids,
// streams each cell's result as it completes (NDJSON), and retains
// finished ResultSets for replay and diffing. See package server for the
// API and tracep/client for the Go client; cmd/experiments -server runs
// the paper's tables against a remote tracepd.
//
// Usage:
//
//	tracepd                      # serve on :8089, GOMAXPROCS-wide pool
//	tracepd -addr :9000 -j 4     # custom listen address, 4 simulations at once
//	tracepd -retain 100          # keep the last 100 finished sweeps
//	tracepd -target-insts 500000 # default workload size for requests that omit it
//	tracepd -corpus traces/      # serve the directory's .tptrace recordings
//	                             # as workloads requestable by name (corpus)
//	tracepd -store /var/tracepd  # durable job store: sweeps survive restarts
//	                             # (finished ones replay, interrupted ones resume)
//	tracepd -coordinator -worker http://w1:8089,http://w2:8089
//	                             # shard benchmark rows across worker tracepds
//	                             # (work-stealing, retry, local fallback)
//
// The -j pool is shared across every concurrent sweep: N clients cannot
// oversubscribe the host. SIGINT/SIGTERM shut down gracefully — live
// sweeps are cancelled, their workers drained, then the listener closes;
// with -store, interrupted sweeps resume on the next start from exactly
// the cells that were not yet durable.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"tracep"
	"tracep/server"
	"tracep/server/cluster"
)

func main() {
	addr := flag.String("addr", ":8089", "listen address")
	j := flag.Int("j", 0, "simulations in flight across all sweeps (0 = GOMAXPROCS)")
	retain := flag.Int("retain", server.DefaultRetain, "finished sweeps retained for replay/diff")
	targetInsts := flag.Uint64("target-insts", server.DefaultTargetInsts,
		"default dynamic instruction target for requests that omit target_insts")
	corpusDir := flag.String("corpus", "", "directory of .tptrace recordings served as corpus workloads")
	storeDir := flag.String("store", "", "durable job-store directory (the job journal); empty = memory-only")
	coordinator := flag.Bool("coordinator", false, "shard benchmark rows across -worker tracepds instead of simulating locally")
	workerList := flag.String("worker", "", "comma-separated worker tracepd base URLs (with -coordinator)")
	stealAfter := flag.Duration("steal-after", cluster.DefaultStealAfter, "re-place a row still running after this long (with -coordinator)")
	flag.Parse()

	var corpus []tracep.Benchmark
	if *corpusDir != "" {
		var err error
		if corpus, err = tracep.Corpus(*corpusDir); err != nil {
			fmt.Fprintf(os.Stderr, "tracepd: loading corpus: %v\n", err)
			os.Exit(1)
		}
		log.Printf("tracepd: corpus %s: %d recording(s)", *corpusDir, len(corpus))
	}

	// The gate is created here (rather than letting the Manager default it)
	// so a coordinator's local-fallback pool shares the same bound.
	pool := *j
	if pool <= 0 {
		pool = runtime.GOMAXPROCS(0)
	}
	gate := tracep.NewGate(pool)

	scfg := server.Config{
		Parallelism:        *j,
		Retain:             *retain,
		DefaultTargetInsts: *targetInsts,
		Corpus:             corpus,
		Gate:               gate,
		StoreDir:           *storeDir,
	}
	var coord *cluster.Coordinator
	if *coordinator {
		var workers []string
		for _, u := range strings.Split(*workerList, ",") {
			if u = strings.TrimSpace(u); u != "" {
				workers = append(workers, u)
			}
		}
		if len(workers) == 0 {
			fmt.Fprintln(os.Stderr, "tracepd: -coordinator requires at least one -worker URL")
			os.Exit(1)
		}
		coord = cluster.New(cluster.Config{
			Workers:     workers,
			Parallelism: *j,
			Gate:        gate,
			StealAfter:  *stealAfter,
		})
		scfg.Runner = coord
		log.Printf("tracepd: coordinator over %d worker(s)", len(workers))
	}

	var mgr *server.Manager
	if *storeDir != "" {
		var err error
		if mgr, err = server.OpenManager(scfg); err != nil {
			fmt.Fprintf(os.Stderr, "tracepd: opening store %s: %v\n", *storeDir, err)
			os.Exit(1)
		}
		log.Printf("tracepd: durable store at %s", *storeDir)
	} else {
		mgr = server.NewManager(scfg)
	}
	if coord != nil {
		coord.PublishMetrics(mgr.Metrics())
	}
	srv := &http.Server{Addr: *addr, Handler: logRequests(mgr.Handler())}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	log.Printf("tracepd: serving on %s (pool=%d, retain=%d)", *addr, *j, *retain)

	select {
	case <-ctx.Done():
		log.Print("tracepd: shutting down")
		// Drain the manager first: cancelling live sweeps turns their jobs
		// terminal, which lets open stream requests finish with a done
		// event — otherwise Shutdown would block on them until its
		// deadline. New submissions are rejected from here on.
		mgr.Close()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil {
			log.Printf("tracepd: shutdown: %v", err)
		}
	case err := <-errCh:
		if !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
}

func logRequests(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		next.ServeHTTP(w, r)
		log.Printf("%s %s %s", r.Method, r.URL.Path, time.Since(start).Round(time.Millisecond))
	})
}
