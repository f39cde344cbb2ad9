package server

import (
	"context"
	"sync"

	"tracep"
)

// RowSpec is one benchmark row of a job's grid, resolved and self-contained:
// everything a node needs to simulate the row's cells. The row is the
// placement unit of a distributed sweep — the node that runs it builds its
// program once and captures its warm-up snapshot once, shared by every model
// cell — so the Runner decides placement per row, never per cell.
type RowSpec struct {
	// Bench is the resolved workload. A corpus row is one whose
	// Bench.Recorded is set: it runs the program of a .tptrace recording
	// that only this server holds, so a coordinator never moves it to a
	// worker. A suite row never has Recorded set, even when a
	// recording of the same name is in the corpus.
	Bench tracep.Benchmark
	// Models lists the cells to simulate for this row: those the job does
	// not hold yet. Submit is a resume whose journal holds no cells, so a
	// fresh job sends the full model axis and a resumed one only the
	// models whose cells were not yet durable.
	Models      []tracep.Model
	TargetInsts uint64
	Seed        int64
	// Warmup is the row's effective warm-up length (the job's WarmupFor
	// override already applied).
	Warmup uint64
}

// Cells returns the number of cells the spec will deliver.
func (r RowSpec) Cells() int { return len(r.Models) }

// A Runner executes a job's rows and streams their cells back — the seam
// between the Manager's job lifecycle (validation, persistence, replay,
// retention) and where simulation actually happens. The local runner
// simulates on this process's pool; the cluster coordinator
// (server/cluster) shards rows across worker tracepds. The Manager is
// indifferent: either way it collects a Sweep.Stream-shaped channel, and
// a fresh job and a resumed one reach Run through the same function.
//
// The returned channel must deliver every cell of every row exactly once
// and close after the last delivery; cancelling ctx must stop work promptly
// and close the channel after in-flight cells land (the Sweep.Stream
// contract). Implementations must deliver cells whose Result values are
// byte-identical to an in-process tracep.Sweep over the same grid —
// simulation is deterministic, so placement must never show through.
type Runner interface {
	Run(ctx context.Context, rows []RowSpec) <-chan *tracep.Result
}

// LocalRunner returns the in-process Runner the Manager uses by default:
// one tracep.Sweep per row, all sharing gate. The cluster coordinator uses
// it as its degradation path — when every worker is down or a row cannot
// move (corpus recordings live on the coordinator), rows run here under
// the same gate as everything else.
func LocalRunner(parallelism int, gate *tracep.Gate) Runner {
	return &localRunner{parallelism: parallelism, gate: gate}
}

// localRunner simulates rows in-process: one tracep.Sweep per row (build
// once, warm up once, cells fan out across the sweep's workers), all rows'
// sweeps sharing the server's Gate so total simulation concurrency stays
// bounded no matter how many rows or jobs are live.
type localRunner struct {
	parallelism int
	gate        *tracep.Gate
}

// sweepForRow builds the one-row tracep.Sweep a RowSpec describes. It is
// the single translation point from placement unit to simulation — the
// coordinator's workers and the local runner both funnel through the same
// Sweep semantics, which is what keeps cluster and in-process results
// byte-identical.
func sweepForRow(row RowSpec, parallelism int, gate *tracep.Gate) *tracep.Sweep {
	return &tracep.Sweep{
		Benchmarks:  []tracep.Benchmark{row.Bench},
		Models:      row.Models,
		TargetInsts: row.TargetInsts,
		Seed:        row.Seed,
		Warmup:      row.Warmup,
		Parallelism: parallelism,
		Gate:        gate,
	}
}

func (r *localRunner) Run(ctx context.Context, rows []RowSpec) <-chan *tracep.Result {
	total := 0
	for _, row := range rows {
		total += row.Cells()
	}
	out := make(chan *tracep.Result, total)
	var wg sync.WaitGroup
	for _, row := range rows {
		sw := sweepForRow(row, r.parallelism, r.gate)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for res := range sw.Stream(ctx) {
				out <- res
			}
		}()
	}
	go func() {
		wg.Wait()
		close(out)
	}()
	return out
}
