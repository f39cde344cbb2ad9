package main

import (
	"bytes"
	"context"
	"encoding/json"
	"expvar"
	"fmt"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tracep"
	"tracep/client"
	"tracep/server"
)

// serviceSpec sizes the service workload's traffic: two closed-loop
// clients, each making writes writes per repetition, each write followed by
// reads reads of recently finished jobs. A write sweeps one benchmark under
// every model at insts instructions, cycling through shapes fixed
// (benchmark, seed) shapes.
type serviceSpec struct {
	writes, reads, shapes int
	insts                 uint64
}

var serviceTraffic = serviceSpec{writes: 20, reads: 4, shapes: 16, insts: 5_000}

const (
	serviceClients = 2
	// readWindow is how many of the most recently finished jobs a read
	// picks from; the manager retains twice that, so none is evicted
	// before its read. Every retained job keeps its cells' processors
	// reachable, so retention sets the workload's memory.
	readWindow    = 4
	serviceRetain = 8
)

// tagHeader carries a per-request tag from the benchmark's transport to its
// timing middleware, so client and handler times of one request pair up.
const tagHeader = "X-Tracepbench-Tag"

// serviceHarness is a durable tracepd in this process, behind a loopback
// HTTP server, with two clients.
type serviceHarness struct {
	spec    serviceSpec
	mgr     *server.Manager
	srv     *httptest.Server
	timing  *timing
	clients []*benchClient
	shapes  []server.SweepRequest
	// refs[i] is the in-process Sweep's ResultSet JSON for shapes[i].
	refs     [][]byte
	counted  map[string]uint64
	storeDir string

	mu     sync.Mutex
	recent []written // the last readWindow finished writes, oldest first
}

// written is one finished write: its job and what the client collected.
type written struct {
	id    string
	shape int
	rs    *tracep.ResultSet
}

type benchClient struct {
	*client.Client
	tags *tagTransport
	rng  *rand.Rand
}

func newServiceHarness(ctx context.Context, spec serviceSpec, seed int64, workDir string) (*serviceHarness, error) {
	h := &serviceHarness{spec: spec, timing: &timing{}}
	suite := tracep.Benchmarks()
	var all []*tracep.Result
	for i := 0; i < spec.shapes; i++ {
		bm := suite[i%len(suite)]
		shapeSeed := seed + int64(i/len(suite))
		h.shapes = append(h.shapes, server.SweepRequest{
			Benchmarks:  []string{bm.Name},
			TargetInsts: spec.insts,
			Seed:        shapeSeed,
		})
		sw := &tracep.Sweep{
			Benchmarks:  []tracep.Benchmark{bm},
			Models:      tracep.Models(),
			TargetInsts: spec.insts,
			Seed:        shapeSeed,
			Parallelism: slots,
			Gate:        tracep.NewGate(slots),
		}
		rs, err := sw.Run(ctx)
		if err == nil {
			err = rs.Err()
		}
		if err != nil {
			return nil, fmt.Errorf("service reference %d: %w", i, err)
		}
		ref, err := json.Marshal(rs)
		if err != nil {
			return nil, err
		}
		h.refs = append(h.refs, ref)
		all = append(all, rs.Results()...)
	}
	h.counted = statCounts(all)

	dir, err := os.MkdirTemp(workDir, "store-")
	if err != nil {
		return nil, err
	}
	h.storeDir = dir
	h.mgr, err = server.OpenManager(server.Config{Parallelism: slots, Retain: serviceRetain, StoreDir: dir})
	if err != nil {
		return nil, err
	}
	h.srv = httptest.NewServer(h.timing.wrap(h.mgr.Handler()))
	for c := 0; c < serviceClients; c++ {
		tags := &tagTransport{prefix: strconv.Itoa(c), base: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
		cl := client.New(h.srv.URL)
		cl.HTTPClient = &http.Client{Transport: tags}
		h.clients = append(h.clients, &benchClient{Client: cl, tags: tags,
			rng: rand.New(rand.NewPCG(uint64(seed), uint64(c)))})
	}
	return h, nil
}

func (h *serviceHarness) close() {
	h.srv.Close()
	h.mgr.Close()
	for _, c := range h.clients {
		c.tags.base.(*http.Transport).CloseIdleConnections()
	}
}

func (h *serviceHarness) counts() map[string]uint64 { return h.counted }

func (h *serviceHarness) rep(ctx context.Context) repOut { return h.run(ctx, nil) }

func (h *serviceHarness) traced(ctx context.Context, tr *tracer) repOut {
	before := h.cellCounters()
	h.timing.start(tr)
	out := h.run(ctx, tr)
	h.timing.stop()
	after := h.cellCounters()
	tr.serverCells = [2]int64{after[0] - before[0], after[1] - before[1]}
	return out
}

// cellCounters reads the manager's completed and failed cell counters.
func (h *serviceHarness) cellCounters() [2]int64 {
	get := func(name string) int64 {
		if v, ok := h.mgr.Metrics().Get(name).(*expvar.Int); ok {
			return v.Value()
		}
		return 0
	}
	return [2]int64{get("cells_completed_total"), get("cells_failed_total")}
}

// read is one read whose result is checked once the repetition ends.
type read struct {
	want *tracep.ResultSet
	got  *tracep.ResultSet
}

// clientLog is what one client did during a repetition.
type clientLog struct {
	writes, reads []float64
	// firsts holds each write's seconds from submission to its first cell.
	firsts        []float64
	done          []written
	errs          []error
	rds           []read
	insts, cycles uint64
	cells         int
	skipped       int
	// overhead pairs a read's client time with its request tag (traced
	// repetitions only).
	overhead []tagged
}

type tagged struct {
	tag string
	ms  float64
}

func (h *serviceHarness) run(ctx context.Context, tr *tracer) repOut {
	logs := make([]clientLog, len(h.clients))
	var wg sync.WaitGroup
	for c := range h.clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			h.drive(ctx, c, &logs[c], tr)
		}(c)
	}
	wg.Wait()

	var out repOut
	var all clientLog
	for _, l := range logs {
		all.firsts = append(all.firsts, l.firsts...)
		out.writes = append(out.writes, l.writes...)
		out.reads = append(out.reads, l.reads...)
		out.insts += l.insts
		out.cycles += l.cycles
		out.cells += l.cells
		all.done = append(all.done, l.done...)
		all.errs = append(all.errs, l.errs...)
		all.skipped += l.skipped
		all.rds = append(all.rds, l.rds...)
		all.overhead = append(all.overhead, l.overhead...)
	}
	out.first = median0(all.firsts)
	out.lat = append(append(out.lat, out.writes...), out.reads...)
	out.attempted = serviceClients * h.spec.writes * (1 + h.spec.reads)
	if tr != nil {
		for _, o := range all.overhead {
			if ms, ok := h.timing.handlerMS(o.tag); ok {
				tr.overheadMS = append(tr.overheadMS, o.ms-ms)
			}
		}
	}
	out.verify = func() ([]byte, int, []string) {
		failed := len(all.errs) + all.skipped
		var why []string
		for _, err := range all.errs {
			why = append(why, err.Error())
		}
		for _, w := range all.done {
			got, _ := json.Marshal(w.rs)
			if !bytes.Equal(got, h.refs[w.shape]) {
				failed++
				why = append(why, fmt.Sprintf("write %s (shape %d) differs from the in-process Sweep", w.id, w.shape))
			}
		}
		for _, r := range all.rds {
			want, _ := json.Marshal(r.want)
			got, _ := json.Marshal(r.got)
			if !bytes.Equal(got, want) {
				failed++
				why = append(why, "a read differs from what its write returned")
			}
		}
		return bytes.Join(h.refs, []byte("\n")), failed, why
	}
	return out
}

// drive is one closed-loop client: each write submits a sweep and collects
// its stream, then the client reads finished jobs back.
func (h *serviceHarness) drive(ctx context.Context, c int, log *clientLog, tr *tracer) {
	cl := h.clients[c]
	for w := 0; w < h.spec.writes; w++ {
		shape := (c + serviceClients*w) % h.spec.shapes
		op := fmt.Sprintf("client%d/write%d", c, w)
		t0 := time.Now()
		var sp *span
		if tr != nil {
			sp = tr.begin("client.write", op, 0, 10+c)
		}
		first := 0.0
		st, err := cl.Submit(ctx, h.shapes[shape])
		var rs *tracep.ResultSet
		if err == nil {
			rs, _, err = cl.Collect(ctx, st.ID, func(*tracep.Result) error {
				if first == 0 {
					first = time.Since(t0).Seconds()
				}
				return nil
			})
		}
		if sp != nil {
			tr.end(sp)
		}
		log.writes = append(log.writes, float64(time.Since(t0))/1e6)
		log.firsts = append(log.firsts, first)
		if err != nil {
			// The write's reads never happen; they count as failed too.
			log.errs = append(log.errs, fmt.Errorf("%s (and its %d reads): %w", op, h.spec.reads, err))
			log.skipped += h.spec.reads
			continue
		}
		for _, res := range rs.Results() {
			log.cells++
			if res.Stats != nil {
				log.insts += res.Stats.RetiredInsts
				log.cycles += res.Stats.Cycles
			}
		}
		wr := written{id: st.ID, shape: shape, rs: rs}
		log.done = append(log.done, wr)
		h.mu.Lock()
		h.recent = append(h.recent, wr)
		if len(h.recent) > readWindow {
			h.recent = h.recent[len(h.recent)-readWindow:]
		}
		window := append([]written(nil), h.recent...)
		h.mu.Unlock()

		for r := 0; r < h.spec.reads; r++ {
			target := window[cl.rng.IntN(len(window))]
			op := fmt.Sprintf("client%d/read%d.%d", c, w, r)
			t0 := time.Now()
			if tr != nil {
				sp = tr.begin("client.read", op, 0, 10+c)
			}
			got, err := cl.ResultSet(ctx, target.id)
			ms := float64(time.Since(t0)) / 1e6
			if tr != nil {
				tr.end(sp)
				log.overhead = append(log.overhead, tagged{cl.tags.last.Load().(string), ms})
			}
			log.reads = append(log.reads, ms)
			if err != nil {
				log.errs = append(log.errs, fmt.Errorf("%s: %w", op, err))
				continue
			}
			log.rds = append(log.rds, read{want: target.rs, got: got})
		}
	}
}

// tagTransport stamps every request with a unique tag and remembers the
// last one it sent; each client is sequential, so after a call returns the
// tag names that call's final request.
type tagTransport struct {
	prefix string
	base   http.RoundTripper
	n      atomic.Int64
	last   atomic.Value
}

func (t *tagTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	tag := t.prefix + "-" + strconv.FormatInt(t.n.Add(1), 10)
	t.last.Store(tag)
	r := req.Clone(req.Context())
	r.Header.Set(tagHeader, tag)
	return t.base.RoundTrip(r)
}

// timing is a middleware around Manager.Handler that, while a tracer is
// attached, records each handler call's duration by route and by tag.
type timing struct {
	tr    atomic.Pointer[tracer]
	mu    sync.Mutex
	byTag map[string]float64
}

func (t *timing) start(tr *tracer) {
	t.mu.Lock()
	t.byTag = map[string]float64{}
	t.mu.Unlock()
	t.tr.Store(tr)
}

func (t *timing) stop() { t.tr.Store(nil) }

func (t *timing) handlerMS(tag string) (float64, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	ms, ok := t.byTag[tag]
	return ms, ok
}

func (t *timing) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tr := t.tr.Load()
		if tr == nil {
			h.ServeHTTP(w, r)
			return
		}
		tag := r.Header.Get(tagHeader)
		sp := tr.begin(route(r), tag, 0, 20)
		h.ServeHTTP(w, r)
		tr.end(sp)
		t.mu.Lock()
		t.byTag[tag] = float64(sp.dur()) / 1e6
		t.mu.Unlock()
	})
}

// route names a request by the API endpoint it hits.
func route(r *http.Request) string {
	switch {
	case r.Method == http.MethodPost && r.URL.Path == "/v1/sweeps":
		return "server.post_sweeps"
	case r.Method == http.MethodGet && strings.HasSuffix(r.URL.Path, "/stream"):
		return "server.stream"
	case r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/v1/sweeps/"):
		return "server.get_sweep"
	}
	return "server.other"
}

// dirKB sums the sizes of the regular files under dir, in KiB.
func dirKB(dir string) float64 {
	var n int64
	_ = filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if fi, err := d.Info(); err == nil {
				n += fi.Size()
			}
		}
		return nil
	})
	return float64(n) / 1024
}
