// Package client is the typed Go client for tracepd (see package server):
// it submits sweeps, follows their NDJSON cell streams, and rebuilds
// tracep.ResultSets that are byte-identical — same deterministic grid
// ordering, same JSON — to running the sweep in-process with tracep.Sweep.
//
// The one-call path mirrors Sweep.Run:
//
//	c := client.New("http://localhost:8089")
//	rs, err := c.Run(ctx, server.SweepRequest{
//		Benchmarks:  []string{"compress", "vortex"},
//		TargetInsts: 300_000,
//	})
//
// Run submits, streams every cell as it completes, and returns the
// collected set; cancelling ctx cancels the remote sweep too (best-effort
// DELETE) and returns the partial set with ctx.Err, matching Sweep.Run's
// contract. Stream gives per-cell delivery for live dashboards; Status,
// ResultSet and Cancel map one-to-one onto the HTTP API.
package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"time"

	"tracep"
	"tracep/server"
)

// Client speaks tracepd's wire format. The zero value is not useful; use
// New, or populate BaseURL.
type Client struct {
	// BaseURL is the server root, e.g. "http://localhost:8089".
	BaseURL string
	// HTTPClient, when nil, falls back to http.DefaultClient. Streaming
	// requests need a client without an overall timeout; per-call deadlines
	// belong on the context.
	HTTPClient *http.Client
}

// New returns a client for the tracepd instance at baseURL.
func New(baseURL string) *Client {
	return &Client{BaseURL: strings.TrimRight(baseURL, "/")}
}

func (c *Client) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

func (c *Client) url(parts ...string) string {
	return strings.TrimRight(c.BaseURL, "/") + "/v1/sweeps" + strings.Join(parts, "")
}

// do issues a request and decodes the JSON response into out, translating
// non-2xx responses into *server.Error values.
func (c *Client) do(ctx context.Context, method, rawURL string, body, out any) error {
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, method, rawURL, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if err := checkStatus(resp); err != nil {
		return err
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

func checkStatus(resp *http.Response) error {
	if resp.StatusCode >= 200 && resp.StatusCode < 300 {
		return nil
	}
	var apiErr server.Error
	data, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	if json.Unmarshal(data, &apiErr) == nil && apiErr.Message != "" {
		apiErr.StatusCode = resp.StatusCode
		return &apiErr
	}
	return &server.Error{StatusCode: resp.StatusCode, Message: strings.TrimSpace(string(data))}
}

// Submit starts a sweep on the server and returns its initial status
// (including the job ID and the resolved grid axes).
func (c *Client) Submit(ctx context.Context, req server.SweepRequest) (*server.Status, error) {
	var st server.Status
	if err := c.do(ctx, http.MethodPost, c.url(), req, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// Status fetches a job's status including its collected (possibly still
// growing) ResultSet.
func (c *Client) Status(ctx context.Context, id string) (*server.Status, error) {
	var st server.Status
	if err := c.do(ctx, http.MethodGet, c.url("/", url.PathEscape(id)), nil, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// List returns every job the server retains, in submission order.
func (c *Client) List(ctx context.Context) ([]server.Status, error) {
	var sts []server.Status
	if err := c.do(ctx, http.MethodGet, c.url(), nil, &sts); err != nil {
		return nil, err
	}
	return sts, nil
}

// Corpus lists the server's recorded-trace workloads (GET /v1/corpus) —
// the names SweepRequest.Corpus resolves against.
func (c *Client) Corpus(ctx context.Context) ([]server.CorpusEntry, error) {
	var entries []server.CorpusEntry
	url := strings.TrimRight(c.BaseURL, "/") + "/v1/corpus"
	if err := c.do(ctx, http.MethodGet, url, nil, &entries); err != nil {
		return nil, err
	}
	return entries, nil
}

// Cancel stops a job (the server cancels the sweep's context) and returns
// its terminal status.
func (c *Client) Cancel(ctx context.Context, id string) (*server.Status, error) {
	var st server.Status
	if err := c.do(ctx, http.MethodDelete, c.url("/", url.PathEscape(id)), nil, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// ResultSet fetches a job's collected ResultSet as the server holds it.
// For a terminal job this is the complete (or cancelled-partial) set. The
// status body is read once and its results decoded in one pass over it
// (tracep.DecodeResultSetMember); the status's other fields are not
// decoded.
func (c *Client) ResultSet(ctx context.Context, id string) (*tracep.ResultSet, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.url("/", url.PathEscape(id)), nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if err := checkStatus(resp); err != nil {
		return nil, err
	}
	var body bytes.Buffer
	if resp.ContentLength > 0 {
		body.Grow(int(resp.ContentLength) + bytes.MinRead)
	}
	if _, err := body.ReadFrom(resp.Body); err != nil {
		return nil, err
	}
	rs, err := tracep.DecodeResultSetMember(body.Bytes(), "results")
	if err != nil {
		return nil, fmt.Errorf("tracepd: sweep %s status: %w", id, err)
	}
	if rs == nil {
		return nil, fmt.Errorf("tracepd: sweep %s status carried no results", id)
	}
	return rs, nil
}

// Stream follows a job's NDJSON cell stream, invoking fn for every cell in
// completion order — each exactly once per connection, replayed from the
// job's first cell — and returns the terminal status from the stream's
// done event. A non-nil error from fn stops the stream and is returned.
// Cancelling ctx closes the connection (the remote sweep keeps running;
// use Cancel for that).
func (c *Client) Stream(ctx context.Context, id string, fn func(*tracep.Result) error) (*server.Status, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.url("/", url.PathEscape(id), "/stream"), nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if err := checkStatus(resp); err != nil {
		return nil, err
	}

	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var ev server.StreamEvent
		if err := json.Unmarshal(line, &ev); err != nil {
			return nil, fmt.Errorf("tracepd: bad stream line: %w", err)
		}
		switch {
		case ev.Done != nil:
			return ev.Done, nil
		case ev.Cell != nil:
			if fn != nil {
				if err := fn(ev.Cell); err != nil {
					return nil, err
				}
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return nil, fmt.Errorf("tracepd: stream for sweep %s ended without a done event", id)
}

// Collect streams a job to its terminal state and rebuilds the ResultSet
// locally, with the grid ordering fixed from the job's status — the
// resulting set marshals byte-identically to the same sweep run
// in-process. fn, when non-nil, observes each cell as it lands.
func (c *Client) Collect(ctx context.Context, id string, fn func(*tracep.Result) error) (*tracep.ResultSet, *server.Status, error) {
	st, err := c.Status(ctx, id)
	if err != nil {
		return nil, nil, err
	}
	// The status carries all three axes; a single-replicate job has no
	// seeds axis and its one implicit seed is st.Seed — mirroring
	// tracep.Sweep's resolution so the rebuilt set is byte-identical.
	seeds := st.Seeds
	if len(seeds) == 0 {
		seeds = []int64{st.Seed}
	}
	rs := tracep.NewResultSetGrid(st.Benchmarks, st.Models, seeds)
	final, err := c.Stream(ctx, id, func(res *tracep.Result) error {
		rs.Add(res)
		if fn != nil {
			return fn(res)
		}
		return nil
	})
	if err != nil {
		return rs, nil, err
	}
	return rs, final, nil
}

// Run is the remote analogue of tracep.Sweep.Run: submit, stream every
// cell into a ResultSet, and return the collected set. fn, when non-nil,
// observes cells as they complete. Cancelling ctx cancels the remote sweep
// (best-effort DELETE on a fresh short-lived context) and returns the
// server-side partial set together with ctx.Err.
func (c *Client) Run(ctx context.Context, req server.SweepRequest, fn func(*tracep.Result) error) (*tracep.ResultSet, error) {
	st, err := c.Submit(ctx, req)
	if err != nil {
		return nil, err
	}
	rs, _, err := c.Collect(ctx, st.ID, fn)
	if err == nil {
		return rs, nil
	}
	if ctx.Err() == nil {
		return rs, err
	}
	// The caller cancelled mid-stream: stop the remote sweep too, then
	// hand back whatever the server collected before the cancel landed.
	stopCtx, stop := context.WithTimeout(context.Background(), 10*time.Second)
	defer stop()
	if _, cancelErr := c.Cancel(stopCtx, st.ID); cancelErr == nil {
		if remote, rsErr := c.ResultSet(stopCtx, st.ID); rsErr == nil {
			rs = remote
		}
	}
	return rs, ctx.Err()
}
