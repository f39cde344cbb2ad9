package tracep_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"tracep"
	"tracep/server"
	"tracep/server/store"
)

// refResult is tracep.Result without its UnmarshalJSON method, so
// encoding/json decodes it by reflection: the reference the wire reader is
// held to.
type refResult tracep.Result

// refWire mirrors the ResultSet wire form over refResult.
type refWire struct {
	Benchmarks []string     `json:"benchmarks"`
	Models     []string     `json:"models"`
	Seeds      []int64      `json:"seeds,omitempty"`
	Results    []*refResult `json:"results"`
}

// refDecode is the reflective decode of a ResultSet: json.Unmarshal into
// the wire struct, then the grid and its cells. A null cell, which
// encoding/json decodes into a nil pointer that Add cannot take, is an
// error, as it is for the wire reader.
func refDecode(data []byte) (*tracep.ResultSet, error) {
	var w refWire
	if err := json.Unmarshal(data, &w); err != nil {
		return nil, err
	}
	rs := tracep.NewResultSetGrid(w.Benchmarks, w.Models, w.Seeds)
	for _, res := range w.Results {
		if res == nil {
			return nil, errors.New("null cell")
		}
		rs.Add((*tracep.Result)(res))
	}
	return rs, nil
}

// refMember is the reflective decode of a document's "results" member.
func refMember(doc []byte) (*tracep.ResultSet, error) {
	var st struct {
		Results json.RawMessage `json:"results"`
	}
	if err := json.Unmarshal(doc, &st); err != nil {
		return nil, err
	}
	if st.Results == nil || string(st.Results) == "null" {
		return nil, nil
	}
	return refDecode(st.Results)
}

// agree fails unless both decodes failed, or both succeeded and re-encode
// to the same bytes.
func agree(t testing.TB, what string, got, want *tracep.ResultSet, gotErr, wantErr error) {
	t.Helper()
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%s: wire reader error %v, encoding/json error %v", what, gotErr, wantErr)
	}
	if gotErr != nil {
		return
	}
	g, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	w, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(g, w) {
		t.Fatalf("%s: decodes differ:\nwire reader:   %.300s\nencoding/json: %.300s", what, g, w)
	}
}

// checkSet decodes data as a ResultSet both ways, and as the results
// member of a status-like document.
func checkSet(t testing.TB, data []byte) {
	t.Helper()
	var got tracep.ResultSet
	gotErr := got.UnmarshalJSON(data)
	want, wantErr := refDecode(data)
	agree(t, "ResultSet", &got, want, gotErr, wantErr)

	doc := append(append([]byte(`{"id":"sw-1","results":`), data...), '}')
	gotM, gotErr := tracep.DecodeResultSetMember(doc, "results")
	wantM, wantErr := refMember(doc)
	agree(t, "results member", gotM, wantM, gotErr, wantErr)
}

// TestResultWireAgreesWithEncodingJSON decodes the committed baselines,
// the cell records of the committed tracepd journal and a live 8-cell
// status body with the wire reader and with encoding/json, and requires
// the same re-encoded bytes.
func TestResultWireAgreesWithEncodingJSON(t *testing.T) {
	for _, name := range []string{"ci-baseline.json", "ci-baseline-seeded.json"} {
		data, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		var rs tracep.ResultSet
		if err := rs.UnmarshalJSON(data); err != nil || rs.Len() == 0 {
			t.Fatalf("%s: %d cells, %v", name, rs.Len(), err)
		}
		checkSet(t, data)
	}

	log, err := os.ReadFile(filepath.Join("server", "testdata", "journal", "jobs.log"))
	if err != nil {
		t.Fatal(err)
	}
	recs, err := store.DecodeAll(log)
	if err != nil {
		t.Fatal(err)
	}
	cells := 0
	for _, rec := range recs {
		if rec.Kind != store.KindCell {
			continue
		}
		cells++
		var got tracep.Result
		gotErr := got.UnmarshalJSON(rec.Payload)
		var want refResult
		wantErr := json.Unmarshal(rec.Payload, &want)
		if gotErr != nil || wantErr != nil {
			t.Fatalf("journal cell %d: wire reader %v, encoding/json %v", cells, gotErr, wantErr)
		}
		g, _ := json.Marshal(&got)
		w, _ := json.Marshal((*tracep.Result)(&want))
		if !bytes.Equal(g, w) || !bytes.Equal(g, rec.Payload) {
			t.Fatalf("journal cell %d decodes differ:\npayload:       %s\nwire reader:   %s\nencoding/json: %s", cells, rec.Payload, g, w)
		}
	}
	if cells == 0 {
		t.Fatal("the committed journal holds no cell records")
	}

	body := liveStatusBody(t)
	rs, err := tracep.DecodeResultSetMember(body, "results")
	if err != nil || rs == nil || rs.Len() != 8 {
		t.Fatalf("live status body: %v", err)
	}
	want, err := refMember(body)
	agree(t, "live status body", rs, want, nil, err)
}

// liveStatusBody runs a 1 × 8 sweep on a tracepd and returns its finished
// GET /v1/sweeps/{id} body.
func liveStatusBody(t *testing.T) []byte {
	t.Helper()
	mgr := server.NewManager(server.Config{Parallelism: 2})
	ts := httptest.NewServer(mgr.Handler())
	t.Cleanup(func() {
		ts.Close()
		mgr.Close()
	})
	var models []string
	for _, m := range tracep.Models() {
		models = append(models, m.Name)
	}
	st, err := mgr.Submit(server.SweepRequest{Benchmarks: []string{"compress"}, Models: models, TargetInsts: 5_000})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	for {
		if cur, _ := mgr.Status(st.ID, false); cur.State.Terminal() {
			break
		}
		select {
		case <-ctx.Done():
			t.Fatal("sweep did not finish")
		case <-time.After(5 * time.Millisecond):
		}
	}
	resp, err := http.Get(ts.URL + "/v1/sweeps/" + st.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestResultWireRefusesNullCell pins the one documented difference from
// encoding/json: a null cell is an error, not a panic.
func TestResultWireRefusesNullCell(t *testing.T) {
	var rs tracep.ResultSet
	if err := rs.UnmarshalJSON([]byte(`{"benchmarks":[],"models":[],"results":[null]}`)); err == nil {
		t.Fatal("a null cell decoded without error")
	}
}

// TestResultUnmarshalMerges: a Result decodes over what it holds, as
// encoding/json's reflective decode did, and null leaves it unchanged.
func TestResultUnmarshalMerges(t *testing.T) {
	res := tracep.Result{Benchmark: "compress", Stats: &tracep.Stats{Cycles: 7}}
	if err := json.Unmarshal([]byte(`{"model":"FG","stats":{"RetiredInsts":3}}`), &res); err != nil {
		t.Fatal(err)
	}
	if res.Benchmark != "compress" || res.Model != "FG" || res.Stats.Cycles != 7 || res.Stats.RetiredInsts != 3 {
		t.Fatalf("merged result = %+v, stats %+v", res, res.Stats)
	}
	if err := res.UnmarshalJSON([]byte(" null ")); err != nil || res.Model != "FG" {
		t.Fatalf("null: %v, %+v", err, res)
	}
	for _, bad := range []string{``, `{`, `{"seed":1.5}`, `{"stats":[]}`, `{} {}`, `{"model":"FG",}`} {
		if err := res.UnmarshalJSON([]byte(bad)); err == nil {
			t.Errorf("%q decoded without error", bad)
		}
	}
}

// FuzzResultSetJSON holds the wire reader to encoding/json: on any input
// both fail, or both succeed and re-encode to the same bytes; the wire
// reader never panics. Its committed corpus (testdata/fuzz/
// FuzzResultSetJSON, which plain go test runs) holds the cases where
// encoding/json's rules are easy to get wrong: whitespace, reordered,
// unknown, repeated and case-folded keys, escapes, invalid UTF-8, nulls, a
// short BranchClasses array, negative, exponent and overflowing numbers,
// and trailing bytes.
func FuzzResultSetJSON(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		checkSet(t, data)
	})
}
