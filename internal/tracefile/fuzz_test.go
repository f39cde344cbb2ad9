package tracefile

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

// FuzzReader drives the whole decode surface — magic, header varints,
// program image, block framing, CRCs, trailer — with arbitrary bytes, and
// the load path behind it, which emulates the untrusted embedded program.
// The invariant: Load and NewReader/Next never panic, never loop forever,
// and fail only with ErrCorruptTrace (or clean io.EOF on a structurally
// valid stream).
// Seeds cover a valid capture plus the interesting prefixes; CI runs this
// briefly every push (see .github/workflows/ci.yml), and the generated
// corpus in testdata/fuzz persists the interesting mutants.
func FuzzReader(f *testing.F) {
	prog := testProgram()
	var valid bytes.Buffer
	if _, err := Capture(context.Background(), &valid, prog, Meta{Name: "seed", InstsPerIter: 3, TargetInsts: 1000}, 1<<20); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add(valid.Bytes()[:len(valid.Bytes())-trailerSize]) // trailer gone
	f.Add(valid.Bytes()[:12])                             // header cut mid-length
	f.Add([]byte("TPTRACE1"))                             // magic only
	f.Add([]byte{})
	mut := bytes.Clone(valid.Bytes())
	mut[len(mut)/2] ^= 0xff // bit rot mid-block
	f.Add(mut)

	f.Fuzz(func(t *testing.T, data []byte) {
		// Load takes one emulator step per decoded record, so it ends when
		// the decoder does.
		if _, _, err := Load(bytes.NewReader(data)); err != nil && !errors.Is(err, ErrCorruptTrace) {
			t.Fatalf("Load: non-typed error %v", err)
		}
		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrCorruptTrace) {
				t.Fatalf("NewReader: non-typed error %v", err)
			}
			return
		}
		// A decoder must terminate: it can produce at most one record per
		// conditional-branch bit, memory delta or fall-through walk step,
		// all bounded by the input, but cap defensively anyway.
		for i := 0; i < 1<<22; i++ {
			_, err := r.Next()
			if err == nil {
				continue
			}
			if !errors.Is(err, io.EOF) && !errors.Is(err, ErrCorruptTrace) {
				t.Fatalf("Next: non-typed error %v", err)
			}
			return
		}
		t.Fatal("decoder produced over 4M records from a fuzz input")
	})
}

// TestWriteSeedCorpus regenerates the committed seed corpus under
// testdata/fuzz/FuzzReader (the same inputs FuzzReader seeds via f.Add, in
// the on-disk corpus format, so plain `go test` and `-fuzz` both start from
// them). It is a generator, not a check: it only runs when
// TRACEFILE_WRITE_CORPUS=1 is set, after a format change.
func TestWriteSeedCorpus(t *testing.T) {
	if os.Getenv("TRACEFILE_WRITE_CORPUS") == "" {
		t.Skip("set TRACEFILE_WRITE_CORPUS=1 to regenerate testdata/fuzz/FuzzReader")
	}
	var valid bytes.Buffer
	if _, err := Capture(context.Background(), &valid, testProgram(), Meta{Name: "seed", InstsPerIter: 3, TargetInsts: 1000}, 1<<20); err != nil {
		t.Fatal(err)
	}
	mut := bytes.Clone(valid.Bytes())
	mut[len(mut)/2] ^= 0xff
	seeds := map[string][]byte{
		"valid-capture":  valid.Bytes(),
		"no-trailer":     valid.Bytes()[:len(valid.Bytes())-trailerSize],
		"header-cut":     valid.Bytes()[:12],
		"magic-only":     []byte("TPTRACE1"),
		"mid-block-flip": mut,
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzReader")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, data := range seeds {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%s)\n", strconv.Quote(string(data)))
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
