package tracefile

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

// seed is one named fuzz seed.
type seed struct {
	name string
	data []byte
}

// fuzzSeeds returns FuzzLoad's seeds: a valid capture, the interesting
// damage to it, and a version-1 recording. The committed corpus under
// testdata/fuzz/FuzzLoad holds the same inputs under the same names.
func fuzzSeeds(tb testing.TB) []seed {
	tb.Helper()
	var valid bytes.Buffer
	if _, err := Capture(context.Background(), &valid, testProgram(), Meta{Name: "seed", InstsPerIter: 3, TargetInsts: 1000}, 1<<20); err != nil {
		tb.Fatal(err)
	}
	v1, err := os.ReadFile(filepath.Join("testdata", "version1.tptrace"))
	if err != nil {
		tb.Fatal(err)
	}
	b := valid.Bytes()
	flipped := bytes.Clone(b)
	flipped[len(flipped)/2] ^= 0xff
	return []seed{
		{"valid-capture", b},
		{"no-checksum", b[:len(b)-4]},
		{"header-cut", b[:12]},
		{"magic-only", []byte("TPTRACE1")},
		{"empty", []byte{}},
		{"flipped", flipped},
		{"version-1", v1},
	}
}

// FuzzLoad drives the whole load path — magic, header varints, program
// image, checksums, version, record count — with arbitrary bytes, and the
// emulation of the untrusted embedded program behind it. The invariant:
// Load never panics, terminates (it emulates at most maxRecords steps, and
// a count the fuzzer changes also changes the file CRC), and fails only
// with ErrCorruptTrace. CI runs it briefly every push (see
// .github/workflows/ci.yml), and the generated corpus in testdata/fuzz
// persists the interesting mutants.
func FuzzLoad(f *testing.F) {
	for _, s := range fuzzSeeds(f) {
		f.Add(s.data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if _, _, err := Load(bytes.NewReader(data)); err != nil && !errors.Is(err, ErrCorruptTrace) {
			t.Fatalf("Load: non-typed error %v", err)
		}
	})
}

// TestWriteSeedCorpus regenerates the committed seed corpus under
// testdata/fuzz/FuzzLoad (the inputs FuzzLoad seeds via f.Add, in the
// on-disk corpus format, so plain `go test` and `-fuzz` both start from
// them). It is a generator, not a check: it only runs when
// TRACEFILE_WRITE_CORPUS=1 is set, after a format change.
func TestWriteSeedCorpus(t *testing.T) {
	if os.Getenv("TRACEFILE_WRITE_CORPUS") == "" {
		t.Skip("set TRACEFILE_WRITE_CORPUS=1 to regenerate testdata/fuzz/FuzzLoad")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzLoad")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, s := range fuzzSeeds(t) {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%s)\n", strconv.Quote(string(s.data)))
		if err := os.WriteFile(filepath.Join(dir, s.name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
