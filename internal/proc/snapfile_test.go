package proc

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"sync"
	"testing"
)

// marshalSnap captures a snapshot of snapProgram and returns it with its
// binary encoding.
func marshalSnap(t *testing.T, cfg Config, warmup uint64) (*Snapshot, []byte) {
	t.Helper()
	prog := snapProgram(4000)
	snap, err := CaptureSnapshot(context.Background(), prog, cfg, warmup)
	if err != nil {
		t.Fatalf("CaptureSnapshot: %v", err)
	}
	data, err := snap.MarshalBinary()
	if err != nil {
		t.Fatalf("MarshalBinary: %v", err)
	}
	return snap, data
}

// TestSnapshotMarshalRoundTrip is the codec's byte-identity gate: a run
// restored from a decoded snapshot must produce statistics byte-identical
// to a run restored from the original, under every model-relevant path
// (trace construction, FGCI repair, recovery), and re-encoding the decoded
// snapshot must reproduce the original bytes exactly — the property the
// content-addressed snapshot store depends on.
func TestSnapshotMarshalRoundTrip(t *testing.T) {
	cfg := DefaultConfig()
	const warmup = 25_000
	snap, data := marshalSnap(t, cfg, warmup)

	decoded, err := UnmarshalSnapshot(data)
	if err != nil {
		t.Fatalf("UnmarshalSnapshot: %v", err)
	}
	if decoded.WarmupInsts() != warmup || decoded.PC() != snap.PC() {
		t.Fatalf("decoded snapshot header drifted: warmup %d PC %d, want %d/%d",
			decoded.WarmupInsts(), decoded.PC(), warmup, snap.PC())
	}

	reencoded, err := decoded.MarshalBinary()
	if err != nil {
		t.Fatalf("re-encode: %v", err)
	}
	if !bytes.Equal(data, reencoded) {
		t.Fatal("decode/encode round trip changed the snapshot bytes")
	}

	for _, model := range []Model{ModelBase, ModelFGMLBRET} {
		want := runFromSnapshot(t, snap, model, cfg)
		got := runFromSnapshot(t, decoded, model, cfg)
		a, _ := json.Marshal(want)
		b, _ := json.Marshal(got)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: run restored from decoded snapshot diverged:\n%s\n%s", model.Name, a, b)
		}
	}
}

// TestSnapshotSharedAcrossGoroutines: one seeded snapshot is marshalled and
// restored from concurrently — as a cluster coordinator ships a row's
// snapshot while its cells restore from it — and every encoding and every
// restored run agree. Under -race it also proves that neither path writes
// to the shared snapshot.
func TestSnapshotSharedAcrossGoroutines(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed = 7
	snap, err := CaptureSnapshot(context.Background(), snapProgram(4000), cfg, 12_000)
	if err != nil {
		t.Fatal(err)
	}
	const n = 2
	var (
		wg    sync.WaitGroup
		enc   [n][]byte
		stats [n][]byte
	)
	for i := 0; i < n; i++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			data, err := snap.MarshalBinary()
			if err != nil {
				t.Error(err)
			}
			enc[i] = data
		}()
		go func() {
			defer wg.Done()
			p, err := NewFromSnapshot(snap, ModelFGMLBRET, cfg)
			if err != nil {
				t.Error(err)
				return
			}
			s, err := p.Run(20_000)
			if err != nil {
				t.Error(err)
				return
			}
			stats[i], _ = json.Marshal(s)
		}()
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if !bytes.Equal(enc[i], enc[0]) || !bytes.Equal(stats[i], stats[0]) {
			t.Fatal("concurrent marshals or restores of one snapshot disagree")
		}
	}
}

// TestSnapshotMarshalDeterministic: two independent captures of the same
// (program, config, warm-up) must marshal identically — the key property
// behind content addressing.
func TestSnapshotMarshalDeterministic(t *testing.T) {
	cfg := DefaultConfig()
	_, a := marshalSnap(t, cfg, 12_000)
	_, b := marshalSnap(t, cfg, 12_000)
	if !bytes.Equal(a, b) {
		t.Fatal("two captures of the same recipe marshalled differently")
	}
}

// TestSnapshotUnmarshalCorrupt: truncations and bit flips at every offset
// must surface as typed ErrCorruptSnapshot errors, never panics, and never
// a silently wrong snapshot (the CRC covers the whole payload).
func TestSnapshotUnmarshalCorrupt(t *testing.T) {
	_, data := marshalSnap(t, DefaultConfig(), 5_000)

	for _, n := range []int{0, 4, 8, 9, len(data) / 2, len(data) - 1} {
		if _, err := UnmarshalSnapshot(data[:n]); !errors.Is(err, ErrCorruptSnapshot) {
			t.Errorf("truncation to %d bytes: got %v, want ErrCorruptSnapshot", n, err)
		}
	}
	stride := len(data)/97 + 1
	for off := 0; off < len(data); off += stride {
		mut := append([]byte(nil), data...)
		mut[off] ^= 0x40
		if _, err := UnmarshalSnapshot(mut); err == nil {
			t.Errorf("bit flip at offset %d decoded cleanly", off)
		} else if !errors.Is(err, ErrCorruptSnapshot) {
			t.Errorf("bit flip at offset %d: got %v, want ErrCorruptSnapshot", off, err)
		}
	}
}
