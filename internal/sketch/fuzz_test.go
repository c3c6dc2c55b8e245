package sketch

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"sync"
	"testing"
)

// FuzzDecodeSketch hammers the wire decoder with arbitrary bytes: it must
// never panic, and everything it accepts must be canonical — re-encoding a
// decoded sketch reproduces the input byte-for-byte, and the decoded value
// must survive a merge with itself without changing (idempotence holds for
// every acceptable wire value, not just ones Encode produced). Decoding into
// a used sketch must give the same bytes as a fresh Decode.
func FuzzDecodeSketch(f *testing.F) {
	r := rand.New(rand.NewSource(5))
	f.Add([]byte{})
	f.Add([]byte("CSK"))
	f.Add(magic[:])
	f.Add(New("empty").Encode())
	for i := 0; i < 4; i++ {
		f.Add(randomSketch(r, "fuzz-seed").Encode())
	}
	f.Add(overlongCMCell())
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Decode(data)
		if err != nil {
			return
		}
		enc := s.Encode()
		if !bytes.Equal(enc, data) {
			t.Fatalf("accepted non-canonical input: re-encode differs (%d vs %d bytes)", len(enc), len(data))
		}
		used := usedSketch()
		if err := used.UnmarshalBinary(data); err != nil {
			t.Fatalf("decoding into a used sketch refused what Decode accepted: %v", err)
		}
		if !bytes.Equal(used.Encode(), enc) {
			t.Fatalf("decoding into a used sketch left its earlier contents behind")
		}
		if used.Merge(s) || !bytes.Equal(used.Encode(), enc) {
			t.Fatalf("merging into a reused sketch changed it")
		}
		c := s.Clone()
		if c.Merge(s) {
			t.Fatalf("self-merge of a decoded sketch reported a change")
		}
		if !bytes.Equal(c.Encode(), enc) {
			t.Fatalf("self-merge changed the canonical bytes")
		}
		_ = s.Profile()
		_ = s.DevicesEstimate()
	})
}

// TestWriteFuzzCorpus regenerates the checked-in seed corpus when
// SKETCH_FUZZ_CORPUS=1 — run after any wire-format change so CI's
// fuzz-smoke leg starts from valid current-version sketches.
func TestWriteFuzzCorpus(t *testing.T) {
	if os.Getenv("SKETCH_FUZZ_CORPUS") == "" {
		t.Skip("set SKETCH_FUZZ_CORPUS=1 to rewrite testdata/fuzz/FuzzDecodeSketch")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzDecodeSketch")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(5))
	seeds := map[string][]byte{
		"seed-empty-sketch":     New("empty").Encode(),
		"seed-magic-only":       magic[:],
		"seed-overlong-cm-cell": overlongCMCell(),
	}
	for i := 0; i < 4; i++ {
		seeds[fmt.Sprintf("seed-random-%d", i)] = randomSketch(r, "fuzz-seed").Encode()
	}
	for name, data := range seeds {
		body := "go test fuzz v1\n[]byte(" + strconv.Quote(string(data)) + ")\n"
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// usedSketch returns a sketch that last held a larger sketch of another
// app, merges included: every count-min cell, fanout bucket and stall stage
// set, long key and device lists, and a spare merge list holding stale
// keys. Each call copies one template built once.
func usedSketch() *Sketch {
	t := usedTemplate()
	s := t.Clone()
	s.spare = slices.Clone(t.spare)
	return s
}

var usedTemplate = sync.OnceValue(func() *Sketch {
	r := rand.New(rand.NewSource(9))
	s := randomSketch(r, "a-larger-earlier-app")
	for i := 0; i < 8; i++ {
		s.Merge(randomSketch(r, "a-larger-earlier-app"))
	}
	for row := range s.CM {
		for i := range s.CM[row] {
			s.CM[row][i] |= 1 << 40
		}
	}
	for i := range s.Fanout {
		s.Fanout[i] |= 1 << 40
	}
	for i := range s.Stall {
		s.Stall[i] |= 1 << 40
	}
	return s
})

// overlongCMCell is a valid empty sketch whose first count-min cell is
// padded from 0x00 to 0x80 0x00: the same value in a non-canonical form,
// which Decode must refuse.
func overlongCMCell() []byte {
	b := New("overlong").Encode()
	at := cmOffset(b)
	return append(append(b[:at:at], 0x80, 0x00), b[at+1:]...)
}

// cmOffset returns the offset of an encoded sketch's first count-min cell.
func cmOffset(b []byte) int {
	d := decoder{b: b, pos: len(magic)}
	n, _ := d.uvarint("app length")
	d.pos += int(n)
	d.uvarint("total_dyn")
	return d.pos
}
