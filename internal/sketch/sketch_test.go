package sketch

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"critics/internal/core"
	"critics/internal/cpu"
)

// key builds a chain key from compact parts.
func key(fn, bl int, idx ...int) core.ChainKey {
	k := core.ChainKey{Func: uint16(fn), Block: uint16(bl), N: uint8(len(idx))}
	for i, v := range idx {
		k.Idx[i] = uint8(v)
	}
	return k
}

// randomSketch builds a deterministic pseudo-random sketch — the generator
// the law tests permute and re-merge.
func randomSketch(r *rand.Rand, app string) *Sketch {
	s := New(app)
	nk := 1 + r.Intn(40)
	for i := 0; i < nk; i++ {
		k := key(r.Intn(300), r.Intn(200), 1+r.Intn(20), 1+r.Intn(20))
		if r.Intn(2) == 0 {
			k.N = 3
			k.Idx[2] = uint8(1 + r.Intn(30))
		}
		s.SetCount(k, 1+uint64(r.Intn(10_000)), uint64(r.Intn(40_000)), r.Intn(4) != 0)
	}
	if t := uint64(r.Intn(1_000_000)); s.TotalDyn < t {
		s.TotalDyn = t
	}
	var fan [FanoutBuckets]uint64
	for i := range fan {
		fan[i] = uint64(r.Intn(5000))
	}
	s.AddFanout(fan[:])
	s.AddStall(cpu.Breakdown{
		FetchI: int64(r.Intn(9999)), FetchRD: int64(r.Intn(9999)), Decode: int64(r.Intn(9999)),
		Rename: int64(r.Intn(9999)), Execute: int64(r.Intn(9999)), Commit: int64(r.Intn(9999)),
	})
	nd := 1 + r.Intn(5)
	for i := 0; i < nd; i++ {
		s.AddDevice(string(rune('a'+r.Intn(26))) + string(rune('0'+r.Intn(10))))
	}
	return s
}

func TestSetCountMonotoneAndExact(t *testing.T) {
	s := New("app")
	k := key(3, 7, 1, 2, 3)
	s.SetCount(k, 10, 8000, true)
	s.SetCount(k, 25, 7000, true) // grows count, keeps max fanout
	s.SetCount(k, 5, 9500, true)  // lower count never lowers
	if got := s.Estimate(k); got != 25 {
		t.Fatalf("Estimate = %d, want 25", got)
	}
	if len(s.Keys) != 1 || s.Keys[0].Count != 25 || s.Keys[0].FanoutMilli != 9500 {
		t.Fatalf("key stat = %+v", s.Keys)
	}
	if got := s.Estimate(key(9, 9, 1, 2)); got != 0 {
		t.Fatalf("absent key estimate = %d, want 0", got)
	}
}

func TestKeysStayCanonicallySorted(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	s := New("app")
	for i := 0; i < 500; i++ {
		s.SetCount(key(r.Intn(50), r.Intn(50), 1+r.Intn(10), 1+r.Intn(10)), 1+uint64(r.Intn(100)), 0, true)
	}
	for i := 1; i < len(s.Keys); i++ {
		if !core.LessKey(s.Keys[i-1].Key, s.Keys[i].Key) {
			t.Fatalf("keys not strictly ascending at %d", i)
		}
	}
}

func TestTruncateKeepsHeaviest(t *testing.T) {
	s := New("app")
	for i := 0; i < 20; i++ {
		s.SetCount(key(1, i, 0, 1), uint64(100+i), 0, true)
	}
	s.Truncate(5)
	if len(s.Keys) != 5 {
		t.Fatalf("len = %d, want 5", len(s.Keys))
	}
	for _, st := range s.Keys {
		if st.Count < 115 {
			t.Fatalf("light key survived truncation: %+v", st)
		}
	}
	for i := 1; i < len(s.Keys); i++ {
		if !core.LessKey(s.Keys[i-1].Key, s.Keys[i].Key) {
			t.Fatalf("truncated keys not in canonical order")
		}
	}
}

func TestDevicesEstimate(t *testing.T) {
	s := New("app")
	for i := 0; i < 10; i++ {
		s.AddDevice(string(rune('a' + i)))
		s.AddDevice(string(rune('a' + i))) // duplicates collapse
	}
	if got := s.DevicesEstimate(); got != 10 {
		t.Fatalf("exact regime estimate = %v, want 10", got)
	}
	big := New("app")
	for i := 0; i < 4*KMVSize; i++ {
		big.AddDevice(string(rune('a'+i%26)) + string(rune('A'+(i/26)%26)) + string(rune('0'+i%10)))
	}
	if len(big.Devices) != KMVSize {
		t.Fatalf("retained %d hashes, want %d", len(big.Devices), KMVSize)
	}
	est := big.DevicesEstimate()
	if est < 100 || est > 1000 {
		t.Fatalf("KMV estimate %v wildly off true count %d", est, 4*KMVSize)
	}
}

func TestFanoutBucket(t *testing.T) {
	cases := map[int32]int{0: 0, 1: 0, 2: 1, 3: 1, 4: 2, 7: 2, 8: 3, 127: 6, 128: 7, 100000: 7}
	for in, want := range cases {
		if got := FanoutBucket(in); got != want {
			t.Errorf("FanoutBucket(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestProfileFromSketch(t *testing.T) {
	s := New("app")
	s.TotalDyn = 1000
	s.SetCount(key(1, 2, 0, 1), 50, 9000, true)    // 100 dyn instrs
	s.SetCount(key(1, 3, 0, 1, 2), 80, 8500, true) // 240 dyn instrs — ranks first
	s.SetCount(key(2, 1, 4, 5), 10, 12000, false)
	p := s.Profile()
	if p.App != "app" || p.TotalDyn != 1000 || len(p.Entries) != 3 {
		t.Fatalf("profile = %+v", p)
	}
	if p.Entries[0].Key != key(1, 3, 0, 1, 2) {
		t.Fatalf("rank order wrong: first entry %v", p.Entries[0].Key)
	}
	p.Select(core.Config{AvgFanoutThreshold: 8, MaxLen: 5, MinLen: 2, RequireThumb: true})
	sel := p.Selected()
	if len(sel) != 2 {
		t.Fatalf("selected %d entries, want 2 (thumb-failing chain skipped)", len(sel))
	}
	if p.SelectedCoverage != 340.0/1000 {
		t.Fatalf("coverage = %v", p.SelectedCoverage)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for i := 0; i < 50; i++ {
		s := randomSketch(r, "roundtrip")
		enc := s.Encode()
		dec, err := Decode(enc)
		if err != nil {
			t.Fatalf("Decode: %v", err)
		}
		re := dec.Encode()
		if !bytes.Equal(enc, re) {
			t.Fatalf("re-encode differs from original encode")
		}
		if dec.Digest() != s.Digest() {
			t.Fatalf("digest changed across round trip")
		}
	}
}

func TestDecodeRejects(t *testing.T) {
	good := randomSketch(rand.New(rand.NewSource(1)), "app").Encode()
	cases := map[string][]byte{
		"empty":          {},
		"bad magic":      []byte("XXXX"),
		"bad version":    append([]byte{'C', 'S', 'K', 99}, good[4:]...),
		"truncated":      good[:len(good)/2],
		"trailing bytes": append(append([]byte{}, good...), 0),
	}
	for name, b := range cases {
		if _, err := Decode(b); err == nil {
			t.Errorf("Decode(%s) accepted", name)
		}
	}

	// Non-canonical key order must be refused: two keys swapped on the wire.
	s := New("app")
	s.SetCount(key(1, 1, 0, 1), 5, 0, true)
	s.SetCount(key(2, 1, 0, 1), 5, 0, true)
	s.Keys[0], s.Keys[1] = s.Keys[1], s.Keys[0]
	if _, err := Decode(s.Encode()); err == nil {
		t.Errorf("Decode accepted out-of-order keys")
	}
}

// TestDecodeRefusesOverlongVarints: a varint padded with a zero final byte
// decodes to the same value but re-encodes shorter, so one sketch would
// have two encodings. Decode refuses it, naming the field and its offset.
func TestDecodeRefusesOverlongVarints(t *testing.T) {
	s := New("overlong")
	s.TotalDyn = 5
	b := s.Encode()
	pad := func(at int) []byte {
		return append(append(b[:at:at], b[at]|0x80, 0x00), b[at+1:]...)
	}
	cm := cmOffset(b)
	cases := []struct {
		field string
		at    int
	}{
		{"total_dyn", cm - 1},
		{"cm cell", cm},
		{"cm cell", cm + Depth*Width - 1},
		{"key count", len(b) - 1},
	}
	for _, c := range cases {
		_, err := Decode(pad(c.at))
		if err == nil {
			t.Errorf("%s padded at offset %d accepted", c.field, c.at)
			continue
		}
		if want := fmt.Sprintf("(%s) at offset %d", c.field, c.at); !strings.Contains(err.Error(), want) {
			t.Errorf("%s padded at offset %d: error %q does not name %q", c.field, c.at, err, want)
		}
	}
	if _, err := Decode(b); err != nil {
		t.Fatalf("unpadded sketch refused: %v", err)
	}
}

// TestMergeReusesSpare: a consensus joining sketches it has already seen
// allocates nothing, and Clone does not share its spare merge list.
func TestMergeReusesSpare(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	var sks []*Sketch
	for i := 0; i < 4; i++ {
		sks = append(sks, randomSketch(r, "app"))
	}
	acc := New("app")
	for _, sk := range sks {
		acc.Merge(sk)
	}
	if n := testing.AllocsPerRun(20, func() {
		for _, sk := range sks {
			acc.Merge(sk)
		}
	}); n != 0 {
		t.Errorf("re-joining known sketches allocated %.0f times, want 0", n)
	}
	c := acc.Clone()
	if c.spare != nil {
		t.Error("Clone shares the spare merge list")
	}
	before := c.Encode()
	acc.Merge(randomSketch(r, "app"))
	if !bytes.Equal(c.Encode(), before) {
		t.Error("a join after Clone changed the clone")
	}
}

func TestCloneIsDeep(t *testing.T) {
	s := randomSketch(rand.New(rand.NewSource(3)), "app")
	c := s.Clone()
	if c.Digest() != s.Digest() {
		t.Fatalf("clone digest differs")
	}
	c.SetCount(key(999, 1, 0, 1), 1, 0, true)
	c.AddDevice("new-device")
	if c.Digest() == s.Digest() {
		t.Fatalf("mutating clone reached the original")
	}
}
