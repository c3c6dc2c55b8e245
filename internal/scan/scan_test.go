package scan

import (
	"bytes"
	"flag"
	"io"
	"strings"
	"testing"

	"critics/internal/binimg"
	"critics/internal/trace"
	"critics/internal/workload"
)

// appImage assembles a catalog app and generates n dynamic addresses from
// its trace — the same inputs a real scan uploads.
func appImage(t testing.TB, n int) (img []byte, addrs []uint32) {
	t.Helper()
	app := workload.MobileApps()[0]
	p := workload.Generate(app.Params)
	img, err := binimg.Assemble(p)
	if err != nil {
		t.Fatalf("Assemble: %v", err)
	}
	g := trace.NewGenerator(p, app.Params.Seed)
	dyns := g.Generate(nil, n)
	addrs = make([]uint32, len(dyns))
	for i := range dyns {
		addrs[i] = dyns[i].Addr
	}
	return img, addrs
}

func TestTraceRoundTrip(t *testing.T) {
	addrs := []uint32{0, 4, 8, 2, 0xfffffffe, 12, 12}
	data := TraceBytes(addrs, 3)
	tr, err := NewTraceReader(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("NewTraceReader: %v", err)
	}
	if tr.Chunks() != 3 {
		t.Fatalf("Chunks = %d, want 3", tr.Chunks())
	}
	var got []uint32
	var idxs []int
	for {
		ci, chunk, err := tr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		idxs = append(idxs, ci)
		got = append(got, chunk...)
	}
	if len(got) != len(addrs) {
		t.Fatalf("decoded %d addrs, want %d", len(got), len(addrs))
	}
	for i := range addrs {
		if got[i] != addrs[i] {
			t.Fatalf("addr %d = %#x, want %#x", i, got[i], addrs[i])
		}
	}
	for i, ci := range idxs {
		if ci != i {
			t.Fatalf("chunk order %v", idxs)
		}
	}
}

func TestTraceReaderRejectsGarbage(t *testing.T) {
	for _, tc := range [][]byte{
		nil,
		[]byte("CTRC"),     // truncated header
		[]byte("XXXX\x01"), // bad magic
		[]byte("CTRC\x07"), // unknown version
		append([]byte("CTRC\x01"), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01), // absurd chunk count
	} {
		if tr, err := NewTraceReader(bytes.NewReader(tc)); err == nil {
			if _, _, err := tr.Next(); err == nil {
				t.Errorf("trace %q accepted", tc)
			}
		}
	}
	// A chunk that declares more addresses than the stream carries.
	data := append([]byte("CTRC\x01"), 1, 0xc8, 0x01) // 1 chunk of 200 addrs, no bytes behind them
	tr, err := NewTraceReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := tr.Next(); err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("truncated chunk: err = %v", err)
	}
}

func TestBuildIndexStreams(t *testing.T) {
	img, _ := appImage(t, 0)
	idx, err := BuildIndex(bytes.NewReader(img), int64(len(img)))
	if err != nil {
		t.Fatalf("BuildIndex: %v", err)
	}
	if idx.Instrs == 0 {
		t.Fatalf("empty index from a real image")
	}
	decoded, err := binimg.Decode(img)
	if err != nil {
		t.Fatal(err)
	}
	if idx.Instrs != len(decoded) {
		t.Fatalf("index has %d instrs, Decode produced %d", idx.Instrs, len(decoded))
	}
}

func TestRunFindsOpportunities(t *testing.T) {
	img, addrs := appImage(t, 20000)
	rep, err := Run(img, bytes.NewReader(TraceBytes(addrs, 0)),
		"sha256:img", "sha256:trc")
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.Instrs != int64(len(addrs)) {
		t.Fatalf("scored %d instrs, want %d (unknown=%d)", rep.Instrs, len(addrs), rep.Unknown)
	}
	if rep.Unknown != 0 {
		t.Fatalf("%d unknown addrs scanning the image's own trace", rep.Unknown)
	}
	// The catalog's mobile apps are built to be CritIC-rich (the paper's
	// premise); an unoptimized binary must show missed opportunities.
	if len(rep.Opportunities) == 0 {
		t.Fatalf("no missed CritICs found in an unoptimized image")
	}
	if rep.SavedBytes <= 0 || rep.SpeedupPPM <= 0 {
		t.Fatalf("non-positive savings: %d bytes, %d ppm", rep.SavedBytes, rep.SpeedupPPM)
	}
	for _, op := range rep.Opportunities {
		if op.AvgFanoutMilli < 8000 {
			t.Fatalf("opportunity below the fanout threshold: %+v", op)
		}
	}
}

// TestChunkScoringPositionIndependent is the determinism keystone: scoring a
// chunk must not depend on which worker scores it or what came before —
// producer tracking resets at chunk boundaries.
func TestChunkScoringPositionIndependent(t *testing.T) {
	img, addrs := appImage(t, 8192)
	idx, err := BuildIndex(bytes.NewReader(img), int64(len(img)))
	if err != nil {
		t.Fatal(err)
	}
	chunk := addrs[2048:3072] // an interior chunk

	a := ScoreChunk(idx, 2, chunk)
	b := ScoreChunk(idx, 2, chunk) // again, different call context
	if len(a.Opportunities) != len(b.Opportunities) || a.Instrs != b.Instrs || a.FetchBytes != b.FetchBytes {
		t.Fatalf("chunk scoring not reproducible: %+v vs %+v", a, b)
	}
	for i := range a.Opportunities {
		if a.Opportunities[i] != b.Opportunities[i] {
			t.Fatalf("opportunity %d differs: %+v vs %+v", i, a.Opportunities[i], b.Opportunities[i])
		}
	}
}

// TestMergeOrderInsensitive asserts the distributed contract end to end:
// chunks scored out of order (fleet completion order) merge to the same
// report text as the in-order local scan.
func TestMergeOrderInsensitive(t *testing.T) {
	img, addrs := appImage(t, 16384)
	trc := TraceBytes(addrs, 0)

	local, err := Run(img, bytes.NewReader(trc), "sha256:i", "sha256:t")
	if err != nil {
		t.Fatal(err)
	}

	idx, err := BuildIndex(bytes.NewReader(img), int64(len(img)))
	if err != nil {
		t.Fatal(err)
	}
	tr, err := NewTraceReader(bytes.NewReader(trc))
	if err != nil {
		t.Fatal(err)
	}
	var results []ChunkResult
	for {
		ci, chunk, err := tr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, ScoreChunk(idx, ci, chunk))
	}
	// Shuffle deterministically: reverse, then interleave halves.
	shuffled := make([]ChunkResult, 0, len(results))
	for i := len(results) - 1; i >= 0; i -= 2 {
		shuffled = append(shuffled, results[i])
	}
	for i := len(results) - 2; i >= 0; i -= 2 {
		shuffled = append(shuffled, results[i])
	}
	dist := Merge("sha256:i", "sha256:t", idx, shuffled)

	if local.Text() != dist.Text() {
		t.Fatalf("local and shuffled-merge reports differ:\n--- local ---\n%s--- dist ---\n%s", local.Text(), dist.Text())
	}
}

func TestUnknownAddressesCounted(t *testing.T) {
	img, addrs := appImage(t, 512)
	idx, err := BuildIndex(bytes.NewReader(img), int64(len(img)))
	if err != nil {
		t.Fatal(err)
	}
	bogus := append(append([]uint32{}, addrs[:64]...), 0xdeadbee0, 0xdeadbee4)
	res := ScoreChunk(idx, 0, bogus)
	if res.Unknown != 2 {
		t.Fatalf("Unknown = %d, want 2", res.Unknown)
	}
	if res.Instrs != 64 {
		t.Fatalf("Instrs = %d, want 64", res.Instrs)
	}
}

func TestReportTextStable(t *testing.T) {
	rep := Merge("sha256:aaaa", "sha256:bbbb", nil, []ChunkResult{
		{Chunk: 1, Instrs: 10, FetchBytes: 40, Opportunities: []Opportunity{
			{Chunk: 1, HeadAddr: 0x40, Len: 3, AvgFanoutMilli: 9500, SumFanout: 28, SavedBytes: 4},
		}},
		{Chunk: 0, Instrs: 10, FetchBytes: 40, Opportunities: []Opportunity{
			{Chunk: 0, HeadAddr: 0x10, Len: 2, AvgFanoutMilli: 12000, SumFanout: 24, SavedBytes: 2},
		}},
	})
	text := rep.Text()
	if !strings.Contains(text, "missed CritICs: 2") {
		t.Fatalf("report text:\n%s", text)
	}
	// Rank 1 is the higher average fanout, regardless of chunk arrival order.
	r1 := strings.Index(text, "0x10")
	r2 := strings.Index(text, "0x40")
	if r1 < 0 || r2 < 0 || r1 > r2 {
		t.Fatalf("ranking wrong:\n%s", text)
	}
	if rep.SavedBytes != 6 || rep.FetchBytes != 80 {
		t.Fatalf("totals: %+v", rep)
	}
	// 6/80 bytes = 7.5% = 75000 ppm.
	if rep.SpeedupPPM != 75000 || !strings.Contains(text, "(7.5000%)") {
		t.Fatalf("speedup %d ppm, text:\n%s", rep.SpeedupPPM, text)
	}
}

// BenchmarkBuildIndex pins the bounded-memory ingest property over a
// multi-MB image: one index allocation of 10 bytes per image byte, never a
// spare copy of the image. TestBuildIndexAllocCeiling asserts allocs/op and
// bytes-allocated ceilings over this benchmark.
func BenchmarkBuildIndex(b *testing.B) {
	img, _ := appImage(b, 0)
	for len(img) < 4<<20 {
		img = append(img, img...)
	}
	b.SetBytes(int64(len(img)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BuildIndex(bytes.NewReader(img), int64(len(img))); err != nil {
			b.Fatal(err)
		}
	}
}

// raceEnabled is set by race_test.go when the tests run under the race
// detector.
var raceEnabled bool

// TestBuildIndexAllocCeiling pins the scan index contract over one run of
// BenchmarkBuildIndex: indexing streams the image once and makes one
// allocation of 10 bytes per image byte (a 20-byte slot per halfword),
// never a copy of the image. The ceilings pin that over the ~7.5 MB
// benchmark image: at most 16 allocs/op (current: 7–9) and 12 bytes
// allocated per image byte (current: 10.0). Its ns/op is logged, not gated.
func TestBuildIndexAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	f := flag.Lookup("test.benchtime")
	old := f.Value.String()
	if err := f.Value.Set("1x"); err != nil {
		t.Fatal(err)
	}
	defer f.Value.Set(old)
	r := testing.Benchmark(BenchmarkBuildIndex)
	perByte := float64(r.AllocedBytesPerOp()) / float64(r.Bytes)
	t.Logf("multi-MB image index: %.1f ms/op (not gated), %d allocs/op (ceiling 16), %.2f B per image byte (ceiling 12)",
		float64(r.NsPerOp())/1e6, r.AllocsPerOp(), perByte)
	if r.N == 0 || r.Bytes == 0 || r.AllocsPerOp() > 16 || perByte > 12 {
		t.Errorf("index build over %d image bytes (%d runs): %d allocs/op (ceiling 16), %.2f B per image byte (ceiling 12)",
			r.Bytes, r.N, r.AllocsPerOp(), perByte)
	}
}
