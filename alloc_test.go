package critics

import (
	"flag"
	"runtime"
	"testing"
)

// raceEnabled is set by race_test.go when the tests run under the race
// detector.
var raceEnabled bool

// benchAt runs bench as `go test -bench -benchtime=<benchtime>` would: one
// warm-up run of one iteration, then the timed run, whose result it
// returns.
func benchAt(t *testing.T, benchtime string, bench func(*testing.B)) testing.BenchmarkResult {
	t.Helper()
	f := flag.Lookup("test.benchtime")
	old := f.Value.String()
	if err := f.Value.Set(benchtime); err != nil {
		t.Fatal(err)
	}
	defer f.Value.Set(old)
	return testing.Benchmark(bench)
}

// TestAllocCeilings pins the allocation ceilings of the no-records sim
// path, the memo hit path, a cached optimize job, the profile build and a
// streamed measurement.
//
// The streaming pipeline's contract: with a warm Sim, a no-records Run
// allocates nothing per instruction — only the constant chunk stream header
// (current value: 1). A single-variant measurement memo hit, the path every
// measurement of a cached optimize job takes, allocates only the
// configuration boxed for its key, its span label and the result slice
// (current value: 3, ceiling 9); 1000 iterations amortize the first
// lookup's pool refills. Its ns/op is logged, not gated: wall time is noisy.
// A cached optimize job in process (five memo hits plus per-job context
// set-up) costs about 41 KB/op; rendering keys through fmt and building a
// label escaper per labelled series lookup cost 288 KB/op, so the ceiling
// sits between the two. Its allocs/op are gated at 38 (current value: 37):
// the job's two measurements are one sweep, and a sweep whose units are all
// cached starts no goroutine and copies no cpu.Config onto the heap. A
// profile build streams its sampled windows through chain extraction chunk
// by chunk: acrobat's 4x10k plan costs about 1.8 MB/op, and
// re-materializing the windows (104 B per instruction) would add 4.2 MB, so
// the ceiling sits between the two. A streamed quick measurement allocates
// each cache's lines as one slice (a slice per set cost 4,911 allocs/op)
// and trains no criticality table under the default config, which reads
// none: 34-35 allocs/op and 1.24 MB/op over 100 iterations, where training
// cost 43 allocs/op and 2.29 MB/op, so the ceilings are 40 allocs/op and
// 1,750,000 B/op. The test fails if any of them regresses past its pinned
// ceiling.
//
// The no-records sim path and the streamed measurement run at GOMAXPROCS
// 1. Their pooled window and chunk buffers go back to the P a run finished
// on, and a goroutine that moves to another P before the next run misses
// them: with more Ps the counts would follow the machine's width and its
// load (the no-records path read 62 allocs/op and 2.2 MB/op beside another
// package's tests, where it reads 1 and 64 B).
func TestAllocCeilings(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	cases := []struct {
		name      string
		bench     func(*testing.B)
		benchtime string
		procs     int   // GOMAXPROCS for the run; 0 keeps the current value
		allocs    int64 // ceiling on allocs/op; 0 = not gated
		bytes     int64 // ceiling on B/op; 0 = not gated
	}{
		{"no-records sim path", BenchmarkSimNoRecords, "1x", 1, 8, 0},
		{"measurement memo hit", BenchmarkMeasureVariantHit, "1000x", 0, 9, 0},
		{"cached optimize job", BenchmarkOptimizeWarm, "1000x", 0, 38, 100_000},
		{"profile build", BenchmarkProfiler, "5x", 0, 0, 2_500_000},
		{"streamed measurement", BenchmarkMeasureStreaming, "100x", 1, 40, 1_750_000},
	}
	for _, c := range cases {
		prev := runtime.GOMAXPROCS(c.procs) // 0 leaves it unchanged
		r := benchAt(t, c.benchtime, c.bench)
		runtime.GOMAXPROCS(prev)
		t.Logf("%s: %d allocs/op, %d B/op, %d ns/op (reported, not gated)",
			c.name, r.AllocsPerOp(), r.AllocedBytesPerOp(), r.NsPerOp())
		if r.N == 0 || (c.allocs > 0 && r.AllocsPerOp() > c.allocs) || (c.bytes > 0 && r.AllocedBytesPerOp() > c.bytes) {
			t.Errorf("%s: %d allocs/op (ceiling %d), %d B/op (ceiling %d; 0 = not gated), %d iterations",
				c.name, r.AllocsPerOp(), c.allocs, r.AllocedBytesPerOp(), c.bytes, r.N)
		}
	}
}
