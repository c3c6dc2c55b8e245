package critics_test

import (
	"encoding/json"
	"os"
	"runtime"
	"testing"

	"critics"
	"critics/internal/ledger"
)

// rows is every layer's cost, one row per case, in BENCH.json's order. Why
// each ceiling sits where it does (ledger.Ingest and ledger.Index say why
// for theirs):
//
//   - sim no-records: a Run on a warm Sim allocates nothing per instruction,
//     only the chunk stream header (1 alloc, 64 B).
//   - measure streamed: each cache's lines are one slice (a slice per set
//     cost 4,911 allocs/op) and the default config trains no criticality
//     table (training cost 43 allocs/op and 2.29 MB/op): 34-35 allocs/op and
//     1.24 MB/op.
//   - Both run at GOMAXPROCS 1. Their pooled window and chunk buffers go
//     back to the P a run finished on, and a goroutine that moves to another
//     P misses them: with more Ps the counts follow the machine's width and
//     load (no-records read 62 allocs/op and 2.2 MB/op beside another
//     package's tests).
//   - measure sweep-batched: the lanes allocate per lane and per chunk
//     buffer, never per instruction (the sweep simulates about 400k
//     instructions per op). The pools are per P, so the count depends on
//     scheduling: 456-807 allocs/op at 3x over -cpu 1,2,4,8 with -count 5,
//     and 432-735 beside another package's tests. The ceiling is about twice
//     the highest reading.
//   - memo measure-hit: a hit allocates only its span label and the result
//     slice (2 allocs, 32-36 B/op); its key boxes nothing. 1000 iterations
//     amortize the first lookup's pool refills.
//   - memo optimize-job: five memo hits plus the per-job context set-up,
//     33 allocs/op and 1,792-1,795 B/op over -count 5. The report counts
//     the selected chains without copying them (the copy cost 26 KB/op),
//     the app lookup scans a catalog built once, rendering keys through fmt
//     cost 288 KB/op, and a fully cached sweep starts no goroutine.
//   - core profile: acrobat's 4x10k plan streams its windows through chain
//     extraction chunk by chunk, about 1.5 MB/op; re-materializing the
//     windows would add 4.2 MB. Chain extraction reuses one member buffer,
//     so what allocates is each kept chain's copy: 2,711-2,712 allocs/op
//     over -count 5, and the ceiling is about twice that.
var rows = []ledger.Row{
	{Layer: "sim", Case: "no-records", Bench: critics.BenchmarkSimNoRecords, N: 1, Procs: 1, Allocs: 8},
	{Layer: "sim", Case: "telemetry-off", Bench: critics.BenchmarkSimTelemetryOff, N: 20},
	{Layer: "sim", Case: "telemetry-on", Bench: critics.BenchmarkSimTelemetryOn, N: 20},
	{Layer: "measure", Case: "streamed", Bench: critics.BenchmarkMeasureStreaming, N: 100, Procs: 1, Allocs: 40, Bytes: 1_750_000},
	{Layer: "measure", Case: "sweep-serial", Bench: critics.BenchmarkSweepSerial, N: 3},
	{Layer: "measure", Case: "sweep-batched", Bench: critics.BenchmarkSweepBatched, N: 3, Allocs: 1_700},
	{Layer: "memo", Case: "measure-hit", Bench: critics.BenchmarkMeasureVariantHit, N: 1000, Allocs: 4, Bytes: 256},
	{Layer: "memo", Case: "optimize-job", Bench: critics.BenchmarkOptimizeWarm, N: 1000, Allocs: 35, Bytes: 4_096},
	{Layer: "core", Case: "profile", Bench: critics.BenchmarkProfiler, N: 5, Allocs: 5_400, Bytes: 2_500_000},
	{Layer: "frontend", Case: "lru", Bench: critics.BenchmarkFrontendPolicyLRU, N: 10},
	{Layer: "frontend", Case: "srrip", Bench: critics.BenchmarkFrontendPolicySRRIP, N: 10},
	{Layer: "frontend", Case: "trrip", Bench: critics.BenchmarkFrontendPolicyTRRIP, N: 10},
	{Layer: "frontend", Case: "layout-c3", Bench: critics.BenchmarkLayoutC3, N: 100},
	{Layer: "fleet", Case: "merge", Bench: critics.BenchmarkSketchMerge, N: 1000},
	{Layer: "fleet", Case: "decode", Bench: critics.BenchmarkSketchDecode, N: 10000},
	ledger.Ingest,
	ledger.Index,
	{Layer: "encoding", Case: "A32", Bench: critics.BenchmarkEncodeA32, N: 1_000_000},
	{Layer: "encoding", Case: "T16", Bench: critics.BenchmarkEncodeT16, N: 1_000_000},
	{Layer: "trace", Case: "generate", Bench: critics.BenchmarkTraceGeneration, N: 100},
}

// frontendPolicyOverheadCeiling bounds how much slower a non-lru policy may
// simulate relative to lru. The policy seam is two interface calls per cache
// event; srrip/trrip add RRPV updates and (trrip) a binary search over the
// hint table per hit. 1.5x leaves room for noise on shared CI runners while
// still catching an accidental per-access allocation or quadratic scan.
const frontendPolicyOverheadCeiling = 1.5

// ledgerFile is the schema of BENCH.json.
type ledgerFile struct {
	GoArch    string         `json:"goarch"`
	NumCPU    int            `json:"num_cpu"`
	GoVersion string         `json:"go_version"`
	Rows      []ledger.Entry `json:"rows"`
}

// TestAllocCeilings runs every ledger row that has a ceiling and gates it.
// internal/server and internal/scan also gate ledger.Ingest and ledger.Index
// in their own tests, so each package's go test catches a regression of its
// row.
func TestAllocCeilings(t *testing.T) {
	for _, r := range rows {
		if r.Gated() {
			ledger.Run(t, r)
		}
	}
}

// TestLedger runs the ledger rows that have no ceiling, which
// TestAllocCeilings leaves out, and logs their ns/op. With BENCH_OUT set it
// runs every row, gating the ceilings, checks the front-end policies'
// overhead, which is wall time, and writes the ledger to the file BENCH_OUT
// names.
func TestLedger(t *testing.T) {
	out := os.Getenv("BENCH_OUT")
	led := ledgerFile{GoArch: runtime.GOARCH, NumCPU: runtime.NumCPU(), GoVersion: runtime.Version()}
	ns := map[string]int64{}
	for _, r := range rows {
		if out == "" && r.Gated() {
			continue
		}
		e := ledger.Run(t, r)
		ns[r.Layer+"/"+r.Case] = e.NsOp
		led.Rows = append(led.Rows, e)
	}
	if out == "" {
		return
	}
	for _, pol := range []string{"srrip", "trrip"} {
		if ratio := float64(ns["frontend/"+pol]) / float64(ns["frontend/lru"]); ratio > frontendPolicyOverheadCeiling {
			t.Errorf("%s simulates %.2fx slower than lru, ceiling %.1fx", pol, ratio, frontendPolicyOverheadCeiling)
		}
	}
	data, err := json.MarshalIndent(led, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}
