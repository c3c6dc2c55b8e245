// Package ledger runs the rows of the per-layer cost ledger. A row is one
// benchmark at a fixed iteration count and GOMAXPROCS, with allocation
// ceilings; Run runs a row once, gates its ceilings and returns its
// BENCH.json entry. The table is the root package's ledger_test.go.
//
// The package also holds the two rows whose gates sit in the packages they
// measure as well as in the table, so that both run the same benchmark at
// the same ceilings: Ingest (internal/server's
// TestProfileIngestAllocCeiling) and Index (internal/scan's
// TestBuildIndexAllocCeiling). Only tests import it.
package ledger

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"critics"
	"critics/internal/fleet"
	"critics/internal/scan"
	"critics/internal/server"
	"critics/internal/telemetry"
	"critics/internal/workload"
)

// raceEnabled is set by race.go when the tests run under the race detector.
var raceEnabled bool

// Row is one row of the ledger: a benchmark run at a fixed iteration count,
// so a test's run time is bounded, with its allocation ceilings.
type Row struct {
	Layer, Case string // Layer: the critics_<layer>_* metric prefix, else the package
	Bench       func(*testing.B)
	N           int   // iterations, as -benchtime=<N>x
	Procs       int   // GOMAXPROCS for the run; 0 keeps the current value
	Allocs      int64 // ceiling on allocs/op; 0 = not gated
	Bytes       int64 // ceiling on B/op; 0 = not gated
	UnitBytes   int64 // ceiling on B/op per unit of b.SetBytes; 0 = not gated
}

// Gated reports whether the row has a ceiling.
func (r Row) Gated() bool { return r.Allocs > 0 || r.Bytes > 0 || r.UnitBytes > 0 }

// Entry is one row's result, a row of BENCH.json; units_op is what the
// benchmark passed to b.SetBytes (simulated or generated instructions for
// the sim and trace rows, bytes for decode and index), 0 when it passed
// nothing.
type Entry struct {
	Layer      string `json:"layer"`
	Case       string `json:"case"`
	GoMaxProcs int    `json:"gomaxprocs"`
	N          int    `json:"n"`
	NsOp       int64  `json:"ns_op"`
	AllocsOp   int64  `json:"allocs_op"`
	BytesOp    int64  `json:"bytes_op"`
	UnitsOp    int64  `json:"units_op"`
}

// Run runs the row once through testing.Benchmark at -benchtime=<N>x and
// logs its ns/op without gating it: allocation counts repeat, wall time is
// noisy. It fails t if the row ran other than N iterations or passed a
// ceiling, and skips t under the race detector, which changes allocation
// counts.
func Run(t *testing.T, r Row) Entry {
	t.Helper()
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	benchtime := flag.Lookup("test.benchtime").Value
	defer benchtime.Set(benchtime.String())
	if err := benchtime.Set(fmt.Sprintf("%dx", r.N)); err != nil {
		t.Fatal(err)
	}
	prev := runtime.GOMAXPROCS(r.Procs)
	res := testing.Benchmark(r.Bench)
	procs := runtime.GOMAXPROCS(prev) // the value the row ran at
	e := Entry{r.Layer, r.Case, procs, res.N, res.NsPerOp(), res.AllocsPerOp(), res.AllocedBytesPerOp(), res.Bytes}
	t.Logf("%s %s: %d ns/op (not gated), %d allocs/op, %d B/op, %d units/op, GOMAXPROCS %d",
		r.Layer, r.Case, e.NsOp, e.AllocsOp, e.BytesOp, e.UnitsOp, procs)
	if res.N != r.N || (r.Allocs > 0 && e.AllocsOp > r.Allocs) || (r.Bytes > 0 && e.BytesOp > r.Bytes) ||
		(r.UnitBytes > 0 && (e.UnitsOp == 0 || e.BytesOp > r.UnitBytes*e.UnitsOp)) {
		t.Errorf("%s %s: %d of %d iterations, %d allocs/op, %d B/op, %d units/op; ceilings (0 = not gated) %d allocs/op, %d B/op, %d B per unit",
			r.Layer, r.Case, res.N, r.N, e.AllocsOp, e.BytesOp, e.UnitsOp, r.Allocs, r.Bytes, r.UnitBytes)
	}
	return e
}

// Ingest is the fleet ingest request over 2000 iterations of
// profileIngest. The request decodes into a sketch the fleet service
// recycles, about 15 KB/op; a fresh 32 KB sketch per request cost
// 87 KB/op, so the ceiling is 32,768 B/op.
var Ingest = Row{Layer: "fleet", Case: "ingest-request", Bench: profileIngest, N: 2000, Bytes: 32_768}

// Index is one scan index build over a multi-MB image: one allocation of
// 10 bytes per image byte (a 20-byte slot per halfword), never a copy of
// the image, 7-9 allocs/op. The ceilings are 16 allocs/op and 12 B per
// image byte.
var Index = Row{Layer: "scan", Case: "index", Bench: buildIndex, N: 1, Allocs: 16, UnitBytes: 12}

// profileIngest serves POST /v1/profiles in process, round-robin over 8
// device sketches, and stops the timer once every post is merged: the
// per-request cost of fleet ingest from body to consensus, without sockets.
// It posts only while fewer than 8 posts wait for the merger, the sketches
// the warm-up round put in circulation. An unpaced loop outruns the merger
// whenever the scheduler sets the merger aside, and then a request decodes
// into a fresh sketch or is refused by the full queue. Pacing keeps every
// request on the free list, so the allocations per request do not depend on
// scheduling.
func profileIngest(b *testing.B) {
	app := workload.MobileApps()[0]
	bodies := make([][]byte, 8)
	for i := range bodies {
		bodies[i] = fleet.BuildDeviceSketch(app, deviceName(i), 1).Encode()
	}
	reg := telemetry.NewRegistry()
	s := server.New(server.Config{QueueSize: 8, Workers: 2, Registry: reg})
	defer s.Shutdown(context.Background())
	h := s.Handler()
	// One warm-up round archives every sketch and sizes the consensus.
	for _, body := range bodies {
		if code := postProfile(h, body); code != http.StatusAccepted {
			b.Fatalf("warm-up post answered %d", code)
		}
	}
	waitMerged(b, h, app.Params.Name, uint64(len(bodies)))
	// The merger counts a sketch after it is back on the free list.
	merged := reg.Counter("critics_fleet_sketches_total", "", telemetry.L("app", app.Params.Name))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// len(bodies)+i posted: wait for i+1 merged.
		for deadline := time.Now().Add(10 * time.Second); merged.Value() <= int64(i); runtime.Gosched() {
			if time.Now().After(deadline) {
				b.Fatalf("merger stalled at %d sketches", merged.Value())
			}
		}
		if code := postProfile(h, bodies[i%len(bodies)]); code != http.StatusAccepted {
			b.Fatalf("post answered %d", code)
		}
	}
	waitMerged(b, h, app.Params.Name, uint64(len(bodies)+b.N))
	b.StopTimer()
}

func deviceName(i int) string { return string([]byte{'d', byte('0' + i)}) }

// postProfile serves one POST /v1/profiles in process and returns its
// status code.
func postProfile(h http.Handler, body []byte) int {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/profiles", bytes.NewReader(body)))
	return rec.Code
}

// waitMerged polls GET /v1/fleet in process until the app reports n merged
// sketches.
func waitMerged(tb testing.TB, h http.Handler, app string, n uint64) {
	tb.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/fleet", nil))
		var fl server.FleetResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &fl); err != nil {
			tb.Fatalf("GET /v1/fleet: %v", err)
		}
		for _, as := range fl.Apps {
			if as.App == app && as.Sketches >= n {
				return
			}
		}
		if time.Now().After(deadline) {
			tb.Fatalf("timed out waiting for %d merged sketches of %s", n, app)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// buildIndex pins the bounded-memory ingest property over a multi-MB
// image: it indexes acrobat's scan image, doubled until it passes 4 MiB.
func buildIndex(b *testing.B) {
	img, _, err := critics.ScanInputs("acrobat", 0)
	if err != nil {
		b.Fatal(err)
	}
	for len(img) < 4<<20 {
		img = append(img, img...)
	}
	b.SetBytes(int64(len(img)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := scan.BuildIndex(bytes.NewReader(img), int64(len(img))); err != nil {
			b.Fatal(err)
		}
	}
}
