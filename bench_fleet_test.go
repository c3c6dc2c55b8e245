package critics

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sync"
	"testing"

	"critics/internal/fleet"
	"critics/internal/sketch"
)

// fleetBenchSketches returns one round-1 device sketch per simulated device,
// built once and shared — the benchmarks measure merging and ingest, not
// device-side profiling.
var fleetBenchSketches = sync.OnceValue(func() []*sketch.Sketch {
	app := acrobatProgram()
	out := make([]*sketch.Sketch, 16)
	for i := range out {
		out[i] = fleet.BuildDeviceSketch(*app, fmt.Sprintf("bench-device-%02d", i), 1)
	}
	return out
})

// BenchmarkSketchMerge measures one consensus lattice join: folding the full
// device set into a fresh sketch, the coordinator's hot path. ns/op divided
// by the device count is the per-sketch merge cost.
func BenchmarkSketchMerge(b *testing.B) {
	sks := fleetBenchSketches()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		acc := sketch.New(sks[0].App)
		for _, sk := range sks {
			acc.Merge(sk)
		}
	}
}

// BenchmarkSketchDecode measures the strict wire decoder on a consensus-size
// sketch, decoding into one reused sketch as the fleet service's recycled
// sketches do — the per-request cost of POST /v1/profiles before admission.
func BenchmarkSketchDecode(b *testing.B) {
	acc := sketch.New(fleetBenchSketches()[0].App)
	for _, sk := range fleetBenchSketches() {
		acc.Merge(sk)
	}
	wire := acc.Encode()
	var into sketch.Sketch
	b.SetBytes(int64(len(wire)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := into.UnmarshalBinary(wire); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFleetIngest measures end-to-end ingest throughput: offering the
// device set through the bounded queue and draining, so one op is a full
// fleet round (queue handoff + merge + metrics). sketches/sec =
// len(devices) / (ns_per_op * 1e-9).
func BenchmarkFleetIngest(b *testing.B) {
	sks := fleetBenchSketches()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := fleet.NewService(fleet.Config{QueueSize: len(sks)})
		for _, sk := range sks {
			if !s.Offer(sk) {
				b.Fatal("offer refused with a fleet-sized queue")
			}
		}
		s.Drain()
	}
}

// fleetBenchEntry is one benchmark's line in BENCH_fleet.json.
type fleetBenchEntry struct {
	NsPerOp     int64   `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	N           int     `json:"n"`
	UsPerOp     float64 `json:"us_per_op"`
}

// fleetBenchReport is the schema of BENCH_fleet.json — the fleet ingest
// throughput trajectory, written by TestWriteFleetBench in CI.
type fleetBenchReport struct {
	Devices         int             `json:"devices"`
	WireBytes       int             `json:"wire_bytes"` // consensus sketch wire size
	GoMaxProcs      int             `json:"gomaxprocs"`
	Merge           fleetBenchEntry `json:"merge"`
	Decode          fleetBenchEntry `json:"decode"`
	Ingest          fleetBenchEntry `json:"ingest"`
	IngestPerSecond float64         `json:"ingest_sketches_per_second"`
}

func toFleetEntry(r testing.BenchmarkResult) fleetBenchEntry {
	return fleetBenchEntry{
		NsPerOp:     r.NsPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
		N:           r.N,
		UsPerOp:     float64(r.NsPerOp()) / 1e3,
	}
}

// TestWriteFleetBench runs the fleet benchmarks once and writes
// BENCH_fleet.json (sketch-merge ns/op, decode ns/op, ingest throughput) to
// the path named by the BENCH_FLEET_OUT environment variable; unset, the
// test is skipped.
func TestWriteFleetBench(t *testing.T) {
	out := os.Getenv("BENCH_FLEET_OUT")
	if out == "" {
		t.Skip("BENCH_FLEET_OUT not set")
	}
	merge := testing.Benchmark(BenchmarkSketchMerge)
	decode := testing.Benchmark(BenchmarkSketchDecode)
	ingest := testing.Benchmark(BenchmarkFleetIngest)

	acc := sketch.New(fleetBenchSketches()[0].App)
	for _, sk := range fleetBenchSketches() {
		acc.Merge(sk)
	}
	rep := fleetBenchReport{
		Devices:    len(fleetBenchSketches()),
		WireBytes:  len(acc.Encode()),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Merge:      toFleetEntry(merge),
		Decode:     toFleetEntry(decode),
		Ingest:     toFleetEntry(ingest),
	}
	if ns := ingest.NsPerOp(); ns > 0 {
		rep.IngestPerSecond = float64(rep.Devices) / (float64(ns) / 1e9)
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(out, data, 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("fleet bench: merge %.1fµs/op, decode %.1fµs/op, ingest %.0f sketches/s (%d devices, %d wire bytes)",
		rep.Merge.UsPerOp, rep.Decode.UsPerOp, rep.IngestPerSecond, rep.Devices, rep.WireBytes)
}
