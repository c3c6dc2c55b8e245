package critics

import (
	"fmt"
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
