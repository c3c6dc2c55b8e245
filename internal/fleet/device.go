package fleet

import (
	"critics/internal/core"
	"critics/internal/cpu"
	"critics/internal/dfg"
	"critics/internal/sketch"
	"critics/internal/trace"
	"critics/internal/workload"
)

// DevicePlan is the per-round device sampling plan: deliberately tiny next
// to the coordinator's experiment plans — a device profiles a handful of
// short windows during idle time. Rounds extend the plan (more samples of
// the same deterministic stream), so a device's round-r sketch dominates
// its round-(r-1) sketch and re-sends supersede cleanly under the lattice
// merge.
func DevicePlan(round int) trace.SamplePlan {
	if round < 0 {
		round = 0
	}
	return trace.SamplePlan{Samples: 2 + round, Length: 4000, Gap: 1500, Warmup: 1000}
}

// deviceSeed perturbs the trace seed per device so the fleet observes
// overlapping-but-distinct windows of the app — the situation consensus
// aggregation exists for. The perturbation is a pure function of the
// device id, so every run of the same device is deterministic.
func deviceSeed(a workload.App, deviceID string) int64 {
	return a.Params.Seed + int64(sketch.HashDevice(deviceID)&0x0F)
}

// BuildDeviceSketch is the device side of the loop: profile the app over
// the round's sampled windows, fold the result into a bounded sketch —
// chain keys with counts and criticality, the per-instruction fanout
// histogram, stall attribution from a micro cycle simulation of the
// sampled windows — and stamp the device into the KMV set. Everything is
// cumulative and monotone in round, and deterministic in (app, deviceID,
// round).
func BuildDeviceSketch(a workload.App, deviceID string, round int) *sketch.Sketch {
	p := workload.Generate(a.Params)
	seed, plan := deviceSeed(a, deviceID), DevicePlan(round)

	cfg := core.DefaultConfig()
	cfg.CoverageTarget = 0 // keep every candidate: selection happens at the coordinator
	cfg.MaxEntries = 0
	prof := core.BuildProfile(p, seed, plan, cfg)

	s := sketch.New(a.Params.Name)
	s.AddProfile(prof)
	s.AddDevice(deviceID)

	// Fanout histogram and stall attribution over a second pass of the same
	// windows: each streams its online fanouts into the micro simulation,
	// whose commit observer folds both. Both accumulate across the plan's
	// windows; prefix-stable sampling keeps them monotone in round.
	var fan [sketch.FanoutBuckets]uint64
	var bkd cpu.Breakdown
	sim := cpu.New(cpu.DefaultConfig())
	sim.OnCommit(func(_ *trace.Dyn, f int32, r *cpu.Record) {
		fan[sketch.FanoutBucket(f)]++
		bkd.Add(cpu.BreakdownOf(r))
	})
	var fs dfg.FanoutStream
	trace.Sample(p, seed, plan, 0, func(src trace.Source) {
		fs.Reset(src, cfg.FanoutWindow)
		sim.RunStream(&fs)
	})
	s.AddFanout(fan[:])
	s.AddStall(bkd)
	return s
}
