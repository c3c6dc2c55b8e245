package critics

import (
	"testing"

	"critics/internal/cpu"
	"critics/internal/exp"
)

// sweepConfigs is the fig11 hardware sweep shape: the default machine plus
// every Fig. 11 mechanism, all measuring the same variant trace — the
// canonical batched-sweep workload.
func sweepConfigs() []cpu.Config {
	cfgs := []cpu.Config{cpu.DefaultConfig()}
	for _, mech := range exp.HWMechs {
		cfgs = append(cfgs, exp.ApplyHW(mech))
	}
	return cfgs
}

// BenchmarkSweepSerial measures the serial reference: one uncached Measure
// per machine configuration, each paying its own trace-generation and fanout
// pass. Per-iteration context setup (program generation) is excluded from
// the timer.
func BenchmarkSweepSerial(b *testing.B) {
	app := acrobatProgram()
	cfgs := sweepConfigs()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		ctx := exp.QuickContext()
		p := ctx.Program(*app)
		b.StartTimer()
		for _, cfg := range cfgs {
			ctx.Measure(p, cfg, false)
		}
	}
}

// BenchmarkSweepBatched measures the batched sweep path: all configurations
// of the variant build as lockstep BatchSim lanes over one shared trace pass
// (exp.MeasureBatch on a cold measurement cache). Output is bit-identical to
// the serial path — see TestCatalogBatchedEquivalence — so ns/op against
// BenchmarkSweepSerial is the sweep speedup. The lanes simulate concurrently,
// so the ratio scales with cores: on one core only the shared generation and
// fanout work is saved.
func BenchmarkSweepBatched(b *testing.B) {
	app := acrobatProgram()
	cfgs := sweepConfigs()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		ctx := exp.QuickContext()
		ctx.Program(*app)
		b.StartTimer()
		ctx.MeasureBatch(*app, exp.VarBase, cfgs, false)
	}
}
