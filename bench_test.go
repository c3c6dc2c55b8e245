package critics

import (
	"sync"
	"testing"

	"critics/internal/compiler"
	"critics/internal/core"
	"critics/internal/cpu"
	"critics/internal/dfg"
	"critics/internal/encoding"
	"critics/internal/exp"
	"critics/internal/isa"
	"critics/internal/telemetry"
	"critics/internal/trace"
	"critics/internal/workload"
)

// benchSession is shared across the experiment benchmarks so programs,
// profiles and compiled variants are built once.
var (
	benchOnce sync.Once
	benchSess *Session
)

func session() *Session {
	benchOnce.Do(func() {
		benchSess = NewSession(WithQuickScale())
	})
	return benchSess
}

// benchExp runs one experiment id per iteration. The first iteration pays
// for program/profile/measurement construction; later iterations hit the
// session's memo caches, so the steady-state number measures the experiment
// pipeline with baseline reuse (the engine's production behavior across
// figures). Cache hit/miss deltas are reported as benchmark metrics.
func benchExp(b *testing.B, id string) {
	b.Helper()
	sess := session()
	before := sess.CacheStats()
	for i := 0; i < b.N; i++ {
		out, err := sess.Experiment(id)
		if err != nil {
			b.Fatal(err)
		}
		if len(out) == 0 {
			b.Fatal("empty experiment output")
		}
	}
	after := sess.CacheStats()
	b.ReportMetric(float64(after.Measurements.Hits-before.Measurements.Hits)/float64(b.N), "meas-hits/op")
	b.ReportMetric(float64(after.Measurements.Misses-before.Measurements.Misses)/float64(b.N), "meas-misses/op")
}

// BenchmarkAllExperiments runs the full figure/table suite per iteration
// through one session, the way cmd/criticsim -all does. The memo caches make
// experiments after the first reuse each app's baseline and variant
// measurements instead of regenerating and resimulating them (the seed code
// rebuilt each baseline once per figure).
func BenchmarkAllExperiments(b *testing.B) {
	ids := ExperimentIDs()
	sess := NewSession(WithQuickScale())
	before := sess.CacheStats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, id := range ids {
			out, err := sess.Experiment(id)
			if err != nil {
				b.Fatal(err)
			}
			if len(out) == 0 {
				b.Fatal("empty experiment output")
			}
		}
	}
	b.StopTimer()
	after := sess.CacheStats()
	b.ReportMetric(float64(after.Measurements.Hits-before.Measurements.Hits)/float64(b.N), "meas-hits/op")
	b.ReportMetric(float64(after.Measurements.Misses-before.Measurements.Misses)/float64(b.N), "meas-misses/op")
}

// One benchmark per table and figure of the paper's evaluation (DESIGN.md's
// per-experiment index).

func BenchmarkFig1a(b *testing.B)  { benchExp(b, "fig1a") }
func BenchmarkFig1b(b *testing.B)  { benchExp(b, "fig1b") }
func BenchmarkFig3a(b *testing.B)  { benchExp(b, "fig3a") }
func BenchmarkFig3b(b *testing.B)  { benchExp(b, "fig3b") }
func BenchmarkFig3c(b *testing.B)  { benchExp(b, "fig3c") }
func BenchmarkFig5a(b *testing.B)  { benchExp(b, "fig5a") }
func BenchmarkFig5b(b *testing.B)  { benchExp(b, "fig5b") }
func BenchmarkFig8(b *testing.B)   { benchExp(b, "fig8") }
func BenchmarkFig10a(b *testing.B) { benchExp(b, "fig10a") }
func BenchmarkFig10b(b *testing.B) { benchExp(b, "fig10b") }
func BenchmarkFig10c(b *testing.B) { benchExp(b, "fig10c") }
func BenchmarkFig11a(b *testing.B) { benchExp(b, "fig11a") }
func BenchmarkFig11b(b *testing.B) { benchExp(b, "fig11b") }
func BenchmarkFig12a(b *testing.B) { benchExp(b, "fig12a") }
func BenchmarkFig12b(b *testing.B) { benchExp(b, "fig12b") }
func BenchmarkFig13a(b *testing.B) { benchExp(b, "fig13a") }
func BenchmarkFig13b(b *testing.B) { benchExp(b, "fig13b") }
func BenchmarkTable1(b *testing.B) { benchExp(b, "tab1") }
func BenchmarkTable2(b *testing.B) { benchExp(b, "tab2") }

// ---- Component micro-benchmarks -----------------------------------------

// acrobatProgram returns a generated app program shared by the micro
// benchmarks.
var acrobatProgram = sync.OnceValue(func() *workload.App {
	a, _ := workload.FindApp("acrobat")
	return &a
})

func BenchmarkTraceGeneration(b *testing.B) {
	app := acrobatProgram()
	p := workload.Generate(app.Params)
	g := trace.NewGenerator(p, 1)
	buf := make([]trace.Dyn, 0, 10_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = g.Generate(buf[:0], 10_000)
	}
	b.SetBytes(10_000)
}

func BenchmarkPipelineSimulation(b *testing.B) {
	app := acrobatProgram()
	p := workload.Generate(app.Params)
	g := trace.NewGenerator(p, 1)
	g.Skip(10_000)
	dyns := g.Generate(nil, 20_000)
	fan := dfg.Fanouts(dyns, 128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := cpu.New(cpu.DefaultConfig())
		s.Run(dyns, fan)
	}
	b.SetBytes(20_000)
}

// BenchmarkSimNoRecords is the allocation guard for the no-records
// simulation hot path: with a hoisted Sim and the window buffers warm in
// the pool, a Run must not allocate per instruction (TestAllocCeilings pins
// allocs/op).
func BenchmarkSimNoRecords(b *testing.B) {
	app := acrobatProgram()
	p := workload.Generate(app.Params)
	g := trace.NewGenerator(p, 1)
	g.Skip(10_000)
	dyns := g.Generate(nil, 20_000)
	fan := dfg.Fanouts(dyns, 128)
	s := cpu.New(cpu.DefaultConfig())
	s.Run(dyns, fan) // warm the buffer pool before measuring
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Run(dyns, fan)
	}
	b.SetBytes(20_000)
}

// BenchmarkMeasureStreaming runs the streamed (collect=false) measurement
// primitive end-to-end — generate, online fanout, simulate — at quick
// scale; allocs/op shows the constant per-window footprint.
func BenchmarkMeasureStreaming(b *testing.B) {
	ctx := exp.QuickContext()
	app := acrobatProgram()
	p := ctx.Program(*app)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx.Measure(p, cpu.DefaultConfig(), false)
	}
}

// BenchmarkMeasureVariantHit is the allocation guard for the single-variant
// memo-hit path, the path every measurement of a cached optimize job takes.
// TestAllocCeilings pins allocs/op.
func BenchmarkMeasureVariantHit(b *testing.B) {
	ctx := exp.QuickContext()
	app := acrobatProgram()
	ctx.MeasureVariant(*app, exp.VarBase, cpu.DefaultConfig(), false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx.MeasureVariant(*app, exp.VarBase, cpu.DefaultConfig(), false)
	}
}

// warmApps are the apps the served warm workload cycles its cached optimize
// jobs through.
var warmApps = []string{"acrobat", "maps", "browser", "email"}

// reportSink keeps BenchmarkOptimizeWarm's result live.
var reportSink *Report

// BenchmarkOptimizeWarm is a cached optimize job in process: OptimizeApp
// with the daemon's options (quick scale, one SharedCaches, one telemetry
// registry) over caches primed for every app, so each op is five memo hits
// plus the per-job context set-up. TestAllocCeilings pins its bytes/op and
// allocs/op.
func BenchmarkOptimizeWarm(b *testing.B) {
	opts := []Option{WithQuickScale(), WithSharedCaches(NewSharedCaches()), WithTelemetry(telemetry.NewRegistry())}
	for _, name := range warmApps {
		if _, err := OptimizeApp(name, opts...); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := OptimizeApp(warmApps[i%len(warmApps)], opts...)
		if err != nil {
			b.Fatal(err)
		}
		reportSink = rep
	}
}

// benchmarkSimTelemetry shows the cost of the telemetry instrumentation:
// Off simulates with Config.Metrics nil (the nil-sink fast path every
// experiment runs with unless -metrics-addr is up), On attaches a live
// registry. Both are ledger rows, so the pair is comparable in one log.
func benchmarkSimTelemetry(b *testing.B, metrics *cpu.Metrics) {
	app := acrobatProgram()
	p := workload.Generate(app.Params)
	g := trace.NewGenerator(p, 1)
	g.Skip(10_000)
	dyns := g.Generate(nil, 20_000)
	fan := dfg.Fanouts(dyns, 128)
	cfg := cpu.DefaultConfig()
	cfg.Metrics = metrics
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := cpu.New(cfg)
		s.Run(dyns, fan)
	}
	b.SetBytes(20_000)
}

func BenchmarkSimTelemetryOff(b *testing.B) { benchmarkSimTelemetry(b, nil) }

func BenchmarkSimTelemetryOn(b *testing.B) {
	benchmarkSimTelemetry(b, cpu.NewMetrics(telemetry.NewRegistry()))
}

func BenchmarkChainExtraction(b *testing.B) {
	app := acrobatProgram()
	p := workload.Generate(app.Params)
	g := trace.NewGenerator(p, 1)
	g.Skip(10_000)
	dyns := g.Generate(nil, 20_000)
	opt := dfg.DefaultOptions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dfg.Extract(dyns, opt)
	}
	b.SetBytes(20_000)
}

// profilerPlan is the sampling plan of the profiler benchmarks: four 10k
// windows of acrobat.
var profilerPlan = trace.SamplePlan{Samples: 4, Length: 10_000, Gap: 2_000, Warmup: 2_000}

// profileSink keeps BenchmarkProfiler's result live.
var profileSink *core.Profile

// BenchmarkProfiler times a whole profile build: sampling the windows plus
// chain extraction, which streams each window chunk by chunk.
// TestAllocCeilings pins its bytes/op below what re-materializing the
// windows would add.
func BenchmarkProfiler(b *testing.B) {
	app := acrobatProgram()
	p := workload.Generate(app.Params)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		profileSink = core.BuildProfile(p, 1, profilerPlan, core.DefaultConfig())
	}
}

func BenchmarkCritICPass(b *testing.B) {
	app := acrobatProgram()
	p := workload.Generate(app.Params)
	prof := core.BuildProfile(p, 1, profilerPlan, core.DefaultConfig())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := compiler.ApplyCritIC(p, prof, compiler.Options{MaxLen: 5, Switch: compiler.SwitchCDP}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncodeA32(b *testing.B) {
	in := isa.Inst{Op: isa.OpADD, Rd: isa.R1, Rn: isa.R2, Rm: isa.R3}
	for i := 0; i < b.N; i++ {
		if _, err := encoding.EncodeA32(in); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncodeT16(b *testing.B) {
	in := isa.Inst{Op: isa.OpADD, Rd: isa.R1, Rn: isa.R2, Rm: isa.R3}
	for i := 0; i < b.N; i++ {
		if _, err := encoding.EncodeT16(in); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWorkloadGeneration(b *testing.B) {
	app := acrobatProgram()
	for i := 0; i < b.N; i++ {
		workload.Generate(app.Params)
	}
}

// BenchmarkEndToEnd runs the complete pipeline (profile + compile + simulate
// baseline and optimized) for one app at quick scale.
func BenchmarkEndToEnd(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ctx := exp.QuickContext()
		app, _ := workload.FindApp("maps")
		base := ctx.Measure(ctx.Program(app), cpu.DefaultConfig(), false)
		opt, _ := ctx.Variant(app, exp.VarCritIC)
		mOpt := ctx.Measure(opt, cpu.DefaultConfig(), false)
		if mOpt.Res.Cycles >= base.Res.Cycles {
			b.Log("no speedup this iteration") // informational; calibration varies per window
		}
	}
}

func BenchmarkAblateFetch(b *testing.B) { benchExp(b, "ablate-fetch") }
func BenchmarkAblateCDP(b *testing.B)   { benchExp(b, "ablate-cdp") }
