package critics

import (
	"testing"

	"critics/internal/cache"
	"critics/internal/exp"
	"critics/internal/layout"
)

// benchFrontendPolicy measures one quick-scale simulation of the CritIC
// variant under one L1I replacement policy — the per-cell cost of the
// fig-frontend grid. Context setup (program, profile, variant compilation,
// and for trrip the temperature hints the memoized build would attach) is
// excluded from the timer so the number is simulation throughput, not
// pipeline cost.
func benchFrontendPolicy(b *testing.B, policy string) {
	app := acrobatProgram()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		ctx := exp.QuickContext()
		kind := exp.FrontendKind(exp.VarCritIC, "c3")
		cfg := exp.FrontendConfig(policy)
		p, _ := ctx.Variant(*app, kind)
		if policy == cache.PolicyTRRIP {
			temps := layout.Temperatures(p, ctx.Profile(*app, false, 1))
			cfg.Hier.Temps = &temps
		}
		b.StartTimer()
		ctx.Measure(p, cfg, false)
	}
}

func BenchmarkFrontendPolicyLRU(b *testing.B)   { benchFrontendPolicy(b, "lru") }
func BenchmarkFrontendPolicySRRIP(b *testing.B) { benchFrontendPolicy(b, "srrip") }
func BenchmarkFrontendPolicyTRRIP(b *testing.B) { benchFrontendPolicy(b, "trrip") }

// BenchmarkLayoutC3 measures the C³ clustering pass itself (edge fold, greedy
// merge, relayout of the clone) — the one-time per-variant cost the layout
// axis adds before any simulation runs.
func BenchmarkLayoutC3(b *testing.B) {
	app := acrobatProgram()
	ctx := exp.QuickContext()
	p, _ := ctx.Variant(*app, exp.VarCritIC)
	prof := ctx.Profile(*app, false, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := layout.ApplyKind(p, prof, "c3"); err != nil {
			b.Fatal(err)
		}
	}
}
