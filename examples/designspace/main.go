// Designspace: sweep the two design knobs the paper fixes — the chain
// criticality threshold (average fanout, fixed at 8 in §III-C) and the
// maximum chain length (fixed at 5 in §IV-H) — for one app, showing the
// trade-offs behind those choices. This is the ablation DESIGN.md calls out
// beyond the paper's own Fig. 12a sweep.
package main

import (
	"flag"
	"fmt"
	"log"

	"critics/internal/compiler"
	"critics/internal/core"
	"critics/internal/cpu"
	"critics/internal/exp"
	"critics/internal/workload"
)

func main() {
	name := flag.String("app", "acrobat", "app to sweep")
	flag.Parse()

	app, ok := workload.FindApp(*name)
	if !ok {
		log.Fatalf("unknown app %q", *name)
	}
	ctx := exp.QuickContext()
	p := ctx.Program(app)
	base := ctx.Measure(p, cpu.DefaultConfig(), false)

	fmt.Printf("design-space sweep for %s (baseline %d cycles)\n\n", *name, base.Res.Cycles)

	fmt.Println("criticality threshold sweep (max length 5):")
	fmt.Printf("  %-10s %8s %10s %10s\n", "threshold", "chains", "coverage%", "speedup%")
	for _, th := range []float64{4, 6, 8, 10, 12} {
		cfg := core.DefaultConfig()
		cfg.AvgFanoutThreshold = th
		prof := core.BuildProfile(p, app.Params.Seed, ctx.ProfilePlan, cfg)
		q, _, err := compiler.ApplyCritIC(p, prof, compiler.Options{MaxLen: 5, Switch: compiler.SwitchCDP})
		if err != nil {
			log.Fatal(err)
		}
		m := ctx.Measure(q, cpu.DefaultConfig(), false)
		fmt.Printf("  %-10.0f %8d %10.1f %10.2f\n",
			th, len(prof.Selected()), 100*prof.SelectedCoverage, exp.Speedup(base, m))
	}

	fmt.Println("\nmaximum chain length sweep (threshold 8):")
	fmt.Printf("  %-10s %8s %10s %10s\n", "maxLen", "chains", "coverage%", "speedup%")
	for _, ml := range []int{2, 3, 4, 5, 6, 8} {
		cfg := core.DefaultConfig()
		cfg.MaxLen = ml
		prof := core.BuildProfile(p, app.Params.Seed, ctx.ProfilePlan, cfg)
		q, _, err := compiler.ApplyCritIC(p, prof, compiler.Options{MaxLen: ml, Switch: compiler.SwitchCDP})
		if err != nil {
			log.Fatal(err)
		}
		m := ctx.Measure(q, cpu.DefaultConfig(), false)
		fmt.Printf("  %-10d %8d %10.1f %10.2f\n",
			ml, len(prof.Selected()), 100*prof.SelectedCoverage, exp.Speedup(base, m))
	}
}
