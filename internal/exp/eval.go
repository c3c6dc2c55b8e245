package exp

import (
	"fmt"
	"strings"

	"critics/internal/cpu"
	"critics/internal/energy"
	"critics/internal/stats"
	"critics/internal/workload"
)

// ---------------------------------------------------------------- Fig. 8

// Fig8Row is one app's Approach-1 result: the speedup achieved with the
// branch-pair format switch on existing hardware, and the potential with no
// switch overhead.
type Fig8Row struct {
	App          string
	ActualPct    float64 // SwitchBranch variant
	PotentialPct float64 // CDP variant with zero switch overhead
}

// Fig8Result reproduces Fig. 8.
type Fig8Result struct {
	Rows                      []Fig8Row
	MeanActual, MeanPotential float64
}

// RunFig8 measures the branch-pair switching approach per mobile app.
func RunFig8(c *Context) *Fig8Result {
	apps := workload.MobileApps()
	rows := make([]Fig8Row, len(apps))
	c.forEach(len(apps), func(i int) {
		a := apps[i]
		freeCfg := cpu.DefaultConfig()
		freeCfg.CDPExtraDecodeCycle = false
		// Three binaries, three traces: the sweep measures them as
		// concurrent groups.
		ms := c.MeasureSweep(a, []MeasureUnit{
			{VarBase, cpu.DefaultConfig()},
			{VarCritICBranch, cpu.DefaultConfig()},
			{VarCritIC, freeCfg},
		}, false)
		base, mBr, mIdeal := ms[0], ms[1], ms[2]

		rows[i] = Fig8Row{
			App:          a.Params.Name,
			ActualPct:    Speedup(base, mBr),
			PotentialPct: Speedup(base, mIdeal),
		}
	})
	out := &Fig8Result{Rows: rows}
	var act, pot []float64
	for _, r := range rows {
		act = append(act, r.ActualPct)
		pot = append(pot, r.PotentialPct)
	}
	out.MeanActual = stats.Mean(act)
	out.MeanPotential = stats.Mean(pot)
	return out
}

// String formats the figure.
func (r *Fig8Result) String() string {
	var b strings.Builder
	b.WriteString("Fig 8: Approach 1 (branch-pair switch) on existing hardware vs lost potential (speedup %)\n")
	fmt.Fprintf(&b, "  %-14s %10s %12s\n", "app", "actual%", "potential%")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-14s %10.2f %12.2f\n", row.App, row.ActualPct, row.PotentialPct)
	}
	fmt.Fprintf(&b, "  %-14s %10.2f %12.2f\n", "MEAN", r.MeanActual, r.MeanPotential)
	return b.String()
}

// ---------------------------------------------------------------- Fig. 10

// Fig10Row is one app's Fig. 10 result set.
type Fig10Row struct {
	App string

	// 10a: speedups of the three design points.
	HoistPct, CritICPct, IdealPct float64

	// 10b: fetch-stall residency of the baseline vs CritIC (fractions of
	// total residency), i.e. what CritIC bought back.
	BaseFetchFrac, CritICFetchFrac float64

	// 10c: energy savings.
	Energy energy.Savings
}

// Fig10Result reproduces Fig. 10a/10b/10c.
type Fig10Result struct {
	Rows []Fig10Row

	MeanHoist, MeanCritIC, MeanIdeal float64
	MeanEnergy                       energy.Savings
}

// RunFig10 measures the three design points and the energy model per app.
func RunFig10(c *Context) *Fig10Result {
	apps := workload.MobileApps()
	rows := make([]Fig10Row, len(apps))
	c.forEach(len(apps), func(i int) {
		a := apps[i]
		// Four design points, one machine each: distinct kinds mean distinct
		// traces, so the sweep helper routes each through the memoized path.
		ms := c.MeasureSweep(a, []MeasureUnit{
			{VarBase, cpu.DefaultConfig()},
			{VarHoist, cpu.DefaultConfig()},
			{VarCritIC, cpu.DefaultConfig()},
			{VarCritICIdeal, cpu.DefaultConfig()},
		}, false)
		base, mHoist, mCrit, mIdeal := ms[0], ms[1], ms[2], ms[3]

		row := Fig10Row{App: a.Params.Name}
		row.HoistPct = Speedup(base, mHoist)
		row.CritICPct = Speedup(base, mCrit)
		row.IdealPct = Speedup(base, mIdeal)

		_, allB, _ := c.critBreakdown(base)
		_, allC, _ := c.critBreakdown(mCrit)
		if t := allB.Total(); t > 0 {
			row.BaseFetchFrac = float64(allB.FetchI+allB.FetchRD) / float64(t)
		}
		if t := allC.Total(); t > 0 {
			row.CritICFetchFrac = float64(allC.FetchI+allC.FetchRD) / float64(t)
		}

		eBase := energy.Compute(&base.Res, energy.DefaultConfig())
		eCrit := energy.Compute(&mCrit.Res, energy.DefaultConfig())
		row.Energy = energy.ComputeSavings(eBase, eCrit)
		rows[i] = row
	})
	out := &Fig10Result{Rows: rows}
	var h, cr, id []float64
	for _, r := range rows {
		h = append(h, r.HoistPct)
		cr = append(cr, r.CritICPct)
		id = append(id, r.IdealPct)
		out.MeanEnergy.ICachePct += r.Energy.ICachePct / float64(len(rows))
		out.MeanEnergy.CPUPct += r.Energy.CPUPct / float64(len(rows))
		out.MeanEnergy.MemoryPct += r.Energy.MemoryPct / float64(len(rows))
		out.MeanEnergy.TotalPct += r.Energy.TotalPct / float64(len(rows))
		out.MeanEnergy.CPUOnlyPct += r.Energy.CPUOnlyPct / float64(len(rows))
	}
	out.MeanHoist = stats.Mean(h)
	out.MeanCritIC = stats.Mean(cr)
	out.MeanIdeal = stats.Mean(id)
	return out
}

// String formats the figure.
func (r *Fig10Result) String() string {
	var b strings.Builder
	b.WriteString("Fig 10a: speedup over baseline (%)\n")
	fmt.Fprintf(&b, "  %-14s %8s %8s %12s\n", "app", "Hoist", "CritIC", "CritIC.Ideal")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-14s %8.2f %8.2f %12.2f\n", row.App, row.HoistPct, row.CritICPct, row.IdealPct)
	}
	fmt.Fprintf(&b, "  %-14s %8.2f %8.2f %12.2f\n", "MEAN", r.MeanHoist, r.MeanCritIC, r.MeanIdeal)

	b.WriteString("Fig 10b: fetch-stall residency fraction, baseline vs CritIC\n")
	fmt.Fprintf(&b, "  %-14s %10s %10s\n", "app", "baseline", "critic")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-14s %10.3f %10.3f\n", row.App, row.BaseFetchFrac, row.CritICFetchFrac)
	}

	b.WriteString("Fig 10c: energy savings (% of baseline system energy)\n")
	fmt.Fprintf(&b, "  %-14s %8s %8s %8s %8s %10s\n", "app", "icache", "cpu", "memory", "total", "cpu-only")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-14s %8.2f %8.2f %8.2f %8.2f %10.2f\n", row.App,
			row.Energy.ICachePct, row.Energy.CPUPct, row.Energy.MemoryPct, row.Energy.TotalPct, row.Energy.CPUOnlyPct)
	}
	fmt.Fprintf(&b, "  %-14s %8.2f %8.2f %8.2f %8.2f %10.2f\n", "MEAN",
		r.MeanEnergy.ICachePct, r.MeanEnergy.CPUPct, r.MeanEnergy.MemoryPct, r.MeanEnergy.TotalPct, r.MeanEnergy.CPUOnlyPct)
	return b.String()
}
