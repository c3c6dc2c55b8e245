package exp

import (
	"fmt"
	"strings"

	"critics/internal/cpu"
	"critics/internal/dfg"
	"critics/internal/stats"
	"critics/internal/workload"
)

// ---------------------------------------------------------------- Fig. 1a

// Fig1aRow is one suite's result: the mean speedup of the two
// single-instruction criticality optimizations and the fraction of
// individually critical instructions (right axis).
type Fig1aRow struct {
	Suite        string
	PrefetchPct  float64 // critical-load prefetching [18]
	PrioPct      float64 // ALU/backend prioritization [32][33]
	CriticalFrac float64
}

// Fig1aResult reproduces Fig. 1a.
type Fig1aResult struct {
	Rows []Fig1aRow
}

// RunFig1a measures both single-instruction criticality baselines on all
// three suites.
//
// Reference point: the original criticality works ([18], [32], [33]) report
// their gains over machines without the mechanism, so this figure's baseline
// disables the L2 CLPT prefetcher; the "prefetch" configuration is the full
// [18] stack — CLPT at the L2 plus criticality-directed prefetching of
// predicted-critical loads into the L1. (All other experiments use the
// Table I baseline, which includes the CLPT.)
func RunFig1a(c *Context) *Fig1aResult {
	out := &Fig1aResult{}
	suites := Suites()
	for _, suite := range SuiteOrder {
		apps := suites[suite]
		pf := make([]float64, len(apps))
		pr := make([]float64, len(apps))
		cf := make([]float64, len(apps))
		c.forEach(len(apps), func(i int) {
			a := apps[i]
			noPF := cpu.DefaultConfig()
			noPF.Hier.CLPTEntries = 0
			cfgPF := cpu.DefaultConfig()
			cfgPF.CriticalLoadPrefetch = true
			cfgPR := noPF
			cfgPR.BackendPrio = true
			// Three machines over the baseline binary's one trace: a 3-lane
			// build.
			ms := c.MeasureSweep(a, []MeasureUnit{
				{VarBase, noPF},
				{VarBase, cfgPF},
				{VarBase, cfgPR},
			}, false)
			base, mPF, mPR := ms[0], ms[1], ms[2]

			pf[i] = Speedup(base, mPF)
			pr[i] = Speedup(base, mPR)
			if base.Res.AllDyns > 0 {
				cf[i] = float64(base.Agg.CritDyns) / float64(base.Res.AllDyns)
			}
		})
		out.Rows = append(out.Rows, Fig1aRow{
			Suite:        suite,
			PrefetchPct:  stats.Mean(pf),
			PrioPct:      stats.Mean(pr),
			CriticalFrac: stats.Mean(cf),
		})
	}
	return out
}

// String formats the figure.
func (r *Fig1aResult) String() string {
	var b strings.Builder
	b.WriteString("Fig 1a: single-instruction criticality optimizations (mean speedup %, critical-instruction fraction)\n")
	fmt.Fprintf(&b, "  %-12s %12s %12s %14s\n", "suite", "prefetch%", "prioritize%", "critical-frac")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-12s %12.2f %12.2f %14.3f\n", row.Suite, row.PrefetchPct, row.PrioPct, row.CriticalFrac)
	}
	return b.String()
}

// ---------------------------------------------------------------- Fig. 1b

// Fig1bRow is one suite's dependence-chain gap distribution: the fraction of
// high-fanout chain members whose next high-fanout successor in the chain is
// k low-fanout members away (k = 0 is a direct dependence), plus the
// fraction with no dependent high-fanout successor at all.
type Fig1bRow struct {
	Suite    string
	GapFrac  [6]float64 // k = 0..5
	OverFrac float64    // k > 5
	NoneFrac float64
}

// Fig1bResult reproduces Fig. 1b.
type Fig1bResult struct {
	Rows []Fig1bRow
}

// RunFig1b measures chain gap structure on all three suites.
func RunFig1b(c *Context) *Fig1bResult {
	out := &Fig1bResult{}
	suites := Suites()
	for _, suite := range SuiteOrder {
		apps := suites[suite]
		agg := dfg.GapResult{Gaps: stats.NewHistogram(5)}
		var mu = make([]dfg.GapResult, len(apps))
		c.forEach(len(apps), func(i int) {
			a := apps[i]
			chunk := 1024
			if suite != "android" {
				chunk = 8192
			}
			// Chain structure only needs the trace, not the simulation:
			// stream extraction straight off the measure window.
			g := dfg.GapResult{Gaps: stats.NewHistogram(5)}
			opt := dfg.Options{ChunkSize: chunk, FanoutWindow: 128, MinLen: 2}
			dfg.StreamChains(c.windowSource(a, VarBase, chunk), opt, func(ch *dfg.Chain, fanOf func(int32) int32) {
				g.AddChain(ch, fanOf, c.HighFanout)
			})
			mu[i] = g
		})
		for _, g := range mu {
			agg.Gaps.Merge(g.Gaps)
			agg.None += g.None
		}
		row := Fig1bRow{Suite: suite}
		total := float64(agg.Gaps.Total + agg.None)
		if total > 0 {
			for k := 0; k <= 5; k++ {
				row.GapFrac[k] = float64(agg.Gaps.Counts[k]) / total
			}
			row.OverFrac = float64(agg.Gaps.Overflow) / total
			row.NoneFrac = float64(agg.None) / total
		}
		out.Rows = append(out.Rows, row)
	}
	return out
}

// String formats the figure.
func (r *Fig1bResult) String() string {
	var b strings.Builder
	b.WriteString("Fig 1b: low-fanout gaps between successive high-fanout instructions in dependence chains (fractions)\n")
	fmt.Fprintf(&b, "  %-12s %6s %6s %6s %6s %6s %6s %6s %6s\n", "suite", "0", "1", "2", "3", "4", "5", ">5", "none")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-12s", row.Suite)
		for k := 0; k <= 5; k++ {
			fmt.Fprintf(&b, " %6.3f", row.GapFrac[k])
		}
		fmt.Fprintf(&b, " %6.3f %6.3f\n", row.OverFrac, row.NoneFrac)
	}
	return b.String()
}

// ---------------------------------------------------------------- Fig. 3

// Fig3Row is one suite's pipeline-stage residency breakdown for high-fanout
// instructions (Fig. 3a), the fetch-stall split (Fig. 3b) and the latency
// mix (Fig. 3c).
type Fig3Row struct {
	Suite string

	// 3a: residency fractions (sum to 1).
	Fetch, Decode, Rename, Execute, Commit float64

	// 3b: fetch split as fractions of total residency.
	FStallForI, FStallForRD float64

	// 3c: latency-class fractions of high-fanout instructions.
	Lat1, Lat2to3, Lat4Plus float64
}

// Fig3Result reproduces Fig. 3a/3b/3c.
type Fig3Result struct {
	Rows []Fig3Row
}

// RunFig3 measures stage residency of critical instructions per suite.
func RunFig3(c *Context) *Fig3Result {
	out := &Fig3Result{}
	suites := Suites()
	for _, suite := range SuiteOrder {
		apps := suites[suite]
		rows := make([]Fig3Row, len(apps))
		c.forEach(len(apps), func(i int) {
			a := apps[i]
			m := c.MeasureVariant(a, VarBase, cpu.DefaultConfig(), false)
			crit, _, n := c.critBreakdown(m)
			var row Fig3Row
			tot := float64(crit.Total())
			if tot > 0 {
				row.Fetch = float64(crit.FetchI+crit.FetchRD) / tot
				row.Decode = float64(crit.Decode) / tot
				row.Rename = float64(crit.Rename) / tot
				row.Execute = float64(crit.Execute) / tot
				row.Commit = float64(crit.Commit) / tot
				row.FStallForI = float64(crit.FetchI) / tot
				row.FStallForRD = float64(crit.FetchRD) / tot
			}
			// Latency mix from *measured* execute time (loads include
			// their memory time), which is what Fig. 3c contrasts —
			// folded during the streaming pass (WindowAgg).
			l1, l23, l4 := m.Agg.CritLat1, m.Agg.CritLat2to3, m.Agg.CritLat4Plus
			if n > 0 && l1+l23+l4 > 0 {
				tot := float64(l1 + l23 + l4)
				row.Lat1 = float64(l1) / tot
				row.Lat2to3 = float64(l23) / tot
				row.Lat4Plus = float64(l4) / tot
			}
			rows[i] = row
		})
		var agg Fig3Row
		agg.Suite = suite
		for _, r := range rows {
			agg.Fetch += r.Fetch
			agg.Decode += r.Decode
			agg.Rename += r.Rename
			agg.Execute += r.Execute
			agg.Commit += r.Commit
			agg.FStallForI += r.FStallForI
			agg.FStallForRD += r.FStallForRD
			agg.Lat1 += r.Lat1
			agg.Lat2to3 += r.Lat2to3
			agg.Lat4Plus += r.Lat4Plus
		}
		n := float64(len(rows))
		agg.Fetch /= n
		agg.Decode /= n
		agg.Rename /= n
		agg.Execute /= n
		agg.Commit /= n
		agg.FStallForI /= n
		agg.FStallForRD /= n
		agg.Lat1 /= n
		agg.Lat2to3 /= n
		agg.Lat4Plus /= n
		out.Rows = append(out.Rows, agg)
	}
	return out
}

// String formats the figure.
func (r *Fig3Result) String() string {
	var b strings.Builder
	b.WriteString("Fig 3a: stage residency of high-fanout instructions (fractions)\n")
	fmt.Fprintf(&b, "  %-12s %7s %7s %7s %7s %7s\n", "suite", "fetch", "decode", "rename", "exec", "commit")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-12s %7.3f %7.3f %7.3f %7.3f %7.3f\n", row.Suite, row.Fetch, row.Decode, row.Rename, row.Execute, row.Commit)
	}
	b.WriteString("Fig 3b: fetch-stall split (fractions of total residency)\n")
	fmt.Fprintf(&b, "  %-12s %12s %12s\n", "suite", "F.StallForI", "F.StallForR+D")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-12s %12.3f %12.3f\n", row.Suite, row.FStallForI, row.FStallForRD)
	}
	b.WriteString("Fig 3c: latency mix of high-fanout instructions\n")
	fmt.Fprintf(&b, "  %-12s %8s %8s %8s\n", "suite", "1cyc", "2-3cyc", "4+cyc")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-12s %8.3f %8.3f %8.3f\n", row.Suite, row.Lat1, row.Lat2to3, row.Lat4Plus)
	}
	return b.String()
}

// ---------------------------------------------------------------- Fig. 5a

// Fig5aRow is one suite's IC length/spread summary.
type Fig5aRow struct {
	Suite string
	dfg.LengthSpread
}

// Fig5aResult reproduces Fig. 5a.
type Fig5aResult struct {
	Rows []Fig5aRow
}

// RunFig5a measures unrestricted IC length and spread per suite.
func RunFig5a(c *Context) *Fig5aResult {
	out := &Fig5aResult{}
	suites := Suites()
	for _, suite := range SuiteOrder {
		apps := suites[suite]
		parts := make([]dfg.LengthSpreadAcc, len(apps))
		c.forEach(len(apps), func(i int) {
			a := apps[i]
			chunk := 2048
			if suite != "android" {
				chunk = 16384
			}
			opt := dfg.Options{ChunkSize: chunk, FanoutWindow: 128, MinLen: 2}
			dfg.StreamChains(c.windowSource(a, VarBase, chunk), opt, func(ch *dfg.Chain, _ func(int32) int32) {
				parts[i].Add(ch)
			})
		})
		var all dfg.LengthSpreadAcc
		for i := range parts {
			all.Merge(&parts[i])
		}
		out.Rows = append(out.Rows, Fig5aRow{Suite: suite, LengthSpread: all.Summary()})
	}
	return out
}

// String formats the figure.
func (r *Fig5aResult) String() string {
	var b strings.Builder
	b.WriteString("Fig 5a: instruction-chain length and dynamic spread\n")
	fmt.Fprintf(&b, "  %-12s %8s %10s %8s %10s %8s\n", "suite", "maxLen", "maxSpread", "p99Len", "p99Spread", "meanLen")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-12s %8d %10d %8.1f %10.1f %8.2f\n",
			row.Suite, row.MaxLen, row.MaxSpread, row.P99Len, row.P99Spread, row.MeanLen)
	}
	return b.String()
}

// ---------------------------------------------------------------- Fig. 5b

// Fig5bResult reproduces Fig. 5b: the CDF of dynamic coverage by unique
// CritIC candidates, over all candidates and the 16-bit-representable
// subset, aggregated across the mobile apps.
type Fig5bResult struct {
	UniqueChains  int
	ThumbOKFrac   float64
	CoverageAll   []stats.CDFPoint
	CoverageThumb []stats.CDFPoint
}

// RunFig5b profiles every mobile app and aggregates the coverage CDFs.
func RunFig5b(c *Context) *Fig5bResult {
	apps := workload.MobileApps()
	type part struct {
		unique  int
		thumbOK float64
		all     *stats.CDF
		thumb   *stats.CDF
	}
	parts := make([]part, len(apps))
	c.forEach(len(apps), func(i int) {
		prof := c.Profile(apps[i], true, 1) // ideal: keep non-representable candidates visible
		all, thumb := prof.CoverageCDF()
		parts[i] = part{unique: prof.UniqueChains(), thumbOK: prof.ThumbRepresentableFrac(), all: all, thumb: thumb}
	})
	out := &Fig5bResult{}
	var thumbSum float64
	agg, aggT := &stats.CDF{}, &stats.CDF{}
	for _, p := range parts {
		out.UniqueChains += p.unique
		thumbSum += p.thumbOK
		for _, pt := range p.all.Points(64) {
			agg.Add(pt.X, 1)
		}
		for _, pt := range p.thumb.Points(64) {
			aggT.Add(pt.X, 1)
		}
	}
	out.ThumbOKFrac = thumbSum / float64(len(parts))
	out.CoverageAll = agg.Points(16)
	out.CoverageThumb = aggT.Points(16)
	return out
}

// String formats the figure.
func (r *Fig5bResult) String() string {
	var b strings.Builder
	b.WriteString("Fig 5b: unique CritIC candidates and 16-bit representability\n")
	fmt.Fprintf(&b, "  unique chains (all mobile apps): %d\n", r.UniqueChains)
	fmt.Fprintf(&b, "  fraction representable in 16-bit as-is: %.3f (paper: ~0.955)\n", r.ThumbOKFrac)
	return b.String()
}
