package cpu

import (
	"critics/internal/telemetry"
)

// stallStages are the label values of the per-stage stall counters, in
// Breakdown field order. The first two are the paper's front-end taxonomy
// (§II-D): f_stall_i is F.StallForI, f_stall_rd is F.StallForR+D.
var stallStages = [...]string{"f_stall_i", "f_stall_rd", "decode", "rename", "execute", "commit"}

// Metrics is the simulator's telemetry bundle: pre-resolved registry series
// the Run loop flushes into. A nil *Metrics in Config disables all
// instrumentation — the nil-sink fast path the overhead benchmark guards.
type Metrics struct {
	Windows *telemetry.Counter // Run calls
	Cycles  *telemetry.Counter
	Instrs  *telemetry.Counter // architectural instructions

	// Stall holds the per-stage cycle attribution counters, indexed like
	// Breakdown fields (see stallStages).
	Stall [6]*telemetry.Counter

	CondBranches *telemetry.Counter
	Mispredicts  *telemetry.Counter // conditional + return mispredicts
	CDPSwitches  *telemetry.Counter

	L1IAccesses, L1IMisses *telemetry.Counter
	L1DAccesses, L1DMisses *telemetry.Counter
	L2Accesses             *telemetry.Counter
	DRAMAccesses           *telemetry.Counter

	// FetchBytesUsed observes, per active fetch cycle, how many of the
	// FetchBytes port bytes the cycle actually consumed — the
	// fetch-bandwidth-utilization view of the paper's "nearly doubles the
	// fetch bandwidth" claim.
	FetchBytesUsed *telemetry.Histogram

	// Work counters count the simulator's own work, not modelled events:
	// walks over a waiting issue-queue entry's producers, criticality-table
	// trainings at commit, and issue-queue compaction passes. They are
	// deterministic, so a hot-loop change shows as an exact count.
	ProducerWalks *telemetry.Counter
	CritTrainings *telemetry.Counter
	IQCompactions *telemetry.Counter
}

// runWork is one RunStream call's work counters, counted in locals and
// flushed once at the end of the run.
type runWork struct {
	prodWalks, trainings, iqCompactions int64
}

// NewMetrics registers the simulator's metric families on reg and returns
// the bundle to hang on Config.Metrics. Repeated calls return series backed
// by the same registry state, so several Sim instances may share a bundle.
func NewMetrics(reg *telemetry.Registry) *Metrics {
	m := &Metrics{
		Windows:      reg.Counter("critics_sim_windows_total", "Simulated windows (Sim.Run calls, warm-up included)."),
		Cycles:       reg.Counter("critics_sim_cycles_total", "Simulated core cycles."),
		Instrs:       reg.Counter("critics_sim_instructions_total", "Committed architectural instructions (CDP mode switches excluded)."),
		CondBranches: reg.Counter("critics_sim_cond_branches_total", "Conditional branches seen at fetch."),
		Mispredicts:  reg.Counter("critics_sim_mispredicts_total", "Branch and return mispredict redirects."),
		CDPSwitches:  reg.Counter("critics_sim_cdp_switches_total", "CDP decoder mode switches consumed at decode."),
		L1IAccesses:  reg.Counter("critics_cache_accesses_total", "Cache accesses by level.", telemetry.L("level", "l1i")),
		L1IMisses:    reg.Counter("critics_cache_misses_total", "Cache misses by level.", telemetry.L("level", "l1i")),
		L1DAccesses:  reg.Counter("critics_cache_accesses_total", "Cache accesses by level.", telemetry.L("level", "l1d")),
		L1DMisses:    reg.Counter("critics_cache_misses_total", "Cache misses by level.", telemetry.L("level", "l1d")),
		L2Accesses:   reg.Counter("critics_cache_accesses_total", "Cache accesses by level.", telemetry.L("level", "l2")),
		DRAMAccesses: reg.Counter("critics_cache_accesses_total", "Cache accesses by level.", telemetry.L("level", "dram")),
		FetchBytesUsed: reg.Histogram("critics_sim_fetch_bytes_used",
			"Fetch port bytes consumed per active fetch cycle.",
			telemetry.LinearBuckets(0, 2, 9)),
		ProducerWalks: reg.Counter("critics_sim_producer_walks_total",
			"Issue-scan walks over a waiting instruction's producers (simulator work)."),
		CritTrainings: reg.Counter("critics_sim_crit_trainings_total",
			"Criticality-table training updates at commit (simulator work)."),
		IQCompactions: reg.Counter("critics_sim_iq_compactions_total",
			"Issue-queue compaction passes (simulator work)."),
	}
	for i, stage := range stallStages {
		m.Stall[i] = reg.Counter("critics_sim_stall_cycles_total",
			"Per-instruction stall/dwell cycles by pipeline stage (paper §II-D taxonomy for the two fetch stages).",
			telemetry.L("stage", stage))
	}
	return m
}

// flushRun folds one window's aggregates into the registry. bkd and cdp are
// accumulated incrementally by Run as instructions retire, so flushing does
// not require the per-instruction record slice (which Run only keeps in a
// small sliding window unless CollectRecords asks for all of it).
func (m *Metrics) flushRun(res *Result, bkd Breakdown, cdp int64, work runWork) {
	m.Windows.Inc()
	m.Cycles.Add(res.Cycles)
	m.Instrs.Add(res.Instrs)
	m.CondBranches.Add(res.CondBr)
	m.Mispredicts.Add(res.Mispredicts)
	m.L1IAccesses.Add(res.ICacheAccesses)
	m.L1IMisses.Add(res.ICacheMisses)
	m.L1DAccesses.Add(res.DCacheAccesses)
	m.L1DMisses.Add(res.DCacheMisses)
	m.L2Accesses.Add(res.L2Accesses)
	m.DRAMAccesses.Add(res.DRAMAccesses)

	m.CDPSwitches.Add(cdp)
	m.Stall[0].Add(bkd.FetchI)
	m.Stall[1].Add(bkd.FetchRD)
	m.Stall[2].Add(bkd.Decode)
	m.Stall[3].Add(bkd.Rename)
	m.Stall[4].Add(bkd.Execute)
	m.Stall[5].Add(bkd.Commit)

	m.ProducerWalks.Add(work.prodWalks)
	m.CritTrainings.Add(work.trainings)
	m.IQCompactions.Add(work.iqCompactions)
}
