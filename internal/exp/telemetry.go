package exp

import (
	"encoding/hex"

	"critics/internal/cpu"
	"critics/internal/obs"
	"critics/internal/sched"
	"critics/internal/telemetry"
)

// Telemetry bundles the experiment engine's registry series. It is built by
// Context.SetTelemetry; a nil bundle (the default) disables all
// instrumentation.
type Telemetry struct {
	reg *telemetry.Registry

	// Sim is shared by every simulator the context runs (the measurement
	// build attaches it to each lane's cpu.Config after memo keys are
	// computed, so telemetry never perturbs cache identity).
	Sim *cpu.Metrics

	// Pool instruments the per-app shard pool (Context.forEach).
	Pool *sched.PoolMetrics

	// MeasureSeconds observes the wall time of each uncached measurement
	// build (trace generation + DFG + warm-up + measured simulation). A
	// multi-lane build observes once for all its lanes — the shared trace
	// pass is the point of batching.
	MeasureSeconds *telemetry.Histogram

	// BatchedMeasurements counts measurements built as lanes of a
	// multi-lane build (MeasureBatch cache misses built in lockstep).
	BatchedMeasurements *telemetry.Counter

	// BatchLanes observes the lane count of each multi-lane build — how
	// much trace-generation sharing the sweeps actually get.
	BatchLanes *telemetry.Histogram
}

// expSecondsBuckets cover 10ms..~5min experiment wall times.
var expSecondsBuckets = telemetry.ExpBuckets(0.01, 2, 15)

// SetTelemetry attaches a metrics registry to the context: simulator, pool
// and per-experiment series are registered eagerly, and the memo caches are
// folded in as scrape-time functions reading the caches' own atomic
// counters — the same source of truth CacheStats reports, with no double
// bookkeeping.
//
// Registering returns the series already registered under the same name and
// labels, so every context attaching the same registry over the same caches
// builds the same bundle; the caches keep the last one built, and a context
// of a long-lived service (one per request) reuses it instead of resolving
// its ~35 series again.
func (c *Context) SetTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		c.tel = nil
		return
	}
	if t := c.caches.tel.Load(); t != nil && t.reg == reg {
		c.tel = t
		return
	}
	c.tel = &Telemetry{
		reg:  reg,
		Sim:  cpu.NewMetrics(reg),
		Pool: sched.NewPoolMetrics(reg, "exp"),
		MeasureSeconds: reg.Histogram("critics_measure_seconds",
			"Wall time of uncached measurement builds (trace+DFG+simulate).",
			expSecondsBuckets),
		BatchedMeasurements: reg.Counter("critics_measure_batched_total",
			"Measurements built by the batched sweep path (lockstep lanes over a shared trace)."),
		BatchLanes: reg.Histogram("critics_measure_batch_lanes",
			"Lane count per batched measurement build.",
			telemetry.LinearBuckets(1, 1, 16)),
	}
	registerMemo(reg, "programs", c.caches.progs)
	registerMemo(reg, "profiles", c.caches.profs)
	registerMemo(reg, "variants", c.caches.variants)
	registerMemo(reg, "measurements", c.caches.meas)
	c.caches.tel.Store(c.tel)
}

// Registry returns the attached registry (nil when telemetry is off).
func (c *Context) Registry() *telemetry.Registry {
	if c.tel == nil {
		return nil
	}
	return c.tel.reg
}

// registerMemo exposes one memo cache's counters on the registry, reading
// the cache's own atomics at scrape time.
func registerMemo[V any](reg *telemetry.Registry, name string, m *sched.Memo[V]) {
	l := telemetry.L("cache", name)
	reg.CounterFunc("critics_memo_hits_total", "Memo cache hits by cache.",
		func() float64 { return float64(m.Stats().Hits) }, l)
	reg.CounterFunc("critics_memo_misses_total", "Memo cache misses by cache.",
		func() float64 { return float64(m.Stats().Misses) }, l)
	reg.CounterFunc("critics_memo_skipped_total", "Values computed but not retained (budget exhausted) by cache.",
		func() float64 { return float64(m.Stats().Skipped) }, l)
	reg.GaugeFunc("critics_memo_entries", "Retained memo entries by cache.",
		func() float64 { return float64(m.Len()) }, l)
	reg.GaugeFunc("critics_memo_bytes", "Summed retention cost of memo entries by cache.",
		func() float64 { return float64(m.UsedBytes()) }, l)
}

// memoGet wraps a memo lookup with the context's cancellation-validity check
// (builds finished under a cancelled run context are discarded, never
// retained) and, when the run context carries an obs trace, counts the
// outcome on it and records a build span for a miss. With no run context
// bound it is exactly Memo.GetChecked with no check. Under cancellation the
// returned value may be the zero value — callers observe Context.Err and
// discard the run's outputs.
func memoGet[V any](c *Context, m *sched.Memo[V], span string, key sched.Key, build func() V, cost func(V) int64) V {
	valid := c.validFn()
	if valid != nil && !valid() {
		// Already cancelled: skip the build entirely. Nested stage lookups
		// (a profile build fetching its program) get the zero value without
		// running, and the entry point fails on Context.Err before using it.
		var zero V
		return zero
	}
	ot, oparent, obsOn := obs.FromContext(c.runCtx)
	if !obsOn {
		v, _ := m.GetChecked(key, build, cost, valid)
		return v
	}
	o0 := ot.Now()
	v, hit := m.GetChecked(key, build, cost, valid)
	// Hits only bump the trace's memo counters; the builder (hit=false)
	// records a span whose id derives from the content key, so the span set
	// of a run is reproducible regardless of shard scheduling.
	if hit {
		ot.MemoHit()
	} else {
		ot.MemoMiss()
		ot.Add(obs.Span{
			ID: obs.BuildSpanID(span, keyHex8(key)), Parent: oparent,
			Name: span, StartUS: o0, DurUS: ot.Now() - o0,
		})
	}
	return v
}

// keyHex8 is the first 8 hex digits of a memo key — enough to make
// same-label build spans distinct within one job's trace.
func keyHex8(k sched.Key) string { return hex.EncodeToString(k[:4]) }
