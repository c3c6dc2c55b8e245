// Package exp implements one runner per table and figure of the paper's
// evaluation. Each runner assembles workloads (internal/workload), profiles
// (internal/core), compiled variants (internal/compiler) and simulations
// (internal/cpu) into exactly the rows/series the paper reports; the
// formatting methods print them. cmd/criticsim exposes the runners on the
// command line and bench_test.go wraps each in a benchmark.
//
// Methodology (mirroring §IV-C at reduced scale): every app is profiled
// over sampled windows, each configuration is simulated over the same
// architectural instruction budget after a cache/predictor warm-up window,
// and baseline/optimized pairs see identical control flow and data
// addresses (the trace layer keys its randomness by stable instruction
// identity).
package exp

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"critics/internal/compiler"
	"critics/internal/core"
	"critics/internal/cpu"
	"critics/internal/dfg"
	"critics/internal/layout"
	"critics/internal/prog"
	"critics/internal/sched"
	"critics/internal/trace"
	"critics/internal/workload"
)

// DefaultMeasureCacheBytes is the default retention budget for memoized
// measurements (their Dyns/Fanouts/Records buffers dominate the engine's
// memory footprint; programs, profiles and variants are small and uncapped).
const DefaultMeasureCacheBytes = 2 << 30

// Context is the experiment execution engine: it carries the scale
// parameters and the content-addressed memo caches that deduplicate
// programs, profiles, compiled variants and simulated measurements across
// runners, and the worker bound the runners shard their (app, variant)
// work over.
type Context struct {
	Seed        int64
	WarmupArch  int // instructions skipped before the warm window
	WarmArch    int // simulated but not measured (cache/BPU warm-up)
	MeasureArch int // measured window, in architectural instructions
	ProfilePlan trace.SamplePlan
	HighFanout  int32 // individually-critical threshold

	// Workers bounds the worker pool the runners shard per-app work over;
	// 0 selects GOMAXPROCS, 1 forces the serial reference schedule.
	// Results are bit-identical for every value (see internal/sched).
	Workers int

	caches *Caches

	// runCtx, when non-nil, is the cancellation signal for everything this
	// context runs: pools stop dispatching shards and memo builds finished
	// under a cancelled context are discarded instead of retained
	// (SetRunContext).
	runCtx context.Context

	// remote, when non-nil, executes measurement lane groups elsewhere
	// (SetRemote) and widens the shard pool to its Width. It preserves
	// results bit-for-bit — it only moves where the work runs.
	remote Remote

	// serialSweeps forces MeasureBatch to build each miss as its own
	// one-lane measurement — the serial reference schedule the
	// batched-equivalence tests compare the lockstep builds against.
	serialSweeps bool

	// L1IPolicy and CodeLayout select the front-end configuration of the
	// single-app pipeline (critics.OptimizeApp/TraceApp; see frontend.go).
	// Zero values are the defaults — lru replacement, generator-order
	// layout — and leave every memo key and result bit-identical to a
	// context without them. Experiment runners ignore these: sweeps own
	// their axes (fig-frontend sweeps both).
	L1IPolicy  string
	CodeLayout string

	// tel is the metrics bundle (telemetry.go); nil by default, costing the
	// engine nothing. Spans go to the obs trace the run context carries.
	tel *Telemetry
}

type variantEntry struct {
	p  *prog.Program
	st compiler.Stats
}

// Caches bundles the engine's content-addressed memo caches — programs,
// profiles, compiled variants and simulated measurements. Every Context owns
// one by default; a long-lived service shares a single Caches across many
// request-scoped Contexts (Context.UseCaches) so repeated requests for the
// same artifacts are served from memory. Sharing is safe: the caches are
// concurrency-safe with single-flight builds, and every cache key covers the
// full configuration (workload parameters, compiler kind, machine config,
// window/profiling scale), so contexts at different scales coexist without
// collisions.
type Caches struct {
	progs    *sched.Memo[*prog.Program]
	profs    *sched.Memo[*core.Profile]
	variants *sched.Memo[variantEntry]
	meas     *sched.Memo[*Measurement]

	// tel is the telemetry bundle the last context using these caches
	// built (SetTelemetry), reused by later contexts on the same registry.
	tel atomic.Pointer[Telemetry]
}

// NewCaches returns an empty cache bundle with the default measurement
// retention budget.
func NewCaches() *Caches {
	return &Caches{
		progs:    sched.NewMemo[*prog.Program](0),
		profs:    sched.NewMemo[*core.Profile](0),
		variants: sched.NewMemo[variantEntry](0),
		meas:     sched.NewMemo[*Measurement](DefaultMeasureCacheBytes),
	}
}

// Stats returns the bundle's current hit/miss counters.
func (s *Caches) Stats() CacheStats {
	return CacheStats{
		Programs:     s.progs.Stats(),
		Profiles:     s.profs.Stats(),
		Variants:     s.variants.Stats(),
		Measurements: s.meas.Stats(),
	}
}

// NewContext returns the full-scale experiment context.
func NewContext() *Context {
	return &Context{
		Seed:        42,
		WarmupArch:  20_000,
		WarmArch:    30_000,
		MeasureArch: 120_000,
		ProfilePlan: trace.SamplePlan{Samples: 12, Length: 25_000, Gap: 5_000, Warmup: 5_000},
		HighFanout:  8,
		caches:      NewCaches(),
	}
}

// UseCaches swaps the context's memo caches for a shared bundle. Call before
// running anything; artifacts already cached in the bundle are reused.
func (c *Context) UseCaches(s *Caches) {
	if s != nil {
		c.caches = s
	}
}

// SetRunContext binds a cancellation context: worker pools stop dispatching
// queued shards once it is cancelled, and memo values whose build finished
// under a cancelled context are discarded (they may be partial) rather than
// retained or handed to single-flight waiters. Cancellation is best-effort —
// an executing simulation window runs to completion — and a cancelled run's
// outputs must be discarded by the caller (Run/RunContext do).
func (c *Context) SetRunContext(ctx context.Context) { c.runCtx = ctx }

// RunContext returns the bound cancellation context (nil when none is set).
func (c *Context) RunContext() context.Context { return c.runCtx }

// Err returns the bound context's error, or nil when no context is bound or
// it is still live.
func (c *Context) Err() error {
	if c.runCtx == nil {
		return nil
	}
	return c.runCtx.Err()
}

// validFn returns the memo validity check for the current run context: a
// build is retained only if the context was still live when it finished.
// With no context bound every build is valid.
func (c *Context) validFn() func() bool {
	ctx := c.runCtx
	if ctx == nil {
		return nil
	}
	return func() bool { return ctx.Err() == nil }
}

// SetRemote routes measurement builds (the expensive profile→compile→simulate
// leaf of every experiment) through r: the lane group a measurement cache
// miss would build locally is dispatched as one MeasureRequest instead, and
// the returned measurements are cached as if they had been built here. A
// dispatch error falls back to the local build, so a degraded or empty fleet
// slows a run down but never fails it. While r is attached, shard maps run
// at least r.Width() wide, so that many groups can be on the wire at once.
// nil restores local execution.
func (c *Context) SetRemote(r Remote) { c.remote = r }

// QuickContext returns a reduced-scale context for tests and benchmarks.
func QuickContext() *Context {
	c := NewContext()
	c.WarmupArch = 10_000
	c.WarmArch = 15_000
	c.MeasureArch = 40_000
	c.ProfilePlan = trace.SamplePlan{Samples: 6, Length: 15_000, Gap: 4_000, Warmup: 5_000}
	return c
}

// workers resolves the configured worker bound.
func (c *Context) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Program returns (and caches) the generated program for an app, keyed by
// the full generator parameter set (workload seed included).
func (c *Context) Program(a workload.App) *prog.Program {
	key := sched.KeyOf("prog", a.Params)
	return memoGet(c, c.caches.progs, "program "+a.Params.Name, key, func() *prog.Program {
		return workload.Generate(a.Params)
	}, nil)
}

// Profile returns (and caches) the CritIC profile for an app. ideal relaxes
// the all-or-nothing representability requirement during selection
// (CritIC.Ideal). windowsFrac < 1 profiles only the leading fraction of the
// sampled windows (Fig. 12b): a plan with proportionally fewer samples,
// rounded to nearest and at least one.
func (c *Context) Profile(a workload.App, ideal bool, windowsFrac float64) *core.Profile {
	key := sched.KeyOf("prof", a.Params, ideal, windowsFrac, c.ProfilePlan)
	return memoGet(c, c.caches.profs, "profile "+a.Params.Name, key, func() *core.Profile {
		plan := c.ProfilePlan
		if windowsFrac > 0 && windowsFrac < 1 {
			plan.Samples = max(int(float64(plan.Samples)*windowsFrac+0.5), 1)
		}
		cfg := core.DefaultConfig()
		cfg.RequireThumb = !ideal
		return core.BuildProfile(c.Program(a), a.Params.Seed, plan, cfg)
	}, nil)
}

// Variant kinds accepted by Context.Variant.
const (
	VarBase         = "base"
	VarHoist        = "hoist"
	VarCritIC       = "critic"
	VarCritICIdeal  = "critic-ideal"
	VarCritICBranch = "critic-branch"
	VarOPP16        = "opp16"
	VarCompress     = "compress"
	VarOPP16CritIC  = "opp16+critic"
)

// Variant returns (and caches) a compiled variant of an app's program.
// For CritIC variants with a length cap other than 5, use kind
// "critic-len-N" (exactly-length-N selection, Fig. 12a) or
// "critic-frac-F" (profiling fraction, Fig. 12b with F in percent). Any
// kind may carry a "+lay-<pass>" suffix (FrontendKind) selecting a
// profile-guided code-layout pass applied after compilation.
// The kind string names the compiler configuration; the cache key adds the
// generator parameters and the profiling plan the variant's profile
// depends on.
func (c *Context) Variant(a workload.App, kind string) (*prog.Program, compiler.Stats) {
	key := sched.KeyOf("variant", a.Params, kind, c.ProfilePlan)
	v := memoGet(c, c.caches.variants, "variant "+a.Params.Name+"/"+kind, key, func() variantEntry {
		p, st := c.buildVariant(a, kind)
		return variantEntry{p: p, st: st}
	}, nil)
	return v.p, v.st
}

func (c *Context) buildVariant(a workload.App, kind string) (*prog.Program, compiler.Stats) {
	// A "+lay-<pass>" suffix re-lays the inner variant's code after
	// compilation: the inner variant is fetched through the memo (so e.g.
	// "critic" and "critic+lay-c3" share one compile), then cloned and
	// re-addressed by internal/layout under the app's standard profile.
	if inner, lay, ok := splitLayoutKind(kind); ok {
		p, st := c.Variant(a, inner)
		q, err := layout.ApplyKind(p, c.Profile(a, false, 1), lay)
		if err != nil {
			panic(fmt.Sprintf("exp: laying out %s/%s: %v", a.Params.Name, kind, err))
		}
		return q, st
	}
	base := c.Program(a)
	var (
		q   *prog.Program
		st  compiler.Stats
		err error
	)
	switch {
	case kind == VarBase:
		return base, compiler.Stats{}
	case kind == VarHoist:
		q, st, err = compiler.ApplyCritIC(base, c.Profile(a, false, 1), compiler.Options{MaxLen: 5, HoistOnly: true})
	case kind == VarCritIC:
		q, st, err = compiler.ApplyCritIC(base, c.Profile(a, false, 1), compiler.Options{MaxLen: 5, Switch: compiler.SwitchCDP})
	case kind == VarCritICIdeal:
		q, st, err = compiler.ApplyCritIC(base, c.Profile(a, true, 1), compiler.Options{MaxLen: core.MaxChainLen, Switch: compiler.SwitchCDP, Ideal: true})
	case kind == VarCritICBranch:
		q, st, err = compiler.ApplyCritIC(base, c.Profile(a, false, 1), compiler.Options{MaxLen: 5, Switch: compiler.SwitchBranch})
	case kind == VarOPP16:
		q, st, err = compiler.ApplyOPP16(base, 3)
	case kind == VarCompress:
		q, st, err = compiler.ApplyCompress(base)
	case kind == VarOPP16CritIC:
		var mid *prog.Program
		mid, st, err = compiler.ApplyCritIC(base, c.Profile(a, false, 1), compiler.Options{MaxLen: 5, Switch: compiler.SwitchCDP})
		if err == nil {
			var st2 compiler.Stats
			q, st2, err = compiler.ApplyOPP16(mid, 3)
			st.ConvertedInstrs += st2.ConvertedInstrs
			st.ExpandedInstrs += st2.ExpandedInstrs
			st.CDPsInserted += st2.CDPsInserted
		}
	default:
		var n, pct int
		if _, e := fmt.Sscanf(kind, "critic-len-%d", &n); e == nil {
			q, st, err = c.buildExactLen(a, n)
			break
		}
		if _, e := fmt.Sscanf(kind, "critic-frac-%d", &pct); e == nil {
			prof := c.Profile(a, false, float64(pct)/100)
			q, st, err = compiler.ApplyCritIC(base, prof, compiler.Options{MaxLen: 5, Switch: compiler.SwitchCDP})
			break
		}
		panic("exp: unknown variant kind " + kind)
	}
	if err != nil {
		panic(fmt.Sprintf("exp: building %s/%s: %v", a.Params.Name, kind, err))
	}
	return q, st
}

// buildExactLen builds the Fig. 12a variant: only chains of exactly length n
// are optimized.
func (c *Context) buildExactLen(a workload.App, n int) (*prog.Program, compiler.Stats, error) {
	full := c.Profile(a, false, 1)
	filtered := &core.Profile{App: full.App, TotalDyn: full.TotalDyn}
	for _, e := range full.Entries {
		if e.Selected && e.Length == n {
			filtered.Entries = append(filtered.Entries, e)
		}
	}
	return compiler.ApplyCritIC(c.Program(a), filtered, compiler.Options{MaxLen: n, Switch: compiler.SwitchCDP})
}

// WindowAgg holds the per-instruction aggregates the figure runners consume,
// folded online while the measured window retires (cpu.Sim.OnCommit). Every
// Measurement carries one regardless of collect mode, so figures that only
// need aggregate breakdowns no longer force O(window) Dyns/Fanouts/Records
// retention. All fields are integer-valued plain data: the JSON round-trip
// through the distributed wire form is exact.
type WindowAgg struct {
	// Threshold is the individually-critical fanout threshold the Crit*
	// fields were folded under (Context.HighFanout at measure time; part
	// of the measurement memo key).
	Threshold int32 `json:"threshold"`

	CritBkd cpu.Breakdown `json:"crit_bkd"` // stage dwell over critical instructions
	AllBkd  cpu.Breakdown `json:"all_bkd"`  // stage dwell over the whole window

	CritDyns     int64 `json:"crit_dyns"`     // fanout >= Threshold
	OverheadDyns int64 `json:"overhead_dyns"` // compiler-inserted (CDPs, switch branches)
	ThumbArch    int64 `json:"thumb_arch"`    // architectural instructions in Thumb state
	ChainDyns    int64 `json:"chain_dyns"`    // members of an optimized chain

	// Critical-instruction measured execute-latency mix (Fig. 3c buckets).
	CritLat1     int64 `json:"crit_lat1"`
	CritLat2to3  int64 `json:"crit_lat2to3"`
	CritLat4Plus int64 `json:"crit_lat4plus"`
}

// Measurement is one simulated window plus the artifacts the figure runners
// consume. Agg is always populated; Dyns, Fanouts and Res.Records are only
// retained when the measurement was taken with collect=true (trace export
// and other per-instruction consumers) — the streaming measure path never
// materializes them. Its JSON form is its distributed wire form: all plain
// integer and bool data, so the round-trip is exact.
type Measurement struct {
	Res     cpu.Result  `json:"res"`
	Agg     WindowAgg   `json:"agg"`
	Dyns    []trace.Dyn `json:"dyns,omitempty"`
	Fanouts []int32     `json:"fanouts,omitempty"`
}

// aggObserver returns the commit observer that folds the measured window
// into m.Agg. Attach it after the warm window so only measured retirements
// are counted.
func (m *Measurement) aggObserver(threshold int32) func(*trace.Dyn, int32, *cpu.Record) {
	agg := &m.Agg
	agg.Threshold = threshold
	return func(d *trace.Dyn, fan int32, r *cpu.Record) {
		b := cpu.BreakdownOf(r)
		agg.AllBkd.Add(b)
		if d.Overhead {
			agg.OverheadDyns++
		} else if d.Thumb {
			agg.ThumbArch++
		}
		if d.ChainID != 0 {
			agg.ChainDyns++
		}
		if fan >= threshold {
			agg.CritDyns++
			agg.CritBkd.Add(b)
			// Measured execute time (loads include their memory time),
			// which is what Fig. 3c contrasts.
			switch lat := r.Done - r.Issued; {
			case lat <= 1:
				agg.CritLat1++
			case lat <= 3:
				agg.CritLat2to3++
			default:
				agg.CritLat4Plus++
			}
		}
	}
}

// Speedup returns base.Cycles / opt.Cycles as a percentage gain.
func Speedup(base, opt *Measurement) float64 {
	if opt.Res.Cycles == 0 {
		return 0
	}
	return 100 * (float64(base.Res.Cycles)/float64(opt.Res.Cycles) - 1)
}

// measureBuffers bundles the streaming scratch state one measurement needs
// — a chunked generator source and an online fanout stream — so repeated
// measurements (and the per-worker loops of criticd/dist fleets) reuse the
// chunk and window buffers instead of reallocating them per window.
type measureBuffers struct {
	src trace.GenSource
	fs  dfg.FanoutStream
}

var measureBufs = sync.Pool{New: func() any { return new(measureBuffers) }}

// Measure simulates one program under cfg over the context's measurement
// window (with warm-up), optionally collecting per-instruction records. It
// is the uncached one-lane case of the measurement build; experiment runners
// go through MeasureVariant/MeasureBatch, which memoize the result. It
// simulates whatever temperature hints the caller attached to cfg; the
// memoized build derives trrip's hints itself.
func (c *Context) Measure(p *prog.Program, cfg cpu.Config, collect bool) *Measurement {
	return c.measure(p, []cpu.Config{cfg}, collect)[0]
}

// measure is the uncached measurement build. It generates p's trace once
// and streams it, in chunks, through one online fanout pass into a
// cpu.BatchSim lane per configuration: the warm-up skip, then the warm
// window, then the measured window, whose retirements each lane folds into
// its Measurement's WindowAgg. A lane's result depends only on its own
// configuration and the shared stream, so it is bit-identical however the
// configurations are grouped. Peak memory is O(lanes × (chunk + fanout
// window)) regardless of MeasureArch.
//
// collect=true keeps each lane's per-instruction records (CollectRecords)
// and tees the measured window's chunks into Dyns/Fanouts, shared
// read-only by every lane's Measurement. measure sets each lane's
// CollectRecords and telemetry sink in cfgs in place.
func (c *Context) measure(p *prog.Program, cfgs []cpu.Config, collect bool) []*Measurement {
	if c.tel != nil {
		if len(cfgs) > 1 {
			c.tel.BatchedMeasurements.Add(int64(len(cfgs)))
			c.tel.BatchLanes.Observe(float64(len(cfgs)))
		}
		defer func(start time.Time) {
			c.tel.MeasureSeconds.Observe(time.Since(start).Seconds())
		}(time.Now())
	}
	for i := range cfgs {
		cfgs[i].CollectRecords = collect
		if c.tel != nil {
			cfgs[i].Metrics = c.tel.Sim
		}
	}
	b := cpu.NewBatch(cfgs)
	g := trace.NewGenerator(p, c.Seed)
	g.SkipArch(c.WarmupArch)

	bufs := measureBufs.Get().(*measureBuffers)
	defer measureBufs.Put(bufs)
	bufs.src.Reset(g, c.WarmArch, trace.DefaultChunk)
	bufs.fs.Reset(&bufs.src, 128)
	b.RunStream(&bufs.fs)

	ms := make([]*Measurement, len(cfgs))
	for i := range ms {
		ms[i] = &Measurement{}
		b.Lane(i).OnCommit(ms[i].aggObserver(c.HighFanout))
	}
	bufs.src.Reset(g, c.MeasureArch, trace.DefaultChunk)
	bufs.fs.Reset(&bufs.src, 128)
	var st cpu.Stream = &bufs.fs
	tee := windowTee{st: st}
	if collect {
		st = &tee
	}
	res := b.RunStream(st)
	for i, m := range ms {
		m.Res = res[i]
		m.Dyns, m.Fanouts = tee.dyns, tee.fan
	}
	return ms
}

// windowTee passes a stream through unchanged while appending a copy of
// every chunk to a materialized window: the collect=true side of measure.
type windowTee struct {
	st   cpu.Stream
	dyns []trace.Dyn
	fan  []int32
}

func (t *windowTee) Next() ([]trace.Dyn, []int32) {
	d, f := t.st.Next()
	t.dyns = append(t.dyns, d...)
	t.fan = append(t.fan, f...)
	return d, f
}

// windowSource returns a chunked Source over the context's measure window of
// the given variant — exactly the dyns a Measurement of that variant covers
// (same seed, same warm-up skip), without simulating or materializing the
// window. Chain-structure figures stream their extraction over it.
func (c *Context) windowSource(a workload.App, kind string, chunk int) *trace.GenSource {
	p, _ := c.Variant(a, kind)
	g := trace.NewGenerator(p, c.Seed)
	g.SkipArch(c.WarmupArch)
	g.SkipArch(c.WarmArch)
	return trace.NewGenSource(g, c.MeasureArch, chunk)
}

// MeasureVariant measures one (app, variant, machine config) shard through
// the memo cache: the one-unit case of MeasureSweep. The baseline
// trace/simulation for an app is computed once and reused by every
// experiment that needs it (fig1a/fig3/fig10/...) instead of once per
// figure. The returned Measurement is shared — callers must treat it as
// read-only.
func (c *Context) MeasureVariant(a workload.App, kind string, cfg cpu.Config, collect bool) *Measurement {
	return c.MeasureSweep(a, []MeasureUnit{{Kind: kind, Cfg: cfg}}, collect)[0]
}

// MeasureRequest is the serializable description of one lane group: the
// machine configurations of one (app, variant) that a sweep builds as lanes
// of one trace pass. It is the remote unit of work for distributed execution
// (internal/dist). It carries every input the lanes' memo keys cover
// (generator parameters, compiler kind, machine configurations with
// telemetry stripped, and the window/profiling scale), so a worker executing
// it computes exactly the artifacts the dispatching context would have built
// locally; every field is integer- or bool-valued plain data, so the JSON
// round-trip is exact and distribution preserves bit-identical results. The
// configs carry no temperature hints: for a trrip L1I the worker derives
// them from the app, kind and profile plan, as the local build does.
type MeasureRequest struct {
	App     workload.Params `json:"app"`
	Kind    string          `json:"kind"`
	Configs []cpu.Config    `json:"configs"`
	Collect bool            `json:"collect,omitempty"`

	Seed        int64            `json:"seed"`
	WarmupArch  int              `json:"warmup_arch"`
	WarmArch    int              `json:"warm_arch"`
	MeasureArch int              `json:"measure_arch"`
	ProfilePlan trace.SamplePlan `json:"profile_plan"`
	HighFanout  int32            `json:"high_fanout"`
}

// Remote executes measurement lane groups somewhere other than this process.
// internal/dist's Coordinator is the fleet-backed implementation.
type Remote interface {
	// MeasureRemote executes req and returns one measurement per config, in
	// order. The results must be bit-identical to a local execution of the
	// same request; an error, or a reply of the wrong length or with a nil
	// entry, makes the caller fall back to computing locally.
	MeasureRemote(ctx context.Context, req MeasureRequest) ([]*Measurement, error)

	// Width is how many shards to keep in flight so the remote side stays
	// busy; shard maps run at least this wide. 0 leaves them at the
	// context's worker bound.
	Width() int
}

// ExecuteMeasure runs one measurement request against the given cache bundle
// — the worker side of distributed execution — and returns one measurement
// per config, in order. It builds them through MeasureBatch, the memoized
// group build a local sweep uses, so keys, trrip hints and lane results are
// exactly a local build's. caches == nil builds against a private throwaway
// bundle. A ctx cancelled mid-build aborts the request, and (per the memo
// validity contract) the partial artifacts are not retained.
func ExecuteMeasure(ctx context.Context, req MeasureRequest, caches *Caches) (ms []*Measurement, err error) {
	// Requests come off the wire. An empty one has nothing to answer, and a
	// malformed hierarchy (zero ways, unknown policy) would otherwise panic
	// deep in cache construction on the worker, so refuse both.
	if len(req.Configs) == 0 {
		return nil, fmt.Errorf("exp: measurement %s/%s has no configs", req.App.Name, req.Kind)
	}
	for i := range req.Configs {
		if verr := req.Configs[i].Hier.Validate(); verr != nil {
			return nil, fmt.Errorf("exp: measurement %s/%s config %d invalid: %w", req.App.Name, req.Kind, i, verr)
		}
	}
	if caches == nil {
		caches = NewCaches()
	}
	c := &Context{
		Seed:        req.Seed,
		WarmupArch:  req.WarmupArch,
		WarmArch:    req.WarmArch,
		MeasureArch: req.MeasureArch,
		ProfilePlan: req.ProfilePlan,
		HighFanout:  req.HighFanout,
		caches:      caches,
	}
	if ctx != nil {
		c.SetRunContext(ctx)
		defer RecoverCancelled(ctx, &err)
	}
	ms = c.MeasureBatch(workload.App{Params: req.App}, req.Kind, req.Configs, req.Collect)
	if cerr := c.Err(); cerr != nil {
		return nil, cerr
	}
	if slices.Contains(ms, nil) {
		return nil, fmt.Errorf("exp: measurement %s/%s produced no result", req.App.Name, req.Kind)
	}
	return ms, nil
}

// RecoverCancelled, deferred by a run's entry point, converts a panic raised
// by a pipeline stage that consumed a discarded, cancellation-invalidated
// artifact (memo lookups return zero values once the run context is
// cancelled) back into ctx's error. Panics on a live context are real bugs
// and propagate.
func RecoverCancelled(ctx context.Context, err *error) {
	if p := recover(); p != nil {
		if cerr := ctx.Err(); cerr != nil {
			*err = cerr
			return
		}
		panic(p)
	}
}

// measurementCost approximates a measurement's retained bytes. Streamed
// (collect=false) measurements retain no slices — they cost the fixed
// struct footprint — while collect=true measurements are dominated by their
// Dyns/Fanouts/Records buffers.
func measurementCost(m *Measurement) int64 {
	const dynBytes = int64(unsafe.Sizeof(trace.Dyn{}))
	const recBytes = int64(unsafe.Sizeof(cpu.Record{}))
	const structBytes = int64(unsafe.Sizeof(Measurement{}))
	return structBytes +
		int64(len(m.Dyns))*dynBytes +
		int64(len(m.Fanouts))*4 +
		int64(len(m.Res.Records))*recBytes
}

// CacheStats reports the engine's memo-cache hit/miss counters.
type CacheStats struct {
	Programs     sched.Stats
	Profiles     sched.Stats
	Variants     sched.Stats
	Measurements sched.Stats
}

// String formats the counters (the -cache-stats view of cmd/criticsim).
func (s CacheStats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "cache stats:\n")
	fmt.Fprintf(&b, "  programs:     %s\n", s.Programs)
	fmt.Fprintf(&b, "  profiles:     %s\n", s.Profiles)
	fmt.Fprintf(&b, "  variants:     %s\n", s.Variants)
	fmt.Fprintf(&b, "  measurements: %s\n", s.Measurements)
	return b.String()
}

// CacheStats returns the context's current memo counters.
func (c *Context) CacheStats() CacheStats {
	return CacheStats{
		Programs:     c.caches.progs.Stats(),
		Profiles:     c.caches.profs.Stats(),
		Variants:     c.caches.variants.Stats(),
		Measurements: c.caches.meas.Stats(),
	}
}

// Suites returns the three workload suites keyed as the paper labels them.
func Suites() map[string][]workload.App {
	return map[string][]workload.App{
		"android":    workload.MobileApps(),
		"spec.int":   workload.SPECIntApps(),
		"spec.float": workload.SPECFloatApps(),
	}
}

// SuiteOrder is the presentation order of suites.
var SuiteOrder = []string{"spec.int", "spec.float", "android"}

// forEach runs f over indices 0..n-1 on a worker pool and waits. The pool
// runs at the context's worker bound, widened to the attached Remote's Width
// under distribution; it stops dispatching once the run context is
// cancelled, and it records its metrics and "map:exp" span. Results must be
// written to preallocated, index-addressed storage; order-sensitive
// reductions happen after it returns (the sched package's determinism
// contract).
func (c *Context) forEach(n int, f func(i int)) {
	w := c.workers()
	if c.remote != nil {
		w = max(w, c.remote.Width())
	}
	p := sched.NewPool(w).Named("exp")
	if c.tel != nil {
		p.Instrument(c.tel.Pool)
	}
	if c.runCtx != nil {
		p.WithContext(c.runCtx)
	}
	p.Map(n, f)
}

// critBreakdown returns the per-stage residency of the high-fanout
// (individually critical) instructions of a measurement, and of its whole
// window — folded online while the window retired (WindowAgg), so it is
// available in both collect modes.
func (c *Context) critBreakdown(m *Measurement) (crit cpu.Breakdown, all cpu.Breakdown, critCount int) {
	return m.Agg.CritBkd, m.Agg.AllBkd, int(m.Agg.CritDyns)
}
