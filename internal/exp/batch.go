package exp

import (
	"context"
	"slices"

	"critics/internal/cpu"
	"critics/internal/obs"
	"critics/internal/sched"
	"critics/internal/workload"
)

// MeasureBatch measures machine configurations of one (app, variant)
// through the memo cache. It is the one memoized measurement path;
// MeasureVariant is its one-configuration case. Each configuration's key
// covers everything the result depends on: workload seed and generator
// parameters (a.Params), compiler configuration (kind), machine
// configuration (telemetry sink stripped), collect mode, and the context's
// window/profiling scale. Results are positional and shared, so callers
// must treat them as read-only; under a cancelled run context they may be
// nil.
//
// Every distinct key gets one memo lookup, in order. The first lookup that
// misses builds its configuration together with every later configuration
// not yet cached, as lanes of one measure call (one trace pass feeding
// lockstep cpu.BatchSim lanes — the shape of the fig10/fig11/fig12/fig13
// design-space sweeps); the later lookups publish those lanes under their
// own keys. A lane is bit-identical to a one-lane build, so grouping only
// changes build strategy: later single-variant lookups hit the same
// entries, and distributed workers never see a new request shape. With a
// Remote attached each miss is dispatched as its own MeasureRequest, and a
// miss the fleet cannot serve is built locally as one lane.
func (c *Context) MeasureBatch(a workload.App, kind string, cfgs []cpu.Config, collect bool) []*Measurement {
	// Sweep-sized key sets stay on the stack: a single-variant memo hit
	// allocates only its key, its label and the result slice.
	var kbuf [8]sched.Key
	keys := kbuf[:0]
	for _, cfg := range cfgs {
		// Telemetry sinks never participate in cache identity; measure
		// re-attaches the context's sink to each lane.
		cfg.Metrics = nil
		keys = append(keys, sched.KeyOf("meas", a.Params, kind, cfg, collect,
			c.Seed, c.WarmupArch, c.WarmArch, c.MeasureArch, c.ProfilePlan, c.HighFanout))
	}
	label := "measure " + a.Params.Name + "/" + kind
	out := make([]*Measurement, len(cfgs))
	var built map[sched.Key]*Measurement // lanes measured ahead of their own lookup
	for i := range cfgs {
		if j := slices.Index(keys, keys[i]); j < i {
			out[i] = out[j] // a repeated configuration shares its first result
			continue
		}
		if out[i] != nil {
			continue // served by the peek of an earlier miss's lane planning
		}
		out[i] = memoGet(c, c.caches.meas, label, keys[i], func() *Measurement {
			if m, ok := built[keys[i]]; ok {
				return m
			}
			if c.remote != nil {
				if m, served := c.measureRemote(a, kind, cfgs[i], collect, label, keys[i]); served {
					return m
				}
				defer c.fallbackSpan(label, keys[i])()
			}
			// This miss's lanes: itself plus every later configuration that
			// is neither a repeat nor cached. A peeked hit is served here,
			// which is that key's one lookup.
			lanes := []int{i}
			for j := i + 1; j < len(cfgs) && c.remote == nil && !c.serialSweeps; j++ {
				if slices.Contains(keys[:j], keys[j]) {
					continue
				}
				if m, ok := c.caches.meas.Peek(keys[j]); ok {
					out[j] = m
					continue
				}
				lanes = append(lanes, j)
			}
			laneCfgs := make([]cpu.Config, len(lanes))
			for k, j := range lanes {
				laneCfgs[k] = cfgs[j]
			}
			p, _ := c.Variant(a, kind)
			ms := c.measure(p, laneCfgs, collect)
			built = make(map[sched.Key]*Measurement, len(lanes))
			for k, j := range lanes {
				built[keys[j]] = ms[k]
			}
			return ms[0]
		}, measurementCost)
	}
	return out
}

// measureRemote dispatches one configuration's MeasureRequest to the
// attached Remote. served is false when the fleet could not serve it
// (drained, all workers down, retries exhausted) and the caller must build
// locally; a run cancelled mid-dispatch is served with a discardable nil,
// which the memo validity check drops before the run fails on Err.
func (c *Context) measureRemote(a workload.App, kind string, cfg cpu.Config, collect bool, label string, key sched.Key) (m *Measurement, served bool) {
	ctx := c.runCtx
	if ctx == nil {
		ctx = context.Background()
	}
	// Re-parent the trace context onto this build's span so the
	// dispatch/retry spans the remote records hang under it.
	if t, _, ok := obs.FromContext(ctx); ok {
		ctx = obs.ContextWith(ctx, t, obs.BuildSpanID(label, keyHex8(key)))
	}
	cfg.Metrics = nil
	m, err := c.remote.MeasureRemote(ctx, MeasureRequest{
		App: a.Params, Kind: kind, Config: cfg, Collect: collect,
		Seed: c.Seed, WarmupArch: c.WarmupArch, WarmArch: c.WarmArch,
		MeasureArch: c.MeasureArch, ProfilePlan: c.ProfilePlan,
		HighFanout: c.HighFanout,
	})
	if err == nil {
		return m, true
	}
	// Remote implementations account the fallback.
	return nil, c.Err() != nil
}

// fallbackSpan starts the span of a local build that stands in for a failed
// remote dispatch, under the build span of key; calling the returned func
// ends it. Without a job trace both are no-ops.
func (c *Context) fallbackSpan(label string, key sched.Key) func() {
	t, _, ok := obs.FromContext(c.runCtx)
	if !ok {
		return func() {}
	}
	id := obs.BuildSpanID(label, keyHex8(key))
	t0 := t.Now()
	return func() {
		t.Add(obs.Span{ID: id + ":lf", Parent: id, Name: "local-fallback", StartUS: t0, DurUS: t.Now() - t0})
	}
}

// MeasureUnit names one measurement of a design-space sweep: a compiled
// variant kind and a machine configuration.
type MeasureUnit struct {
	Kind string
	Cfg  cpu.Config
}

// MeasureSweep measures a set of units for one app, batching the units that
// share a trace key: the generated trace depends on the compiled program
// (kind), not the machine, so all configurations of one kind ride a single
// MeasureBatch build. Groups follow first-appearance order and results are
// positional, so callers index them exactly as they listed the units. Sweeps
// whose units are all distinct kinds (one machine each) degenerate to the
// plain memoized path — batching only ever changes build strategy, never
// results.
func (c *Context) MeasureSweep(a workload.App, units []MeasureUnit, collect bool) []*Measurement {
	out := make([]*Measurement, len(units))
	byKind := make(map[string][]int, len(units))
	var kinds []string
	for i, u := range units {
		if _, ok := byKind[u.Kind]; !ok {
			kinds = append(kinds, u.Kind)
		}
		byKind[u.Kind] = append(byKind[u.Kind], i)
	}
	for _, kind := range kinds {
		idx := byKind[kind]
		cfgs := make([]cpu.Config, len(idx))
		for bi, i := range idx {
			cfgs[bi] = units[i].Cfg
		}
		ms := c.MeasureBatch(a, kind, cfgs, collect)
		for bi, i := range idx {
			out[i] = ms[bi]
		}
	}
	return out
}
