package exp

import (
	"context"
	"slices"

	"critics/internal/cache"
	"critics/internal/cpu"
	"critics/internal/layout"
	"critics/internal/obs"
	"critics/internal/sched"
	"critics/internal/workload"
)

// MeasureBatch measures machine configurations of one (app, variant)
// through the memo cache: the one-kind case of MeasureSweep, whose group
// schedule it follows (see there for the memo and lane contract). Results
// are positional and shared, so callers must treat them as read-only; under
// a cancelled run context they may be nil.
func (c *Context) MeasureBatch(a workload.App, kind string, cfgs []cpu.Config, collect bool) []*Measurement {
	units := make([]MeasureUnit, len(cfgs))
	for i := range cfgs {
		units[i] = MeasureUnit{Kind: kind, Cfg: cfgs[i]}
	}
	return c.MeasureSweep(a, units, collect)
}

// buildLanes builds the lane group a miss planned, one measurement per
// config: on the attached Remote as one MeasureRequest, else (also when the
// fleet cannot serve it) here as lanes of one measure call.
func (c *Context) buildLanes(a workload.App, kind string, cfgs []cpu.Config, collect bool, label string, key sched.Key) []*Measurement {
	if c.remote != nil {
		if ms, served := c.measureRemote(a, kind, cfgs, collect, label, key); served {
			return ms
		}
		defer c.fallbackSpan(label, key)()
	}
	// trrip lanes simulate with temperature hints derived from this
	// variant's laid-out code: a property of the binary the key already
	// names, so they are attached here, after keying, and derived once per
	// build. A worker derives its own.
	p, _ := c.Variant(a, kind)
	var temps *cache.TempHints
	for k := range cfgs {
		if cfgs[k].Hier.L1I.Policy == cache.PolicyTRRIP {
			if temps == nil {
				h := layout.Temperatures(p, c.Profile(a, false, 1))
				temps = &h
			}
			cfgs[k].Hier.Temps = temps
		}
	}
	return c.measure(p, cfgs, collect)
}

// measureRemote dispatches a lane group as one MeasureRequest to the
// attached Remote. served is false when the fleet could not serve it
// (drained, all workers down, retries exhausted, a reply that is not one
// measurement per config) and the caller must build locally; a run
// cancelled mid-dispatch is served with discardable nils, which the memo
// validity check drops before the run fails on Err.
func (c *Context) measureRemote(a workload.App, kind string, cfgs []cpu.Config, collect bool, label string, key sched.Key) (ms []*Measurement, served bool) {
	ctx := c.runCtx
	if ctx == nil {
		ctx = context.Background()
	}
	// Re-parent the trace context onto this build's span so the
	// dispatch/retry spans the remote records hang under it.
	if t, _, ok := obs.FromContext(ctx); ok {
		ctx = obs.ContextWith(ctx, t, obs.BuildSpanID(label, keyHex8(key)))
	}
	wire := slices.Clone(cfgs)
	for k := range wire {
		wire[k].Metrics = nil
	}
	ms, err := c.remote.MeasureRemote(ctx, MeasureRequest{
		App: a.Params, Kind: kind, Configs: wire, Collect: collect,
		Seed: c.Seed, WarmupArch: c.WarmupArch, WarmArch: c.WarmArch,
		MeasureArch: c.MeasureArch, ProfilePlan: c.ProfilePlan,
		HighFanout: c.HighFanout,
	})
	// The reply comes from outside the process, so it is checked here, once.
	if err == nil && len(ms) == len(cfgs) && !slices.Contains(ms, nil) {
		return ms, true
	}
	// Remote implementations account a failed dispatch's fallback.
	if c.Err() != nil {
		return make([]*Measurement, len(cfgs)), true
	}
	return nil, false
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

// MeasureSweep measures a set of units for one app through the memo cache.
// It is the one memoized measurement path: MeasureBatch and MeasureVariant
// are its one-kind and one-unit cases. Each unit's key covers everything the
// result depends on: workload seed and generator parameters (a.Params),
// compiler configuration (kind), machine configuration (telemetry sink
// stripped), collect mode, and the context's window/profiling scale. Results
// are positional, so callers index them exactly as they listed the units;
// they are shared, so callers must treat them as read-only; under a
// cancelled run context they may be nil.
//
// The generated trace depends on the compiled program (kind), not the
// machine, so the units of one kind form a group that shares a trace. Within
// a group every distinct key gets one memo lookup, in order. The first
// lookup that misses builds its configuration together with every later
// configuration of the group not yet cached, as lanes of one measure call
// (one trace pass feeding lockstep cpu.BatchSim lanes — the shape of the
// fig10/fig11/fig12/fig13 design-space sweeps); the later lookups publish
// those lanes under their own keys. A lane is bit-identical to a one-lane
// build, so grouping only changes build strategy: later single-variant
// lookups hit the same entries. The lanes are planned the same way with a
// Remote attached, which then receives them as one MeasureRequest; a group
// the fleet cannot serve is built locally as the same lanes.
//
// Groups are independent, so they run concurrently on a sched.Pool: at most
// c.workers() groups of one call are in flight (the bound is per call:
// sweeps nest inside forEach shards). Groups whose units are all retained in
// the memo are looked up first on the caller's goroutine, which starts
// nothing; with Workers == 1 every group runs on the caller's goroutine in
// first-appearance order, the reference schedule. A group's panic is
// re-raised on the caller's goroutine, and once the run context is cancelled
// no further group builds.
func (c *Context) MeasureSweep(a workload.App, units []MeasureUnit, collect bool) []*Measurement {
	// Sweep-sized plans stay on the stack: an all-cached sweep allocates
	// only its keys' boxed configurations, one label per group and the
	// result slice.
	var kbuf [8]sched.Key
	var gbuf [8]int
	out := make([]*Measurement, len(units))
	s := sweep{units: units, keys: kbuf[:0], group: gbuf[:0], collect: collect, out: out}
	for i := range units {
		// Telemetry sinks never participate in cache identity; measure
		// re-attaches the context's sink to each lane.
		cfg := units[i].Cfg
		cfg.Metrics = nil
		s.keys = append(s.keys, sched.KeyOf("meas", a.Params, units[i].Kind, cfg, collect,
			c.Seed, c.WarmupArch, c.WarmArch, c.MeasureArch, c.ProfilePlan, c.HighFanout))
		g := s.groups
		for j := range i {
			if units[j].Kind == units[i].Kind {
				g = s.group[j]
				break
			}
		}
		if g == s.groups {
			s.groups++
		}
		s.group = append(s.group, g)
	}

	// Serially, every group runs here in order. Otherwise only the groups
	// that cannot build do, and the rest are handed to measureGroups.
	concurrent := min(c.workers(), s.groups) > 1
	var pbuf [8]int
	pending := pbuf[:0]
	for g := range s.groups {
		if concurrent && !c.groupCached(&s, g) {
			pending = append(pending, g)
		} else if c.Err() == nil {
			c.measureGroup(a, &s, g)
		}
	}
	if len(pending) > 0 {
		c.measureGroups(a, &s, out, pending, min(c.workers(), len(pending)))
	}
	return out
}

// sweep is one MeasureSweep call: the units, each unit's memo key and kind
// group (groups numbered in first-appearance order), and the results. The
// app travels beside it: it leaks into memo builds, and a leak through one
// field would move the whole stack-held plan to the heap.
type sweep struct {
	units   []MeasureUnit
	keys    []sched.Key
	group   []int
	groups  int
	collect bool
	out     []*Measurement
}

// groupCached reports whether every unit of group g is retained in the
// measurement memo, so its lookups cannot build. It counts no lookup.
func (c *Context) groupCached(s *sweep, g int) bool {
	for i, k := range s.keys {
		if s.group[i] == g && !c.caches.meas.Cached(k) {
			return false
		}
	}
	return true
}

// measureGroups runs the pending groups of a sweep on a pool of w workers
// and re-raises the first group panic on the caller's goroutine. The pool is
// unnamed and bound to no context: sweeps run concurrently inside forEach
// shards, so a traced pool's per-trace map ordinals would not be
// reproducible, and once the run is cancelled memoGet's validity check
// skips every lookup of the groups still to run. It works on a copy of the
// plan, so the caller's stack-held plan never escapes; the copy costs
// nothing next to the builds it schedules. out is the plan's result slice,
// passed on its own for the same reason.
func (c *Context) measureGroups(a workload.App, plan *sweep, out []*Measurement, pending []int, w int) {
	s := &sweep{units: slices.Clone(plan.units), keys: slices.Clone(plan.keys),
		group: slices.Clone(plan.group), collect: plan.collect, out: out}
	todo := slices.Clone(pending)
	sched.NewPool(w).Map(len(todo), func(n int) { c.measureGroup(a, s, todo[n]) })
}

// measureGroup looks up the units of group g in order, building each miss
// with the group's later uncached units as one lane group (see MeasureSweep),
// and writes their results to s.out. The dispatching context and every
// worker (ExecuteMeasure) plan the same lanes.
func (c *Context) measureGroup(a workload.App, s *sweep, g int) {
	var label string
	var built map[sched.Key]*Measurement // lanes measured ahead of their own lookup
	for i := range s.units {
		if s.group[i] != g {
			continue
		}
		if j := slices.Index(s.keys, s.keys[i]); j < i {
			s.out[i] = s.out[j] // a repeated unit shares its first result
			continue
		}
		if s.out[i] != nil {
			continue // served by the peek of an earlier miss's lane planning
		}
		kind := s.units[i].Kind
		if label == "" {
			label = "measure " + a.Params.Name + "/" + kind
		}
		s.out[i] = memoGet(c, c.caches.meas, label, s.keys[i], func() *Measurement {
			if m, ok := built[s.keys[i]]; ok {
				return m
			}
			// This miss's lanes: itself plus every later unit of the group
			// that is neither a repeat nor cached. A peeked hit is served
			// here, which is that key's one lookup.
			lanes := []int{i}
			cfgs := []cpu.Config{s.units[i].Cfg}
			for j := i + 1; j < len(s.units) && !c.serialSweeps; j++ {
				if s.group[j] != g || slices.Contains(s.keys[:j], s.keys[j]) {
					continue
				}
				if m, ok := c.caches.meas.Peek(s.keys[j]); ok {
					s.out[j] = m
					continue
				}
				lanes = append(lanes, j)
				cfgs = append(cfgs, s.units[j].Cfg)
			}
			ms := c.buildLanes(a, kind, cfgs, s.collect, label, s.keys[i])
			built = make(map[sched.Key]*Measurement, len(lanes))
			for k, j := range lanes {
				built[s.keys[j]] = ms[k]
			}
			return ms[0]
		}, measurementCost)
	}
}
