package cpu_test

import (
	"reflect"
	"testing"

	"critics/internal/cpu"
	"critics/internal/dfg"
	"critics/internal/exp"
	"critics/internal/trace"
	"critics/internal/workload"
)

// quickWindows returns the warm and measured windows a quick-scale
// measurement of app's kind variant simulates: the same seed, warm-up skip
// and window lengths as exp.Context.Measure.
func quickWindows(t *testing.T, ctx *exp.Context, a workload.App, kind string) (warm, meas []trace.Dyn) {
	t.Helper()
	p, _ := ctx.Variant(a, kind)
	g := trace.NewGenerator(p, ctx.Seed)
	g.SkipArch(ctx.WarmupArch)
	warm = g.GenerateArch(nil, ctx.WarmArch)
	meas = g.GenerateArch(nil, ctx.MeasureArch)
	return warm, meas
}

// fanoutStream streams dyns with online fanouts, as a measurement does.
func fanoutStream(dyns []trace.Dyn) cpu.Stream {
	return dfg.NewFanoutStream(trace.NewSliceSource(dyns, trace.DefaultChunk), 128)
}

// TestRunStreamMatchesReference runs a warm window then a measured window
// through RunStream and through the reference loop, over the mobile apps and
// a few SPEC apps at quick scale, base and CritIC, with and without the
// criticality hooks. Every Result, records included, must be equal.
func TestRunStreamMatchesReference(t *testing.T) {
	if testing.Short() {
		t.Skip("catalog-wide reference comparison")
	}
	prio, clp, both := cpu.DefaultConfig(), cpu.DefaultConfig(), cpu.DefaultConfig()
	prio.BackendPrio = true
	clp.CriticalLoadPrefetch = true
	both.BackendPrio, both.CriticalLoadPrefetch = true, true
	cfgs := []struct {
		name string
		cfg  cpu.Config
	}{{"default", cpu.DefaultConfig()}, {"backend-prio", prio}, {"clp", clp}, {"both-hooks", both}}

	apps := workload.MobileApps()
	for _, name := range []string{"mcf", "gcc", "lbm"} {
		a, ok := workload.FindApp(name)
		if !ok {
			t.Fatalf("catalog app %s missing", name)
		}
		apps = append(apps, a)
	}
	ctx := exp.QuickContext()
	for _, a := range apps {
		for _, kind := range []string{exp.VarBase, exp.VarCritIC} {
			warm, meas := quickWindows(t, ctx, a, kind)
			for _, c := range cfgs {
				cfg := c.cfg
				cfg.CollectRecords = true
				s, ref := cpu.New(cfg), cpu.New(cfg)
				for w, dyns := range [][]trace.Dyn{warm, meas} {
					got := s.RunStream(fanoutStream(dyns))
					want := cpu.RefRunStream(ref, fanoutStream(dyns))
					if !reflect.DeepEqual(got, want) {
						t.Errorf("%s %s %s window %d: RunStream differs from the reference (%d vs %d cycles)",
							a.Params.Name, kind, c.name, w, got.Cycles, want.Cycles)
					}
				}
			}
		}
	}
}

// TestPhysicalBoundsCatalog asserts, for every catalog app at quick scale,
// base and CritIC under the default configuration, that the measured
// window's cycles respect the machine's fetch, commit and dataflow bounds.
func TestPhysicalBoundsCatalog(t *testing.T) {
	if testing.Short() {
		t.Skip("catalog-wide bounds check")
	}
	ctx := exp.QuickContext()
	cfg := cpu.DefaultConfig()
	var apps []workload.App
	for _, suite := range []func() []workload.App{workload.MobileApps, workload.SPECIntApps, workload.SPECFloatApps} {
		apps = append(apps, suite()...)
	}
	for _, a := range apps {
		for _, kind := range []string{exp.VarBase, exp.VarCritIC} {
			warm, meas := quickWindows(t, ctx, a, kind)
			s := cpu.New(cfg)
			s.RunStream(fanoutStream(warm))
			res := s.RunStream(fanoutStream(meas))
			if err := cpu.PhysicalBoundsErr(cfg, meas, res); err != nil {
				t.Errorf("%s %s: %v", a.Params.Name, kind, err)
			}
		}
	}
}
