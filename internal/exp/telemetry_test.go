package exp

import (
	"strings"
	"sync"
	"testing"

	"critics/internal/cpu"
	"critics/internal/telemetry"
	"critics/internal/workload"
)

// TestSetTelemetryReusesBundle locks the bundle reuse of SetTelemetry:
// contexts over the same caches and registry share one bundle, whose series
// are the registry's; another registry, or a context with caches of its
// own, builds its own bundle.
func TestSetTelemetryReusesBundle(t *testing.T) {
	caches := NewCaches()
	reg := telemetry.NewRegistry()
	attach := func(c *Caches, r *telemetry.Registry) *Context {
		ctx := QuickContext()
		ctx.UseCaches(c)
		ctx.SetTelemetry(r)
		return ctx
	}

	a, b := attach(caches, reg), attach(caches, reg)
	if a.tel == nil || b.tel != a.tel {
		t.Fatal("contexts sharing caches and a registry built separate bundles")
	}
	if h := reg.Histogram("critics_measure_seconds", "", expSecondsBuckets); a.tel.MeasureSeconds != h {
		t.Error("reused bundle's MeasureSeconds is not the registry's series")
	}
	if c := attach(caches, telemetry.NewRegistry()); c.tel == a.tel {
		t.Error("a context on another registry reused the bundle")
	}
	if d := attach(NewCaches(), reg); d.tel == a.tel {
		t.Error("a context on other caches reused the bundle")
	}
	if e := attach(caches, nil); e.tel != nil {
		t.Error("SetTelemetry(nil) left a bundle attached")
	}

	var out strings.Builder
	if err := reg.WritePrometheus(&out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), `critics_memo_hits_total{cache="measurements"}`) {
		t.Error("memo cache series missing from the registry")
	}
}

// TestSetTelemetryConcurrent attaches one registry from contexts over the
// same caches on several goroutines at once: each gets a bundle whose series
// are the registry's, whichever context built it.
func TestSetTelemetryConcurrent(t *testing.T) {
	caches := NewCaches()
	reg := telemetry.NewRegistry()
	want := reg.Histogram("critics_measure_seconds", "", expSecondsBuckets)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := QuickContext()
			c.UseCaches(caches)
			c.SetTelemetry(reg)
			if c.tel == nil || c.tel.MeasureSeconds != want {
				t.Error("concurrently attached bundle does not hold the registry's series")
			}
			c.tel.BatchedMeasurements.Add(1)
		}()
	}
	wg.Wait()
	if n := reg.Counter("critics_measure_batched_total", "").Value(); n != 8 {
		t.Errorf("shared counter reads %d, want 8", n)
	}
}

// TestSimWorkCounters pins the simulator's work counters for one quick
// acrobat base measurement (warm window plus measured window) under the
// default configuration and under BackendPrio. The counts are deterministic:
// a hot-loop change that alters how much work the cycle loop does shows here
// as an exact difference, while the pinned cycles must not move.
func TestSimWorkCounters(t *testing.T) {
	type counts struct{ cycles, walks, trainings, compactions int64 }
	prio := cpu.DefaultConfig()
	prio.BackendPrio = true
	for _, tc := range []struct {
		name string
		cfg  cpu.Config
		want counts
	}{
		{"default", cpu.DefaultConfig(), counts{74795, 117078, 0, 24622}},
		{"backend-prio", prio, counts{74784, 117976, 55000, 24631}},
	} {
		ctx := QuickContext()
		ctx.SetTelemetry(telemetry.NewRegistry())
		a, _ := workload.FindApp("acrobat")
		ctx.Measure(ctx.Program(a), tc.cfg, false)
		m := ctx.tel.Sim
		got := counts{m.Cycles.Value(), m.ProducerWalks.Value(), m.CritTrainings.Value(), m.IQCompactions.Value()}
		if got != tc.want {
			t.Errorf("%s: work counters %+v, want %+v", tc.name, got, tc.want)
		}
	}
}
