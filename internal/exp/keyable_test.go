package exp

import (
	"encoding/json"
	"strings"
	"testing"

	"critics/internal/cache"
	"critics/internal/cpu"
	"critics/internal/sched"
	"critics/internal/telemetry"
)

// variantKinds are every compiler variant the experiments key caches by.
var variantKinds = []string{
	VarBase, VarHoist, VarCritIC, VarCritICIdeal, VarCritICBranch,
	VarOPP16, VarCompress, VarOPP16CritIC,
	// Layout-composed kinds (the front-end sweep axis rides in the kind).
	VarCritIC + LayoutSuffix + "c3", VarBase + LayoutSuffix + "hot",
}

// TestKeyedTypesAreKeyable walks every struct type this package passes to
// sched.KeyOf — workload parameters for the whole catalog, the telemetry-
// stripped machine configuration, the profiling plan, and each variant kind
// — through sched.AssertKeyable. KeyOf panics on a field its walk rejects
// (slice, map, non-nil pointer), whose %#v form would make cache keys
// address-dependent; this test names the offending field as soon as someone
// grows one of these structs, without running a pipeline.
func TestKeyedTypesAreKeyable(t *testing.T) {
	c := NewContext()

	for _, suite := range SuiteOrder {
		for _, a := range Suites()[suite] {
			if err := sched.AssertKeyable(a.Params); err != nil {
				t.Errorf("workload.Params for %s: %v", a.Params.Name, err)
			}
		}
	}

	kcfg := cpu.DefaultConfig()
	kcfg.Metrics = nil // stripped before keying, exactly as MeasureVariant does
	if err := sched.AssertKeyable(kcfg); err != nil {
		t.Errorf("cpu.Config (telemetry stripped): %v", err)
	}
	// Temperature hints are attached by the measurement build after keying;
	// a config carrying them must not key, or two builds of one binary
	// would differ by the hints' address.
	var temps cache.TempHints
	temps.Add(0, 4096, cache.TempHot)
	tcfg := FrontendConfig(cache.PolicyTRRIP)
	tcfg.Hier.Temps = &temps
	if err := sched.AssertKeyable(tcfg); err == nil {
		t.Error("cpu.Config with temp hints passed AssertKeyable; the build attaches them after keying")
	}
	if b, err := json.Marshal(tcfg); err != nil || strings.Contains(string(b), "Ranges") {
		t.Errorf("cpu.Config with temp hints marshals to %s (%v); the wire must not carry them", b, err)
	}
	if err := sched.AssertKeyable(c.ProfilePlan); err != nil {
		t.Errorf("trace.SamplePlan: %v", err)
	}
	for _, kind := range variantKinds {
		if err := sched.AssertKeyable(kind); err != nil {
			t.Errorf("variant kind %q: %v", kind, err)
		}
	}
	for _, part := range []any{c.Seed, c.WarmupArch, c.WarmArch, c.MeasureArch, true} {
		if err := sched.AssertKeyable(part); err != nil {
			t.Errorf("scalar key part %#v: %v", part, err)
		}
	}

	// The raw DefaultConfig with a telemetry sink attached must be rejected
	// — keying it would make cache identity depend on a pointer address.
	live := cpu.DefaultConfig()
	live.Metrics = cpu.NewMetrics(telemetry.NewRegistry())
	if err := sched.AssertKeyable(live); err == nil {
		t.Error("cpu.Config with live Metrics passed AssertKeyable; MeasureVariant's strip would be pointless")
	}
}

// TestKeyChecksUnderRealRun drives every KeyOf call site in this package
// (program, profile, variant, measurement) through a real reduced-scale
// experiment. KeyOf checks the key contract on every call, so a violation
// panics inside it, failing the run.
func TestKeyChecksUnderRealRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real experiment; skipped in -short")
	}
	if _, err := Run("fig8", determinismCtx(2)); err != nil {
		t.Fatalf("fig8 under key checks: %v", err)
	}
}
