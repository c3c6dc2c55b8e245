package exp

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"critics/internal/cache"
	"critics/internal/cpu"
	"critics/internal/layout"
	"critics/internal/workload"
)

func TestFrontendKindRoundTrip(t *testing.T) {
	cases := []struct {
		kind, lay string
		composed  string
	}{
		{VarCritIC, "c3", "critic+lay-c3"},
		{VarBase, "hot", "base+lay-hot"},
		{VarCritIC, "", VarCritIC},
		{VarCritIC, "none", VarCritIC},
	}
	for _, tc := range cases {
		if got := FrontendKind(tc.kind, tc.lay); got != tc.composed {
			t.Errorf("FrontendKind(%q, %q) = %q, want %q", tc.kind, tc.lay, got, tc.composed)
		}
	}
	inner, lay, ok := splitLayoutKind("critic+lay-c3")
	if !ok || inner != VarCritIC || lay != "c3" {
		t.Errorf("splitLayoutKind = (%q, %q, %v)", inner, lay, ok)
	}
	if _, _, ok := splitLayoutKind(VarCritIC); ok {
		t.Error("splitLayoutKind matched an uncomposed kind")
	}
}

func TestValidateFrontend(t *testing.T) {
	if err := ValidateFrontend("", ""); err != nil {
		t.Errorf("empty selection rejected: %v", err)
	}
	if err := ValidateFrontend("trrip", "c3"); err != nil {
		t.Errorf("valid selection rejected: %v", err)
	}
	if ValidateFrontend("plru", "") == nil {
		t.Error("unknown policy accepted")
	}
	if ValidateFrontend("", "pettis") == nil {
		t.Error("unknown layout accepted")
	}
}

// TestFrontendConfigLRUIsDefault pins the memo-identity property: selecting
// no policy (or lru by name) yields the untouched default machine, so the
// lru cell of fig-frontend shares measurement cache identity with every
// other experiment's default-machine runs.
func TestFrontendConfigLRUIsDefault(t *testing.T) {
	want := cpu.DefaultConfig()
	for _, pol := range []string{"", cache.PolicyLRU} {
		if got := FrontendConfig(pol); got != want {
			t.Errorf("FrontendConfig(%q) != DefaultConfig()", pol)
		}
	}
	s := FrontendConfig(cache.PolicySRRIP)
	if s.Hier.L1I.Policy != cache.PolicySRRIP || s.Hier.Temps != nil {
		t.Errorf("srrip config: policy %q, temp hints %v", s.Hier.L1I.Policy, s.Hier.Temps)
	}
	tr := FrontendConfig(cache.PolicyTRRIP)
	if tr.Hier.L1I.Policy != cache.PolicyTRRIP {
		t.Errorf("trrip config policy = %q", tr.Hier.L1I.Policy)
	}
}

// TestMeasureDerivesTRRIPHints pins where trrip's temperature hints come
// from: the memoized build derives them from the variant it simulates and
// the app's standard profile. A trrip MeasureVariant must equal the
// uncached Measure of the same program with layout.Temperatures attached,
// and must differ from that Measure without hints, so a build that forgets
// them fails here.
func TestMeasureDerivesTRRIPHints(t *testing.T) {
	c := QuickContext()
	cfg := FrontendConfig(cache.PolicyTRRIP)
	for _, a := range workload.MobileApps()[:2] {
		for _, kind := range []string{VarBase, VarCritIC + LayoutSuffix + "c3"} {
			p, _ := c.Variant(a, kind)
			hinted := cfg
			temps := layout.Temperatures(p, c.Profile(a, false, 1))
			hinted.Hier.Temps = &temps
			want := c.Measure(p, hinted, false)
			if got := c.MeasureVariant(a, kind, cfg, false); !reflect.DeepEqual(got, want) {
				t.Errorf("%s/%s: trrip MeasureVariant (%d cycles, %d L1I misses) != Measure with derived hints (%d cycles, %d L1I misses)",
					a.Params.Name, kind, got.Res.Cycles, got.Res.ICacheMisses, want.Res.Cycles, want.Res.ICacheMisses)
			}
			bare := c.Measure(p, cfg, false)
			if bare.Res.Cycles == want.Res.Cycles && bare.Res.ICacheMisses == want.Res.ICacheMisses {
				t.Errorf("%s/%s: trrip measures the same with and without hints (%d cycles, %d L1I misses); the check cannot see a missing hint",
					a.Params.Name, kind, want.Res.Cycles, want.Res.ICacheMisses)
			}
		}
	}
}

// TestLRUPolicyMeasureEquivalence is the measurement-level half of the
// policy-seam bit-identity contract (the cache-level half drives the raw
// arrays in the cache package): naming lru explicitly must reproduce the
// default machine's measurement exactly, across apps and compiler variants.
// The two configs are distinct memo keys, so both measurements really run.
func TestLRUPolicyMeasureEquivalence(t *testing.T) {
	c := determinismCtx(2)
	named := cpu.DefaultConfig()
	named.Hier.L1I.Policy = cache.PolicyLRU
	for _, a := range workload.MobileApps()[:3] {
		for _, kind := range []string{VarBase, VarCritIC, VarCritIC + LayoutSuffix + "c3"} {
			def := c.MeasureVariant(a, kind, cpu.DefaultConfig(), false)
			lru := c.MeasureVariant(a, kind, named, false)
			if def.Res.Cycles != lru.Res.Cycles ||
				def.Res.ICacheAccesses != lru.Res.ICacheAccesses ||
				def.Res.ICacheMisses != lru.Res.ICacheMisses ||
				def.Res.Mispredicts != lru.Res.Mispredicts ||
				def.Agg.AllBkd != lru.Agg.AllBkd {
				t.Errorf("%s/%s: named-lru measurement differs from default (cycles %d vs %d, L1I %d/%d vs %d/%d)",
					a.Params.Name, kind, def.Res.Cycles, lru.Res.Cycles,
					def.Res.ICacheMisses, def.Res.ICacheAccesses, lru.Res.ICacheMisses, lru.Res.ICacheAccesses)
			}
		}
	}
}

// TestFigFrontend runs the sweep at reduced scale and checks the acceptance
// shape: a full policy × layout grid whose cells are non-vacuous (the axes
// actually change the simulation) with the lru/none reference pinned to
// zero deltas.
func TestFigFrontend(t *testing.T) {
	found := false
	for _, id := range IDs() {
		if id == "fig-frontend" {
			found = true
		}
	}
	if !found {
		t.Fatal("fig-frontend not registered")
	}

	r := RunFigFrontend(determinismCtx(0))
	wantCells := len(FrontendPolicies()) * len(FrontendLayouts())
	if len(r.Cells) != wantCells {
		t.Fatalf("got %d cells, want %d", len(r.Cells), wantCells)
	}
	ref := r.Cells[0]
	if ref.Policy != cache.PolicyLRU || ref.Layout != "none" {
		t.Fatalf("reference cell is %s/%s, want lru/none", ref.Policy, ref.Layout)
	}
	if ref.DFetchIPP != 0 || ref.SpeedupPct != 0 {
		t.Errorf("reference deltas not zero: %f, %f", ref.DFetchIPP, ref.SpeedupPct)
	}
	if ref.L1IMissPct <= 0 || ref.FetchIPct <= 0 || ref.BaselineIPC <= 0 {
		t.Errorf("reference cell vacuous: %+v", ref)
	}
	distinctPolicy, distinctLayout := 0, 0
	for _, cell := range r.Cells[1:] {
		if cell.Layout == ref.Layout && (cell.L1IMissPct != ref.L1IMissPct || cell.SpeedupPct != 0) {
			distinctPolicy++
		}
		if cell.Layout != ref.Layout && cell.SpeedupPct != 0 {
			distinctLayout++
		}
	}
	if distinctPolicy == 0 {
		t.Error("no replacement policy produced a delta: the policy axis is vacuous")
	}
	if distinctLayout == 0 {
		t.Error("no layout cell produced a delta: the layout axis is vacuous")
	}
	if s := r.String(); !strings.Contains(s, "trrip") || !strings.Contains(s, "c3") {
		t.Errorf("report missing axis rows:\n%s", s)
	}
}

// TestExecuteMeasureRejectsInvalidConfig: a malformed hierarchy arriving
// over the distributed wire must error, not panic the worker.
func TestExecuteMeasureRejectsInvalidConfig(t *testing.T) {
	c := determinismCtx(1)
	bad := cpu.DefaultConfig()
	bad.Hier.L1I.Ways = 0
	req := MeasureRequest{
		App:         workload.MobileApps()[0].Params,
		Kind:        VarBase,
		Configs:     []cpu.Config{bad},
		Seed:        c.Seed,
		WarmupArch:  c.WarmupArch,
		WarmArch:    c.WarmArch,
		MeasureArch: c.MeasureArch,
		ProfilePlan: c.ProfilePlan,
		HighFanout:  c.HighFanout,
	}
	if _, err := ExecuteMeasure(context.Background(), req, nil); err == nil {
		t.Fatal("zero-way L1I accepted by ExecuteMeasure")
	} else if !strings.Contains(err.Error(), "L1I") {
		t.Errorf("error %q does not name the offending level", err)
	}
	unknown := cpu.DefaultConfig()
	unknown.Hier.L1I.Policy = "plru"
	req.Configs = []cpu.Config{unknown}
	if _, err := ExecuteMeasure(context.Background(), req, nil); err == nil {
		t.Fatal("unknown policy accepted by ExecuteMeasure")
	}
}
