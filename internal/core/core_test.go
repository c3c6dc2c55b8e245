package core

import (
	"encoding/json"
	"testing"

	"critics/internal/prog"
	"critics/internal/trace"
	"critics/internal/workload"
)

// sampledApp generates an app and returns it with its trace seed and a plan
// of n windows of the given length.
func sampledApp(t *testing.T, name string, n, length int) (*prog.Program, int64, trace.SamplePlan) {
	t.Helper()
	a, ok := workload.FindApp(name)
	if !ok {
		t.Fatalf("app %s not in catalog", name)
	}
	p := workload.Generate(a.Params)
	return p, a.Params.Seed, trace.SamplePlan{Samples: n, Length: length, Gap: 2000, Warmup: 5000}
}

func TestBuildProfileFindsChains(t *testing.T) {
	p, seed, plan := sampledApp(t, "acrobat", 5, 10_000)
	prof := BuildProfile(p, seed, plan, DefaultConfig())
	if prof.TotalDyn != 50_000 {
		t.Errorf("TotalDyn = %d", prof.TotalDyn)
	}
	if prof.UniqueChains() == 0 {
		t.Fatal("no chain candidates found")
	}
	sel := prof.Selected()
	if len(sel) == 0 {
		t.Fatal("no chains selected")
	}
	if prof.SelectedCoverage <= 0.01 {
		t.Errorf("selected coverage %.4f too low", prof.SelectedCoverage)
	}
	for _, e := range sel {
		if e.AvgFanout < DefaultConfig().AvgFanoutThreshold {
			t.Errorf("selected chain %v below threshold: %.2f", e.Key, e.AvgFanout)
		}
		if e.Length < 2 || e.Length > DefaultConfig().MaxLen {
			t.Errorf("selected chain length %d out of range", e.Length)
		}
		if !e.ThumbOK {
			t.Errorf("selected chain %v not Thumb-representable under RequireThumb", e.Key)
		}
	}
}

func TestProfileDeterministic(t *testing.T) {
	p, seed, plan := sampledApp(t, "maps", 3, 8_000)
	a := BuildProfile(p, seed, plan, DefaultConfig())
	b := BuildProfile(p, seed, plan, DefaultConfig())
	if len(a.Entries) != len(b.Entries) {
		t.Fatal("entry counts differ")
	}
	for i := range a.Entries {
		if a.Entries[i] != b.Entries[i] {
			t.Fatalf("entry %d differs", i)
		}
	}
}

func TestSelectionNoOverlap(t *testing.T) {
	p, seed, plan := sampledApp(t, "office", 4, 10_000)
	prof := BuildProfile(p, seed, plan, DefaultConfig())
	used := map[[3]int]bool{}
	for _, e := range prof.Selected() {
		for i := uint8(0); i < e.Key.N; i++ {
			k := [3]int{int(e.Key.Func), int(e.Key.Block), int(e.Key.Idx[i])}
			if used[k] {
				t.Fatalf("static instruction %v selected twice", k)
			}
			used[k] = true
		}
	}
}

func TestSelectionRankedByCoverage(t *testing.T) {
	p, seed, plan := sampledApp(t, "email", 4, 10_000)
	prof := BuildProfile(p, seed, plan, DefaultConfig())
	for i := 1; i < len(prof.Entries); i++ {
		if prof.Entries[i-1].DynInstrs() < prof.Entries[i].DynInstrs() {
			t.Fatal("entries not ranked by dynamic coverage")
		}
	}
}

func TestThumbRepresentableFracHigh(t *testing.T) {
	// The paper reports ~95.5% of unique CritIC sequences representable;
	// our generator poisons ~5% of chains.
	p, seed, plan := sampledApp(t, "acrobat", 5, 10_000)
	prof := BuildProfile(p, seed, plan, DefaultConfig())
	frac := prof.ThumbRepresentableFrac()
	if frac < 0.80 || frac > 1.0 {
		t.Errorf("Thumb-representable fraction %.3f; expected close to 0.955", frac)
	}
}

func TestRequireThumbFiltering(t *testing.T) {
	p, seed, plan := sampledApp(t, "browser", 4, 10_000)
	cfg := DefaultConfig()
	cfg.RequireThumb = false
	ideal := BuildProfile(p, seed, plan, cfg)
	nonThumbSelected := 0
	for _, e := range ideal.Selected() {
		if !e.ThumbOK {
			nonThumbSelected++
		}
	}
	// CritIC.Ideal may select non-representable chains; the constrained
	// profile must not (checked in TestBuildProfileFindsChains). Here we
	// only require that relaxing the constraint never reduces coverage.
	cfg.RequireThumb = true
	real := BuildProfile(p, seed, plan, cfg)
	if ideal.SelectedCoverage < real.SelectedCoverage {
		t.Errorf("ideal coverage %.4f < constrained %.4f", ideal.SelectedCoverage, real.SelectedCoverage)
	}
}

func TestMaxLenCap(t *testing.T) {
	p, seed, plan := sampledApp(t, "maps", 3, 8_000)
	cfg := DefaultConfig()
	cfg.MaxLen = 3
	prof := BuildProfile(p, seed, plan, cfg)
	for _, e := range prof.Entries {
		if e.Length > 3 {
			t.Fatalf("entry length %d exceeds cap", e.Length)
		}
	}
}

func TestCoverageCDF(t *testing.T) {
	p, seed, plan := sampledApp(t, "acrobat", 4, 10_000)
	prof := BuildProfile(p, seed, plan, DefaultConfig())
	all, thumb := prof.CoverageCDF()
	if all.At(float64(prof.UniqueChains())) != 1.0 {
		t.Error("full CDF does not reach 1")
	}
	// Thumb curve accounts for at most all the mass.
	pts := thumb.Points(10)
	if len(pts) == 0 {
		t.Fatal("thumb CDF empty")
	}
}

func TestProfileJSONRoundTrip(t *testing.T) {
	p, seed, plan := sampledApp(t, "music", 3, 6_000)
	prof := BuildProfile(p, seed, plan, DefaultConfig())
	data, err := json.Marshal(prof)
	if err != nil {
		t.Fatal(err)
	}
	var back Profile
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.App != prof.App || back.TotalDyn != prof.TotalDyn || len(back.Entries) != len(prof.Entries) {
		t.Fatal("round trip lost top-level fields")
	}
	for i := range prof.Entries {
		if prof.Entries[i] != back.Entries[i] {
			t.Fatalf("entry %d: %+v != %+v", i, prof.Entries[i], back.Entries[i])
		}
	}
}

func TestChainKeyString(t *testing.T) {
	k := ChainKey{Func: 3, Block: 2, N: 3, Idx: [MaxChainLen]uint8{5, 7, 9}}
	if got := k.String(); got != "f3.b2[5,7,9]" {
		t.Errorf("String() = %q", got)
	}
}

func TestProfilingSubsetReducesCoverage(t *testing.T) {
	// Fig. 12b mechanism: profiling fewer windows finds fewer chains.
	p, seed, plan := sampledApp(t, "acrobat", 8, 8_000)
	full := BuildProfile(p, seed, plan, DefaultConfig())
	plan.Samples = 2
	part := BuildProfile(p, seed, plan, DefaultConfig())
	if part.UniqueChains() > full.UniqueChains() {
		t.Errorf("subset found more chains (%d) than full (%d)", part.UniqueChains(), full.UniqueChains())
	}
}
