package critics

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"critics/internal/cpu"
	"critics/internal/exp"
	"critics/internal/fleet"
	"critics/internal/obs"
	"critics/internal/sched"
	"critics/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files with current output")

// checkGolden compares got against testdata/golden/<name>.golden, rewriting
// the file under -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name+".golden")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run go test -run TestGolden -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("output drifted from %s; if the change is intended, rerun with -update\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}

// TestGoldenExperiments pins the exact report text of the experiments
// cmd/criticsim prints (quick scale, fixed seeds), so output-format or
// result drift is visible in review rather than discovered downstream.
// The experiments run serially and with workers=8 against the same golden
// bytes — the determinism guarantee, exercised at the CLI-output level.
func TestGoldenExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment pipelines; skipped in -short")
	}
	for _, workers := range []int{1, 8} {
		sess := NewSession(WithQuickScale(), WithWorkers(workers))
		for _, id := range []string{"fig10a", "fig13a", "tab2"} {
			out, err := sess.Experiment(id)
			if err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			checkGolden(t, id, out)
		}
	}
}

// TestGoldenProfileJSON pins the serialized profile cmd/criticprof writes.
func TestGoldenProfileJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("profiling pipeline; skipped in -short")
	}
	prof, err := BuildProfile("acrobat", WithQuickScale())
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.MarshalIndent(prof, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "acrobat.profile.json", string(data)+"\n")
}

// TestGoldenCatalogProfiles pins the quick-plan profile of every catalog app,
// real and ideal, as the SHA-256 of its JSON: the profiler's byte identity
// across the whole catalog, not just the one profile pinned above.
func TestGoldenCatalogProfiles(t *testing.T) {
	if testing.Short() {
		t.Skip("profiles the whole catalog; skipped in -short")
	}
	ctx := NewSession(WithQuickScale()).Context()
	var b strings.Builder
	for _, set := range [][]workload.App{workload.MobileApps(), workload.SPECIntApps(), workload.SPECFloatApps()} {
		for _, a := range set {
			for _, ideal := range []bool{false, true} {
				data, err := json.Marshal(ctx.Profile(a, ideal, 1))
				if err != nil {
					t.Fatal(err)
				}
				fmt.Fprintf(&b, "%s ideal=%t %x\n", a.Params.Name, ideal, sha256.Sum256(data))
			}
		}
	}
	checkGolden(t, "catalog.profiles.sha256", b.String())
}

// TestGoldenDeviceSketches pins the wire bytes of fleet device sketches, as
// SHA-256 digests, for two apps, two devices and the first two rounds.
func TestGoldenDeviceSketches(t *testing.T) {
	var b strings.Builder
	for _, name := range []string{"acrobat", "maps"} {
		a, ok := workload.FindApp(name)
		if !ok {
			t.Fatalf("unknown app %q", name)
		}
		for _, dev := range []string{"device-000", "device-001"} {
			for round := 1; round <= 2; round++ {
				fmt.Fprintf(&b, "%s %s round=%d %x\n", name, dev, round, sha256.Sum256(fleet.BuildDeviceSketch(a, dev, round).Encode()))
			}
		}
	}
	checkGolden(t, "device.sketches.sha256", b.String())
}

// TestGoldenMemoKeys pins the memo keys a cached optimize job looks up
// (program, profile, CritIC variant, and the baseline and CritIC
// measurements on the Table I machine at quick scale) for every catalog app,
// as hex. Build span ids are addressed by these keys, so their bytes must
// not drift. The parts mirror exp.Context's Program, Profile, Variant and
// MeasureBatch; a cold acrobat run checks that its build spans carry the
// same keys.
func TestGoldenMemoKeys(t *testing.T) {
	c := NewSession(WithQuickScale()).Context()
	cfg := cpu.DefaultConfig()
	type shape struct {
		name, label string
		key         sched.Key
	}
	shapes := func(p workload.Params) []shape {
		meas := func(kind string) sched.Key {
			return sched.KeyOf("meas", p, kind, cfg, false,
				c.Seed, c.WarmupArch, c.WarmArch, c.MeasureArch, c.ProfilePlan, c.HighFanout)
		}
		return []shape{
			{"prog", "program " + p.Name, sched.KeyOf("prog", p)},
			{"prof", "profile " + p.Name, sched.KeyOf("prof", p, false, 1.0, c.ProfilePlan)},
			{"variant", "variant " + p.Name + "/" + exp.VarCritIC, sched.KeyOf("variant", p, exp.VarCritIC, c.ProfilePlan)},
			{"meas/base", "measure " + p.Name + "/" + exp.VarBase, meas(exp.VarBase)},
			{"meas/critic", "measure " + p.Name + "/" + exp.VarCritIC, meas(exp.VarCritIC)},
		}
	}
	var b strings.Builder
	for _, set := range [][]workload.App{workload.MobileApps(), workload.SPECIntApps(), workload.SPECFloatApps()} {
		for _, a := range set {
			for _, s := range shapes(a.Params) {
				fmt.Fprintf(&b, "%s %s %x\n", a.Params.Name, s.name, s.key)
			}
		}
	}
	checkGolden(t, "memo.keys", b.String())

	if testing.Short() {
		return
	}
	tr := obs.NewTrace("keys")
	if _, err := OptimizeAppContext(obs.ContextWith(context.Background(), tr, "compute"), "acrobat", WithQuickScale()); err != nil {
		t.Fatal(err)
	}
	spans, _ := tr.Snapshot()
	ids := map[string]bool{}
	for _, sp := range spans {
		ids[sp.ID] = true
	}
	a, _ := workload.FindApp("acrobat")
	for _, s := range shapes(a.Params) {
		if id := obs.BuildSpanID(s.label, hex.EncodeToString(s.key[:4])); !ids[id] {
			t.Errorf("%s: no build span %q in a cold acrobat run; the key parts above no longer match the pipeline's", s.name, id)
		}
	}
}
