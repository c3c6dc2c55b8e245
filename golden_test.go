package critics

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"critics/internal/fleet"
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
