package critics

import (
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// raceEnabled is set by race_test.go when the tests run under the race
// detector.
var raceEnabled bool

// timingLine matches the "[<id> in <t>s]" wall-time line criticsim -all
// prints after each experiment: the only part of its output that is not a
// pure function of the code.
var timingLine = regexp.MustCompile(`(?m)^  \[\S+ in [0-9.]+s\]$`)

// TestFullScaleOutputPinned runs full-scale `criticsim -all` and compares
// its output, wall-time lines left out, with results_full.txt: the file
// EXPERIMENTS.md quotes as the verbatim output at these settings. A change
// that moves a full-scale number must regenerate the file
// (go run ./cmd/criticsim -all > results_full.txt) and explain the diff.
func TestFullScaleOutputPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment at full scale; skipped in -short")
	}
	if raceEnabled {
		t.Skip("runs every experiment at full scale; skipped under the race detector")
	}
	bin := filepath.Join(t.TempDir(), "criticsim")
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/criticsim").CombinedOutput(); err != nil {
		t.Fatalf("building criticsim: %v\n%s", err, out)
	}
	got, err := exec.Command(bin, "-all").Output()
	if err != nil {
		t.Fatalf("criticsim -all: %v", err)
	}
	want, err := os.ReadFile("results_full.txt")
	if err != nil {
		t.Fatal(err)
	}
	g := strings.Split(timingLine.ReplaceAllString(string(got), ""), "\n")
	w := strings.Split(timingLine.ReplaceAllString(string(want), ""), "\n")
	for i := 0; i < max(len(g), len(w)); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			t.Fatalf("criticsim -all drifted from results_full.txt at line %d (timing lines left out):\n got: %q\nwant: %q", i+1, gl, wl)
		}
	}
}
