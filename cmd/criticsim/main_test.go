package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"critics/internal/telemetry"
)

// raceEnabled is set by race_test.go when the tests run under the race
// detector.
var raceEnabled bool

// criticsim runs criticsim's run with args and returns its exit code,
// stdout and stderr.
func criticsim(args ...string) (int, string, string) {
	var stdout, stderr bytes.Buffer
	code := run(context.Background(), args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// chromeEvent is the part of a Chrome trace event the trace tests read.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Pid  int            `json:"pid"`
	Args map[string]any `json:"args"`
}

// readChrome decodes the Chrome trace-event JSON document at path.
func readChrome(t *testing.T, path string) []chromeEvent {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("not a Chrome trace-event document: %v", err)
	}
	return doc.TraceEvents
}

// engineSpans counts the engine-track complete events whose id starts with
// prefix.
func engineSpans(evs []chromeEvent, prefix string) int {
	n := 0
	for _, e := range evs {
		if id, _ := e.Args["id"].(string); e.Pid == telemetry.EnginePID && e.Ph == "X" && strings.HasPrefix(id, prefix) {
			n++
		}
	}
	return n
}

// cacheMisses matches a -cache-stats line's miss count.
var cacheMisses = regexp.MustCompile(`(?m)^  \w+: +\d+ hits, (\d+) misses`)

// TestCriticsimTraceOut: `criticsim -exp ... -trace-out` writes a Chrome
// document with one span for the experiment and one build span per memo
// miss that -cache-stats reports.
func TestCriticsimTraceOut(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fig5a.json")
	code, out, stderr := criticsim("-exp", "fig5a", "-quick", "-cache-stats", "-trace-out", path)
	if code != 0 {
		t.Fatalf("criticsim exited %d: %s", code, stderr)
	}
	misses := 0
	for _, m := range cacheMisses.FindAllStringSubmatch(out, -1) {
		n, _ := strconv.Atoi(m[1])
		misses += n
	}
	evs := readChrome(t, path)
	if n := engineSpans(evs, "exp:"); n != 1 || engineSpans(evs, "exp:fig5a") != 1 {
		t.Errorf("%d experiment spans, want exactly one exp:fig5a", n)
	}
	if builds := engineSpans(evs, "b:"); builds != misses || misses == 0 {
		t.Errorf("%d build spans, want one per memo miss -cache-stats reports (%d)", builds, misses)
	}
}

// TestAppTraceOut: `criticsim -app ... -trace-out -v`, the Chrome trace
// artifact CI uploads, writes a document that parses and holds events.
func TestAppTraceOut(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace-acrobat.json")
	if code, _, stderr := criticsim("-app", "acrobat", "-quick", "-trace-out", path, "-v"); code != 0 {
		t.Fatalf("criticsim exited %d: %s", code, stderr)
	}
	if evs := readChrome(t, path); len(evs) == 0 {
		t.Fatal("trace document holds no events")
	}
}

// TestFigFrontendGrid: fig-frontend prints every cell of its L1I policy x
// code layout grid, and the sweep reaches the simulator: the reference row
// pins zero deltas, and at least one other row does not. The numeric
// acceptance lives in internal/exp's TestFigFrontend.
func TestFigFrontendGrid(t *testing.T) {
	code, out, stderr := criticsim("-exp", "fig-frontend", "-quick")
	if code != 0 {
		t.Fatalf("criticsim exited %d: %s", code, stderr)
	}
	for _, pol := range []string{"lru", "srrip", "trrip"} {
		for _, lay := range []string{"none", "c3"} {
			if !regexp.MustCompile(`(?m)^  ` + pol + ` +` + lay + ` `).MatchString(out) {
				t.Errorf("missing cell %s/%s in:\n%s", pol, lay, out)
			}
		}
	}
	if n := len(regexp.MustCompile(`(?m) 0\.00 +0\.00 .*$`).FindAllString(out, -1)); n >= 6 {
		t.Errorf("%d rows with zero deltas, want fewer than 6:\n%s", n, out)
	}
}

// TestFrontendFlags: -l1i-policy and -code-layout reach the single-app
// pipeline, and an unknown policy fails with the valid names.
func TestFrontendFlags(t *testing.T) {
	code, out, stderr := criticsim("-app", "acrobat", "-quick", "-l1i-policy", "trrip", "-code-layout", "c3")
	if code != 0 || !strings.Contains(out, "speedup:") {
		t.Fatalf("criticsim exited %d, stdout:\n%s\nstderr:\n%s", code, out, stderr)
	}
	code, _, stderr = criticsim("-app", "acrobat", "-quick", "-l1i-policy", "bogus")
	if code == 0 || !strings.Contains(stderr, "unknown L1I policy") {
		t.Fatalf("bogus policy: exit %d, stderr %q", code, stderr)
	}
}

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
	code, got, stderr := criticsim("-all")
	if code != 0 {
		t.Fatalf("criticsim -all exited %d: %s", code, stderr)
	}
	want, err := os.ReadFile("../../results_full.txt")
	if err != nil {
		t.Fatal(err)
	}
	g := strings.Split(timingLine.ReplaceAllString(got, ""), "\n")
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
