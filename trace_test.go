package critics

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"critics/internal/telemetry"
)

// chromeEvent is the part of a Chrome trace event the trace tests read.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Pid  int            `json:"pid"`
	Args map[string]any `json:"args"`
}

// parseChrome decodes a Chrome trace-event JSON document.
func parseChrome(t *testing.T, raw []byte) []chromeEvent {
	t.Helper()
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

// TestTraceAppDocument: TraceApp's document parses, carries the baseline
// and CritIC pipeline tracks, and holds one engine build span per memo miss.
func TestTraceAppDocument(t *testing.T) {
	sc := NewSharedCaches()
	var buf bytes.Buffer
	if _, err := TraceApp("acrobat", &buf, WithQuickScale(), WithSharedCaches(sc)); err != nil {
		t.Fatal(err)
	}
	evs := parseChrome(t, buf.Bytes())
	pids := map[int]int{}
	for _, e := range evs {
		pids[e.Pid]++
	}
	if pids[baselinePID] == 0 || pids[criticPID] == 0 {
		t.Errorf("events per pid %v: want both pipeline tracks (pids %d and %d)", pids, baselinePID, criticPID)
	}
	st := sc.Stats()
	misses := st.Programs.Misses + st.Profiles.Misses + st.Variants.Misses + st.Measurements.Misses
	if builds := engineSpans(evs, "b:"); int64(builds) != misses || misses == 0 {
		t.Errorf("%d engine build spans, want one per memo miss (%d)", builds, misses)
	}
}

// cacheMisses matches a -cache-stats line's miss count.
var cacheMisses = regexp.MustCompile(`(?m)^  \w+: +\d+ hits, (\d+) misses`)

// TestCriticsimTraceOut: `criticsim -exp ... -trace-out` writes a Chrome
// document with one span for the experiment and one build span per memo
// miss that -cache-stats reports.
func TestCriticsimTraceOut(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs criticsim; skipped in -short")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "criticsim")
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/criticsim").CombinedOutput(); err != nil {
		t.Fatalf("building criticsim: %v\n%s", err, out)
	}
	path := filepath.Join(dir, "fig5a.json")
	out, err := exec.Command(bin, "-exp", "fig5a", "-quick", "-cache-stats", "-trace-out", path).Output()
	if err != nil {
		t.Fatalf("criticsim: %v", err)
	}
	misses := 0
	for _, m := range cacheMisses.FindAllStringSubmatch(string(out), -1) {
		n, _ := strconv.Atoi(m[1])
		misses += n
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	evs := parseChrome(t, raw)
	if n := engineSpans(evs, "exp:"); n != 1 || engineSpans(evs, "exp:fig5a") != 1 {
		t.Errorf("%d experiment spans, want exactly one exp:fig5a", n)
	}
	if builds := engineSpans(evs, "b:"); builds != misses || misses == 0 {
		t.Errorf("%d build spans, want one per memo miss -cache-stats reports (%d)", builds, misses)
	}
}
