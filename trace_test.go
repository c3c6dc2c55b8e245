package critics

import (
	"bytes"
	"encoding/json"
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
