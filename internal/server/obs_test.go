package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"critics/internal/obs"
	"critics/internal/telemetry"
)

// submitAndWait runs one stubbed job to a terminal state.
func submitAndWait(t *testing.T, c *Client, req SubmitRequest) JobStatus {
	t.Helper()
	ctx := context.Background()
	st, err := c.Submit(ctx, req)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	st, err = c.Wait(ctx, st.ID, 10*time.Second)
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	return st
}

// TestJobTrace checks the tentpole path end to end on the stub executor: a
// job yields a trace rooted at "job" with "queue" and "compute" children,
// retrievable as both the JSON tree and a Chrome export, and the flight
// recorder holds its lifecycle events.
func TestJobTrace(t *testing.T) {
	_, c := start(t, stubConfig(echoStub))
	st := submitAndWait(t, c, SubmitRequest{Kind: KindOptimize, App: "acrobat"})
	if st.State != StateSucceeded {
		t.Fatalf("job ended %s: %s", st.State, st.Error)
	}

	raw, err := c.Trace(context.Background(), st.ID, "")
	if err != nil {
		t.Fatalf("trace: %v", err)
	}
	var doc obs.TraceDoc
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace decode: %v", err)
	}
	if doc.TraceID != st.ID {
		t.Fatalf("trace id %q, want %q", doc.TraceID, st.ID)
	}
	if len(doc.Spans) != 1 || doc.Spans[0].ID != "job" {
		t.Fatalf("want single root span \"job\", got %+v", doc.Spans)
	}
	kids := map[string]bool{}
	for _, n := range doc.Spans[0].Children {
		kids[n.ID] = true
	}
	if !kids["queue"] || !kids["compute"] {
		t.Fatalf("job children %v, want queue and compute", kids)
	}

	chrome, err := c.Trace(context.Background(), st.ID, "chrome")
	if err != nil {
		t.Fatalf("chrome trace: %v", err)
	}
	var export struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(chrome, &export); err != nil {
		t.Fatalf("chrome export is not valid trace-event JSON: %v", err)
	}
	if len(export.TraceEvents) < 4 { // process meta + job/queue/compute
		t.Fatalf("chrome export has %d events", len(export.TraceEvents))
	}

	ev, err := c.Events(context.Background(), st.ID)
	if err != nil {
		t.Fatalf("events: %v", err)
	}
	var resp EventsResponse
	if err := json.Unmarshal(ev, &resp); err != nil {
		t.Fatalf("events decode: %v", err)
	}
	types := map[string]bool{}
	for _, e := range resp.Events {
		if e.Job != st.ID {
			t.Fatalf("event for job %q leaked into filter for %q", e.Job, st.ID)
		}
		types[e.Type] = true
	}
	for _, want := range []string{obs.EvAdmitted, obs.EvDequeued, obs.EvCompleted} {
		if !types[want] {
			t.Fatalf("event types %v missing %q", types, want)
		}
	}
}

// TestTerminalJobHasRootSpan: a job's root span is on its trace as soon as
// any reader can see the job terminal. The test holds the job table lock,
// which the worker takes again only after the job has turned terminal, and
// reads the job's trace in that window.
func TestTerminalJobHasRootSpan(t *testing.T) {
	started, release := make(chan struct{}), make(chan struct{})
	s, c := start(t, stubConfig(func(ctx context.Context, req SubmitRequest) ([]byte, error) {
		close(started)
		<-release
		return echoStub(ctx, req)
	}))
	st, err := c.Submit(context.Background(), SubmitRequest{Kind: KindOptimize, App: "acrobat"})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	<-started

	root, terminal := func() (root, terminal bool) {
		s.mu.Lock()
		defer s.mu.Unlock()
		j := s.jobs[st.ID]
		close(release)
		for deadline := time.Now().Add(10 * time.Second); !j.terminal(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				return false, false
			}
		}
		spans, _ := s.obsv.Rec.Get(st.ID).Snapshot()
		for _, sp := range spans {
			root = root || sp.ID == "job"
		}
		return root, true
	}()
	if !terminal {
		t.Fatal("job did not turn terminal while the job table was locked")
	}
	if !root {
		t.Fatal("job turned terminal before its root span was on its trace")
	}
}

// TestTraceUnknownJob pins the 404s: unknown job ids and (separately) jobs
// whose trace was evicted.
func TestTraceUnknownJob(t *testing.T) {
	_, c := start(t, stubConfig(echoStub))
	_, err := c.Trace(context.Background(), "j999999", "")
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Code != 404 {
		t.Fatalf("want 404 APIError, got %v", err)
	}
}

// TestFailedJobEvents checks the failure path: the terminal event is
// "failed" and carries the error detail.
func TestFailedJobEvents(t *testing.T) {
	_, c := start(t, stubConfig(func(context.Context, SubmitRequest) ([]byte, error) {
		return nil, errors.New("boom")
	}))
	st := submitAndWait(t, c, SubmitRequest{Kind: KindOptimize, App: "acrobat"})
	if st.State != StateFailed {
		t.Fatalf("job ended %s, want failed", st.State)
	}
	ev, err := c.Events(context.Background(), st.ID)
	if err != nil {
		t.Fatalf("events: %v", err)
	}
	var resp EventsResponse
	if err := json.Unmarshal(ev, &resp); err != nil {
		t.Fatalf("events decode: %v", err)
	}
	found := false
	for _, e := range resp.Events {
		if e.Type == obs.EvFailed && strings.Contains(e.Detail, "boom") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no failed event with detail in %+v", resp.Events)
	}
}

// TestSLOStagesExposed checks the satellite chain server → registry →
// exposition → obs parser: after a job, /metrics carries the stage
// histograms with the job id as an exemplar, and criticctl slo's evaluation
// path accepts them.
func TestSLOStagesExposed(t *testing.T) {
	_, c := start(t, stubConfig(echoStub))
	st := submitAndWait(t, c, SubmitRequest{Kind: KindOptimize, App: "acrobat"})

	text, err := c.MetricsText(context.Background())
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	stages := obs.ParseStageHistograms(text, obs.SLOFamily, "stage")
	for _, want := range []string{obs.StageQueueWait, obs.StageCompute, obs.StageE2E} {
		cdf := stages[want]
		if cdf == nil || cdf.Count() == 0 {
			t.Fatalf("stage %q missing from exposition:\n%s", want, text)
		}
	}
	if !strings.Contains(text, `trace_id="`+st.ID+`"`) {
		t.Fatalf("no exemplar with job id %s in exposition", st.ID)
	}

	target, err := obs.ParseTarget("e2e:p99<=10m")
	if err != nil {
		t.Fatalf("parse target: %v", err)
	}
	violations, err := obs.Evaluate([]obs.Target{target}, stages)
	if err != nil {
		t.Fatalf("evaluate: %v", err)
	}
	if len(violations) != 0 {
		t.Fatalf("generous target violated: %v", violations)
	}
	tight, _ := obs.ParseTarget("e2e:p50<=1ns")
	violations, err = obs.Evaluate([]obs.Target{tight}, stages)
	if err != nil || len(violations) != 1 {
		t.Fatalf("1ns target: violations=%v err=%v", violations, err)
	}
}

// TestBuildInfoGauge checks criticd's registry carries the build-info gauge
// once RegisterBuildInfo ran (as cmd/criticd does).
func TestBuildInfoGauge(t *testing.T) {
	reg := telemetry.NewRegistry()
	telemetry.RegisterBuildInfo(reg, "criticd")
	_, c := start(t, func() Config {
		cfg := stubConfig(echoStub)
		cfg.Registry = reg
		return cfg
	}())
	text, err := c.MetricsText(context.Background())
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	if v, ok := obs.MetricValue(text, "critics_build_info", map[string]string{"component": "criticd"}); !ok || v != 1 {
		t.Fatalf("critics_build_info{component=criticd} = %v %v, want 1", v, ok)
	}
}

// chromeEvent is the part of a Chrome trace event the export tests read.
type chromeEvent struct {
	Ph   string         `json:"ph"`
	Pid  int            `json:"pid"`
	TS   int64          `json:"ts"`
	Dur  int64          `json:"dur"`
	Args map[string]any `json:"args"`
}

// chromeEvents decodes a Chrome trace-event JSON document.
func chromeEvents(t *testing.T, raw []byte) []chromeEvent {
	t.Helper()
	var doc struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("not a Chrome trace-event document: %v", err)
	}
	return doc.TraceEvents
}

// spansOf returns the complete events a job's trace contributed, by span id.
func spansOf(evs []chromeEvent, job string) map[string]chromeEvent {
	out := map[string]chromeEvent{}
	for _, e := range evs {
		if id, _ := e.Args["id"].(string); e.Ph == "X" && e.Args["trace"] == job {
			out[id] = e
		}
	}
	return out
}

// buildIDs returns the memo build span ids ("b:…") among ids.
func buildIDs[V any](ids map[string]V) []string {
	var out []string
	for id := range ids {
		if strings.HasPrefix(id, "b:") {
			out = append(out, id)
		}
	}
	slices.Sort(out)
	return out
}

// TestTraceJobResult: a served trace job's Result.Trace carries the baseline
// and CritIC pipeline tracks and the job's own build spans — the ones its job
// trace holds.
func TestTraceJobResult(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the real pipeline")
	}
	_, c := start(t, Config{QueueSize: 4, Workers: 1, QuickScale: true})
	ctx := context.Background()
	st, err := c.Submit(ctx, SubmitRequest{Kind: KindTrace, App: "acrobat"})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if st, err = c.Wait(ctx, st.ID, time.Minute); err != nil || st.State != StateSucceeded {
		t.Fatalf("trace job: %v %s %s", err, st.State, st.Error)
	}
	raw, err := c.Result(ctx, st.ID)
	if err != nil {
		t.Fatalf("result: %v", err)
	}
	var res struct {
		Trace json.RawMessage `json:"trace"`
	}
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatalf("result decode: %v", err)
	}
	evs := chromeEvents(t, res.Trace)
	pids := map[int]int{}
	for _, e := range evs {
		pids[e.Pid]++
	}
	if pids[10] == 0 || pids[11] == 0 { // critics.TraceApp's baseline and CritIC tracks
		t.Errorf("events per pid %v: want both pipeline tracks (pids 10 and 11)", pids)
	}

	tree, err := c.Trace(ctx, st.ID, "")
	if err != nil {
		t.Fatalf("trace: %v", err)
	}
	var doc obs.TraceDoc
	if err := json.Unmarshal(tree, &doc); err != nil {
		t.Fatalf("trace decode: %v", err)
	}
	traced := map[string]bool{}
	var walk func(ns []*obs.Node)
	walk = func(ns []*obs.Node) {
		for _, n := range ns {
			traced[n.ID] = true
			walk(n.Children)
		}
	}
	walk(doc.Spans)
	got, want := buildIDs(spansOf(evs, st.ID)), buildIDs(traced)
	if len(want) == 0 || !slices.Equal(got, want) {
		t.Errorf("Result.Trace build spans %v, want the job trace's %v", got, want)
	}
}

// TestConfigTracerGetsFinishedJobs: Config.Tracer receives each finished
// job's spans on the tracer's clock. After Shutdown and Close the one
// document holds both jobs' compute and build spans, each job's spans
// inside its job span, which starts after the tracer did.
func TestConfigTracerGetsFinishedJobs(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the real pipeline")
	}
	var buf bytes.Buffer
	tr := telemetry.NewTracer(&buf)
	s := New(Config{QueueSize: 4, Workers: 2, QuickScale: true, Tracer: tr})
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()
	c := NewClient(hs.URL)
	ctx := context.Background()
	var ids []string
	for _, app := range []string{"acrobat", "maps"} {
		st, err := c.Submit(ctx, SubmitRequest{Kind: KindProfile, App: app})
		if err != nil {
			t.Fatalf("submit %s: %v", app, err)
		}
		ids = append(ids, st.ID)
	}
	for _, id := range ids {
		if st, err := c.Wait(ctx, id, time.Minute); err != nil || st.State != StateSucceeded {
			t.Fatalf("job %s: %v %s %s", id, err, st.State, st.Error)
		}
	}
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := tr.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	evs := chromeEvents(t, buf.Bytes())
	for _, id := range ids {
		spans := spansOf(evs, id)
		job, ok := spans["job"]
		if !ok || job.TS <= 0 {
			t.Fatalf("job %s: root span %+v (present %v), want one starting after the tracer", id, job, ok)
		}
		if _, ok := spans["compute"]; !ok || len(buildIDs(spans)) == 0 {
			t.Errorf("job %s: spans %v, want compute and build spans", id, spans)
		}
		for sid, e := range spans {
			if e.TS < job.TS || e.TS+e.Dur > job.TS+job.Dur {
				t.Errorf("job %s: span %s [%d, +%d] outside its job span [%d, +%d]", id, sid, e.TS, e.Dur, job.TS, job.Dur)
			}
		}
	}
}
