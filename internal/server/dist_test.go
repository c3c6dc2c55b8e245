package server

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"critics/internal/dist"
	"critics/internal/obs"
	"critics/internal/telemetry"
)

// TestReadyzQueueSaturation: /readyz must flip to 503 while the admission
// queue is full — the signal load balancers use to stop routing before
// submissions start bouncing off 429s — and recover once the queue drains.
func TestReadyzQueueSaturation(t *testing.T) {
	started := make(chan struct{}, 4)
	release := make(chan struct{})
	cfg := stubConfig(func(ctx context.Context, _ SubmitRequest) ([]byte, error) {
		started <- struct{}{}
		select {
		case <-release:
		case <-ctx.Done():
		}
		return json.Marshal(Result{Text: "done"})
	})
	cfg.QueueSize = 1
	cfg.Workers = 1
	s, c := start(t, cfg)
	defer close(release)
	ctx := context.Background()

	readyz := func() int {
		t.Helper()
		resp, err := http.Get(c.base + "/readyz")
		if err != nil {
			t.Fatalf("GET /readyz: %v", err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := readyz(); got != http.StatusOK {
		t.Fatalf("/readyz idle = %d, want 200", got)
	}

	// One job executing (off the queue), one sitting in the queue: saturated.
	if _, err := c.Submit(ctx, SubmitRequest{App: "acrobat", Quick: true}); err != nil {
		t.Fatalf("submit 1: %v", err)
	}
	<-started
	st2, err := c.Submit(ctx, SubmitRequest{App: "email", Quick: true})
	if err != nil {
		t.Fatalf("submit 2: %v", err)
	}
	if got := readyz(); got != http.StatusServiceUnavailable {
		t.Fatalf("/readyz with saturated queue = %d, want 503", got)
	}

	// Draining the queue restores readiness.
	release <- struct{}{}
	release <- struct{}{}
	if _, err := c.Wait(ctx, st2.ID, 10*time.Second); err != nil {
		t.Fatalf("wait: %v", err)
	}
	if got := readyz(); got != http.StatusOK {
		t.Fatalf("/readyz after drain = %d, want 200", got)
	}
	_ = s
}

// TestDistributedJob wires a coordinator with one real worker into the
// daemon and runs an optimize job through it: the job must succeed, its
// measurement units must have gone over the wire, and the fleet endpoints
// must be reachable through the daemon's mux.
func TestDistributedJob(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the real pipeline")
	}
	wk := dist.NewWorker(dist.WorkerConfig{})
	wsrv := httptest.NewServer(wk.Handler())
	defer wsrv.Close()

	reg := telemetry.NewRegistry()
	coord := dist.NewCoordinator(dist.Config{Registry: reg, RetryBackoff: 5 * time.Millisecond})
	defer coord.Close()
	coord.AddWorkerCapacity(wsrv.URL, 2)

	_, c := start(t, Config{QueueSize: 4, Workers: 1, JobWorkers: 2, Registry: reg, Coordinator: coord})
	ctx := context.Background()

	ws, err := c.DistWorkers(ctx)
	if err != nil {
		t.Fatalf("DistWorkers: %v", err)
	}
	if len(ws) != 1 || !ws[0].Healthy {
		t.Fatalf("fleet = %+v, want one healthy worker", ws)
	}

	st, err := c.Submit(ctx, SubmitRequest{App: "acrobat", Quick: true, Workers: 2})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	st, err = c.Wait(ctx, st.ID, 2*time.Minute)
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	if st.State != StateSucceeded {
		t.Fatalf("job ended %s: %s", st.State, st.Error)
	}

	dispatched := reg.Counter("critics_dist_tasks_dispatched_total", "").Value()
	if dispatched == 0 {
		t.Error("no tasks dispatched; the job ran purely locally despite a healthy fleet")
	}
}

// TestDistWorkersWithoutCoordinator: a daemon without distribution answers
// 404 on the fleet endpoints.
func TestDistWorkersWithoutCoordinator(t *testing.T) {
	_, c := start(t, stubConfig(echoStub))
	if _, err := c.DistWorkers(context.Background()); err == nil {
		t.Fatal("DistWorkers succeeded against a coordinator-less daemon, want 404")
	}
}

// failFirstTask wraps a worker's handler so that its first task is answered
// with a 500: a transient failure, which sends the coordinator's dispatch
// down its retry path onto another worker.
func failFirstTask(h http.Handler) http.Handler {
	var failed atomic.Bool
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && r.URL.Path == dist.TaskPath && failed.CompareAndSwap(false, true) {
			writeErr(w, http.StatusInternalServerError, "injected failure", true)
			return
		}
		h.ServeHTTP(w, r)
	})
}

// TestDistributedTrace: two workers, one answering its first task with an
// injected 500, one job. The job's trace must contain a retry dispatch leg
// (the coordinator routed the failed task to the healthy worker) and merged
// worker-side spans carrying the worker's URL as their site; its flight
// record holds the retried event, its Chrome export parses, and generous
// SLO targets hold.
func TestDistributedTrace(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the real pipeline")
	}
	bad := dist.NewWorker(dist.WorkerConfig{})
	badSrv := httptest.NewServer(failFirstTask(bad.Handler()))
	defer badSrv.Close()
	good := dist.NewWorker(dist.WorkerConfig{})
	goodSrv := httptest.NewServer(good.Handler())
	defer goodSrv.Close()

	reg := telemetry.NewRegistry()
	coord := dist.NewCoordinator(dist.Config{Registry: reg, RetryBackoff: 5 * time.Millisecond})
	defer coord.Close()
	// The failing worker registers first: deterministic tie-breaks route the
	// first task to it, so the injected failure (and its retry) always fires.
	coord.AddWorkerCapacity(badSrv.URL, 2)
	coord.AddWorkerCapacity(goodSrv.URL, 2)

	_, c := start(t, Config{QueueSize: 4, Workers: 1, JobWorkers: 1, Registry: reg, Coordinator: coord})
	ctx := context.Background()

	st, err := c.Submit(ctx, SubmitRequest{App: "acrobat", Quick: true, Workers: 1})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	st, err = c.Wait(ctx, st.ID, 2*time.Minute)
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	if st.State != StateSucceeded {
		t.Fatalf("job ended %s: %s", st.State, st.Error)
	}

	raw, err := c.Trace(ctx, st.ID, "")
	if err != nil {
		t.Fatalf("trace: %v", err)
	}
	var names, sites []string
	var walk func(ns []*obs.Node)
	walk = func(ns []*obs.Node) {
		for _, n := range ns {
			names = append(names, n.Name)
			if n.Site != "" {
				sites = append(sites, n.Site)
			}
			walk(n.Children)
		}
	}
	var doc obs.TraceDoc
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace decode: %v", err)
	}
	walk(doc.Spans)
	has := func(want string) bool {
		for _, n := range names {
			if n == want {
				return true
			}
		}
		return false
	}
	if !has("dispatch") {
		t.Fatalf("no dispatch span in trace: %v", names)
	}
	if !has("retry") {
		t.Fatalf("no retry span in trace despite the injected failure: %v", names)
	}
	if !has("remote-compute") {
		t.Fatalf("no merged remote-compute span in trace: %v", names)
	}
	if len(sites) == 0 {
		t.Fatal("no span carries a worker site")
	}

	// The retried event must be on the job's flight record too.
	evRaw, err := c.Events(ctx, st.ID)
	if err != nil {
		t.Fatalf("events: %v", err)
	}
	var evs EventsResponse
	if err := json.Unmarshal(evRaw, &evs); err != nil {
		t.Fatalf("events decode: %v", err)
	}
	sawRetry := false
	for _, e := range evs.Events {
		if e.Type == obs.EvRetried {
			sawRetry = true
		}
	}
	if !sawRetry {
		t.Fatalf("no retried event in flight record: %+v", evs.Events)
	}

	// The Chrome export of the trace parses, and generous SLO targets hold
	// over the stage histograms the job recorded.
	if chrome, err := c.Trace(ctx, st.ID, "chrome"); err != nil || !json.Valid(chrome) {
		t.Errorf("Chrome trace export: %v, valid JSON %v", err, json.Valid(chrome))
	}
	metrics, err := c.MetricsText(ctx)
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	var targets []obs.Target
	for _, s := range []string{"queue_wait:p99<=2m", "dispatch_rtt:p99<=5m", "compute:p99<=10m", "e2e:p99<=10m"} {
		tg, err := obs.ParseTarget(s)
		if err != nil {
			t.Fatal(err)
		}
		targets = append(targets, tg)
	}
	if v, err := obs.Evaluate(targets, obs.ParseStageHistograms(metrics, obs.SLOFamily, "stage")); err != nil || len(v) > 0 {
		t.Errorf("SLO targets: violations %v, err %v", v, err)
	}
}
