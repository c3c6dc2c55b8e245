package dist

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"critics/internal/cpu"
	"critics/internal/exp"
	"critics/internal/telemetry"
)

// stubWorker is a scriptable fake fleet member: a canned TaskResult, an
// optional per-request failure hook, and a togglable /readyz.
type stubWorker struct {
	srv      *httptest.Server
	ready    atomic.Bool
	tasks    atomic.Int64
	respond  func(w http.ResponseWriter, r *http.Request) bool // true = handled
	taskSecs time.Duration
}

func newStubWorker(t *testing.T) *stubWorker {
	t.Helper()
	s := &stubWorker{}
	s.ready.Store(true)
	mux := http.NewServeMux()
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, _ *http.Request) {
		if s.ready.Load() {
			w.WriteHeader(http.StatusOK)
		} else {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
	})
	mux.HandleFunc("POST "+TaskPath, func(w http.ResponseWriter, r *http.Request) {
		s.tasks.Add(1)
		if s.respond != nil && s.respond(w, r) {
			return
		}
		if s.taskSecs > 0 {
			select {
			case <-time.After(s.taskSecs):
			case <-r.Context().Done():
				return
			}
		}
		writeJSON(w, http.StatusOK, TaskResult{Meas: []*exp.Measurement{{Res: cpu.Result{Cycles: 42, Instrs: 7}}}})
	})
	s.srv = httptest.NewServer(mux)
	t.Cleanup(s.srv.Close)
	return s
}

// testConfig returns a coordinator config with fast timeouts, hedging off
// unless a test turns it on, and metrics attached.
func testConfig(reg *telemetry.Registry) Config {
	return Config{
		TaskTimeout:  5 * time.Second,
		MaxAttempts:  3,
		RetryBackoff: 5 * time.Millisecond,
		HedgeDelay:   -1, // off
		Heartbeat:    25 * time.Millisecond,
		Registry:     reg,
	}
}

func measureReq() exp.MeasureRequest {
	return exp.MeasureRequest{Kind: "base", Configs: []cpu.Config{cpu.DefaultConfig()}, Seed: 1}
}

func TestRegistrationAndHeartbeatHealth(t *testing.T) {
	w := newStubWorker(t)
	c := NewCoordinator(testConfig(telemetry.NewRegistry()))
	defer c.Close()

	c.AddWorkerCapacity(w.srv.URL, 2)
	if got := c.HealthyWorkers(); got != 1 {
		t.Fatalf("HealthyWorkers = %d, want 1", got)
	}
	ws := c.Workers()
	if len(ws) != 1 || ws[0].URL != w.srv.URL || !ws[0].Healthy || ws[0].Capacity != 2 {
		t.Fatalf("Workers() = %+v", ws)
	}

	// Flip readiness off: two consecutive probe failures mark it
	// unhealthy.
	w.ready.Store(false)
	waitFor(t, "worker marked unhealthy", func() bool { return c.HealthyWorkers() == 0 })

	// And back: a single good probe restores it.
	w.ready.Store(true)
	waitFor(t, "worker healthy again", func() bool { return c.HealthyWorkers() == 1 })

	c.RemoveWorker(w.srv.URL)
	if got := len(c.Workers()); got != 0 {
		t.Fatalf("after RemoveWorker: %d workers", got)
	}
}

func TestRegistrationHandler(t *testing.T) {
	w := newStubWorker(t)
	c := NewCoordinator(testConfig(nil))
	defer c.Close()
	coord := httptest.NewServer(c.Handler())
	defer coord.Close()

	if err := Register(context.Background(), nil, coord.URL, w.srv.URL, 3); err != nil {
		t.Fatalf("Register: %v", err)
	}
	resp, err := http.Get(coord.URL + WorkersPath)
	if err != nil {
		t.Fatalf("GET workers: %v", err)
	}
	var wr WorkersResponse
	if err := json.NewDecoder(resp.Body).Decode(&wr); err != nil {
		t.Fatalf("decode workers: %v", err)
	}
	resp.Body.Close()
	if len(wr.Workers) != 1 || wr.Workers[0].Capacity != 3 || !wr.Workers[0].Healthy {
		t.Fatalf("workers response = %+v", wr)
	}

	if err := Deregister(context.Background(), nil, coord.URL, w.srv.URL); err != nil {
		t.Fatalf("Deregister: %v", err)
	}
	if got := len(c.Workers()); got != 0 {
		t.Fatalf("after deregister: %d workers", got)
	}
}

// TestRetryOntoDifferentWorker is the killed-worker fault drill: the first
// registered worker answers 500 to every task, and the dispatcher must retry
// the task onto the second worker instead of failing the job.
func TestRetryOntoDifferentWorker(t *testing.T) {
	bad := newStubWorker(t)
	bad.respond = func(w http.ResponseWriter, _ *http.Request) bool {
		writeJSON(w, http.StatusInternalServerError, errorBody{Error: "injected"})
		return true
	}
	good := newStubWorker(t)

	reg := telemetry.NewRegistry()
	cfg := testConfig(reg)
	cfg.Heartbeat = time.Hour // no re-probe: the health flip below must come from the dispatch path
	c := NewCoordinator(cfg)
	defer c.Close()
	c.AddWorker(bad.srv.URL) // seq 0: deterministic first pick when idle
	c.AddWorker(good.srv.URL)

	ms, err := c.MeasureRemote(context.Background(), measureReq())
	if err != nil {
		t.Fatalf("MeasureRemote: %v", err)
	}
	if ms[0].Res.Cycles != 42 {
		t.Fatalf("Cycles = %d, want 42 (from the healthy worker)", ms[0].Res.Cycles)
	}
	if bad.tasks.Load() != 1 || good.tasks.Load() != 1 {
		t.Fatalf("task counts bad=%d good=%d, want 1 and 1", bad.tasks.Load(), good.tasks.Load())
	}
	if got := c.met.retried.Value(); got != 1 {
		t.Fatalf("retried counter = %d, want 1", got)
	}
	// The transient failure marks the bad worker unhealthy immediately.
	ws := c.Workers()
	if ws[0].Healthy || ws[0].Failures != 1 {
		t.Fatalf("bad worker state = %+v, want unhealthy with 1 failure", ws[0])
	}
}

// TestPickWorkerReservesSlot: a pick reserves the chosen worker's task slot
// under the fleet lock, so two tasks dispatched together (no post between
// their picks) go to different idle workers, and post gives the slot back on
// every path, the early error returns included.
func TestPickWorkerReservesSlot(t *testing.T) {
	w1, w2 := newStubWorker(t), newStubWorker(t)
	c := NewCoordinator(testConfig(telemetry.NewRegistry()))
	defer c.Close()
	c.AddWorker(w1.srv.URL)
	c.AddWorker(w2.srv.URL)

	a, b := c.pickWorker(nil), c.pickWorker(nil)
	if a == nil || b == nil {
		t.Fatal("no healthy worker picked")
	}
	if a == b {
		t.Fatalf("both picks chose %s: the first pick's slot was not reserved", a.url)
	}
	for _, w := range []*workerState{a, b} {
		if _, err := c.post(context.Background(), w, Task{Req: measureReq()}, "", ""); err != nil {
			t.Fatalf("post to %s: %v", w.url, err)
		}
	}
	for _, ws := range c.Workers() {
		if ws.Inflight != 0 || ws.TasksDone != 1 {
			t.Fatalf("worker %s: %d in flight and %d done after its post, want 0 and 1", ws.URL, ws.Inflight, ws.TasksDone)
		}
	}

	// A URL the request cannot be built from fails before anything is sent.
	bad := &workerState{url: "http://bad host"}
	bad.addInflight(1)
	if _, err := c.post(context.Background(), bad, Task{Req: measureReq()}, "", ""); err == nil {
		t.Fatal("post to an unparsable URL succeeded")
	}
	if n := bad.inflightN.Load(); n != 0 {
		t.Fatalf("%d slots still reserved after an early post error, want 0", n)
	}
}

// TestPermanentErrorNotRetried: a 4xx task response means the request itself
// is bad; dispatch must not burn attempts on other workers.
func TestPermanentErrorNotRetried(t *testing.T) {
	bad := newStubWorker(t)
	bad.respond = func(w http.ResponseWriter, _ *http.Request) bool {
		writeJSON(w, http.StatusUnprocessableEntity, errorBody{Error: "unknown kind"})
		return true
	}
	other := newStubWorker(t)

	c := NewCoordinator(testConfig(telemetry.NewRegistry()))
	defer c.Close()
	c.AddWorker(bad.srv.URL)
	c.AddWorker(other.srv.URL)

	if _, err := c.MeasureRemote(context.Background(), measureReq()); err == nil {
		t.Fatal("MeasureRemote succeeded, want permanent error")
	}
	if got := other.tasks.Load(); got != 0 {
		t.Fatalf("second worker saw %d tasks, want 0 (permanent errors must not retry)", got)
	}
	// Permanent failures don't impugn the worker's health.
	if got := c.HealthyWorkers(); got != 2 {
		t.Fatalf("HealthyWorkers = %d, want 2", got)
	}
}

// TestRefusedRequestIsBadTask: a request the pipeline refuses (a 0-way L1I,
// no configs) would be refused by every worker, so it fails after one
// dispatch and leaves the worker that refused it healthy.
func TestRefusedRequestIsBadTask(t *testing.T) {
	cfg := testConfig(telemetry.NewRegistry())
	cfg.Heartbeat = time.Hour // no re-probe: health may change only on the dispatch path
	c := NewCoordinator(cfg)
	defer c.Close()
	for range 2 {
		srv := httptest.NewServer(NewWorker(WorkerConfig{Capacity: 1}).Handler())
		defer srv.Close()
		c.AddWorker(srv.URL)
	}

	zeroWays := cpu.DefaultConfig()
	zeroWays.Hier.L1I.Ways = 0
	for name, req := range map[string]exp.MeasureRequest{
		"0-way L1I":  {Kind: exp.VarBase, Configs: []cpu.Config{zeroWays}, Seed: 1},
		"no configs": {Kind: exp.VarBase, Seed: 1},
	} {
		before := c.met.dispatched.Value()
		if _, err := c.MeasureRemote(context.Background(), req); err == nil {
			t.Errorf("%s: MeasureRemote succeeded, want the workers' refusal", name)
		}
		if n := c.met.dispatched.Value() - before; n != 1 {
			t.Errorf("%s: dispatched %d times, want 1", name, n)
		}
		if n := c.HealthyWorkers(); n != 2 {
			t.Errorf("%s: %d healthy workers after the refusal, want 2", name, n)
		}
	}
}

// TestHedgingCutsTailLatency simulates a straggler: worker A serves tasks
// with a 2s sleep, worker B instantly. With a 50ms hedge delay every task
// stuck on A is re-dispatched to B, so a batch completes in well under the
// straggler's service time.
func TestHedgingCutsTailLatency(t *testing.T) {
	slow := newStubWorker(t)
	slow.taskSecs = 2 * time.Second
	fast := newStubWorker(t)

	reg := telemetry.NewRegistry()
	cfg := testConfig(reg)
	cfg.HedgeDelay = 50 * time.Millisecond
	c := NewCoordinator(cfg)
	defer c.Close()
	c.AddWorkerCapacity(slow.srv.URL, 4)
	c.AddWorkerCapacity(fast.srv.URL, 4)

	const tasks = 8
	start := time.Now()
	errs := make(chan error, tasks)
	for i := 0; i < tasks; i++ {
		go func() {
			_, err := c.MeasureRemote(context.Background(), measureReq())
			errs <- err
		}()
	}
	for i := 0; i < tasks; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("task %d: %v", i, err)
		}
	}
	elapsed := time.Since(start)
	if elapsed >= 1500*time.Millisecond {
		t.Fatalf("batch took %v; hedging should finish well before the 2s straggler", elapsed)
	}
	if got := c.met.hedged.Value(); got < 1 {
		t.Fatalf("hedged counter = %d, want >= 1", got)
	}
	if got := c.met.hedgeWins.Value(); got < 1 {
		t.Fatalf("hedge_wins counter = %d, want >= 1", got)
	}
}

func TestCoordinatorDrain(t *testing.T) {
	w := newStubWorker(t)
	w.taskSecs = 100 * time.Millisecond
	c := NewCoordinator(testConfig(nil))
	defer c.Close()
	c.AddWorker(w.srv.URL)

	started := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		close(started)
		_, err := c.MeasureRemote(context.Background(), measureReq())
		done <- err
	}()
	<-started
	waitFor(t, "task in flight", func() bool { return w.tasks.Load() == 1 })

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := c.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("in-flight task failed across drain: %v", err)
	}
	// New dispatches are refused after drain.
	if _, err := c.MeasureRemote(context.Background(), measureReq()); err == nil {
		t.Fatal("MeasureRemote after Drain succeeded, want refusal")
	}
}

func TestWorkerDrainAndReadiness(t *testing.T) {
	wk := NewWorker(WorkerConfig{Capacity: 1})
	srv := httptest.NewServer(wk.Handler())
	defer srv.Close()

	check := func(path string, want int) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("GET %s = %d, want %d", path, resp.StatusCode, want)
		}
	}
	check("/healthz", http.StatusOK)
	check("/readyz", http.StatusOK)

	// A busy worker stays ready: the coordinator keeps more tasks in flight
	// than the fleet has slots, and excess tasks wait for a slot.
	wk.slots <- struct{}{}
	check("/readyz", http.StatusOK)
	<-wk.slots

	wk.Drain()
	check("/healthz", http.StatusOK) // alive, just not accepting
	check("/readyz", http.StatusServiceUnavailable)

	// Tasks are refused while draining.
	resp, err := http.Post(srv.URL+TaskPath, "application/json", nil)
	if err != nil {
		t.Fatalf("POST task: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("task during drain = %d, want 503", resp.StatusCode)
	}
}

// waitFor polls cond for up to 2s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}
