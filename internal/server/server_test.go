package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"critics"
	"critics/internal/workload"
)

// start spins up a server over httptest and returns it with a client and a
// cleanup that drains it.
func start(t *testing.T, cfg Config) (*Server, *Client) {
	t.Helper()
	s := New(cfg)
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
		hs.Close()
	})
	return s, NewClient(hs.URL)
}

// stubConfig returns a config whose execute is replaced by fn — no critics
// pipeline, so queue/lifecycle tests stay fast and deterministic.
func stubConfig(fn func(ctx context.Context, req SubmitRequest) ([]byte, error)) Config {
	cfg := Config{QueueSize: 8, Workers: 2}
	cfg.execute = fn
	return cfg
}

// echoStub succeeds immediately with a marshaled Result echoing the request.
func echoStub(_ context.Context, req SubmitRequest) ([]byte, error) {
	return json.Marshal(Result{Kind: req.Kind, App: req.App, Text: "done " + req.App})
}

// TestLifecycleIdentity is the end-to-end acceptance check: a served
// optimize job returns a report identical to the in-process
// critics.OptimizeApp for the same options — the daemon is a transport, not
// a different pipeline.
func TestLifecycleIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the real pipeline")
	}
	_, c := start(t, Config{QueueSize: 4, Workers: 1, JobWorkers: 2})
	ctx := context.Background()

	// "Acrobat" exercises case-insensitive catalog resolution.
	st, err := c.Submit(ctx, SubmitRequest{App: "Acrobat", Quick: true, Workers: 2})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if st.Kind != KindOptimize || st.App != "acrobat" {
		t.Fatalf("submit inferred kind=%s app=%s", st.Kind, st.App)
	}
	st, err = c.Wait(ctx, st.ID, time.Minute)
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	if st.State != StateSucceeded {
		t.Fatalf("job ended %s: %s", st.State, st.Error)
	}
	raw, err := c.Result(ctx, st.ID)
	if err != nil {
		t.Fatalf("result: %v", err)
	}
	var res Result
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatalf("result decode: %v", err)
	}

	want, err := critics.OptimizeApp("acrobat", critics.WithQuickScale(), critics.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	if res.Text != want.String() {
		t.Errorf("served report differs from critics.OptimizeApp:\n--- served ---\n%s\n--- direct ---\n%s", res.Text, want)
	}
}

// TestSharedCaches proves the daemon-wide memo cache: the second identical
// job must be served from cache (hits observed, and the artifacts are not
// rebuilt).
func TestSharedCaches(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the real pipeline")
	}
	s, c := start(t, Config{QueueSize: 4, Workers: 1, JobWorkers: 2})
	ctx := context.Background()
	for i := 0; i < 2; i++ {
		st, err := c.Submit(ctx, SubmitRequest{App: "maps", Quick: true, Workers: 2})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		if st, err = c.Wait(ctx, st.ID, time.Minute); err != nil || st.State != StateSucceeded {
			t.Fatalf("job %d ended %s err=%v", i, st.State, err)
		}
	}
	stats := s.CacheStats()
	if stats.Measurements.Hits == 0 || stats.Profiles.Hits == 0 {
		t.Errorf("expected cache hits on the second identical job, got %+v", stats)
	}
}

// TestAPIErrors covers the 4xx surface: unknown job ids, malformed bodies,
// bad names, premature result fetches and wrong methods.
func TestAPIErrors(t *testing.T) {
	_, c := start(t, stubConfig(echoStub))
	ctx := context.Background()
	base := c.base

	post := func(body string) *http.Response {
		resp, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	codes := []struct {
		resp *http.Response
		want int
		name string
	}{
		{post(`{not json`), http.StatusBadRequest, "malformed body"},
		{post(`{}`), http.StatusBadRequest, "missing kind"},
		{post(`{"app":"nonexistent"}`), http.StatusBadRequest, "unknown app"},
		{post(`{"experiment":"fig99"}`), http.StatusBadRequest, "unknown experiment"},
		{post(`{"kind":"destroy","app":"acrobat"}`), http.StatusBadRequest, "unknown kind"},
		{post(`{"app":"acrobat","timeout_ms":-5}`), http.StatusBadRequest, "negative timeout"},
	}
	for _, tc := range codes {
		var er ErrorResponse
		if err := json.NewDecoder(tc.resp.Body).Decode(&er); err != nil || er.Error == "" {
			t.Errorf("%s: error body missing (%v)", tc.name, err)
		}
		tc.resp.Body.Close()
		if tc.resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, tc.resp.StatusCode, tc.want)
		}
	}

	// The unknown-app rejection must teach the caller the valid names.
	resp := post(`{"app":"nonexistent"}`)
	var er ErrorResponse
	_ = json.NewDecoder(resp.Body).Decode(&er)
	resp.Body.Close()
	if !strings.Contains(er.Error, "acrobat") {
		t.Errorf("unknown-app error does not list valid names: %q", er.Error)
	}

	if _, err := c.Status(ctx, "j999999"); err == nil {
		t.Error("status of unknown job succeeded")
	} else if apiErr, ok := err.(*APIError); !ok || apiErr.Code != http.StatusNotFound {
		t.Errorf("status of unknown job: %v, want 404", err)
	}
	if _, err := c.Result(ctx, "j999999"); err == nil {
		t.Error("result of unknown job succeeded")
	}

	// Result of a non-succeeded job is 409, not 200/404.
	st, err := c.Submit(ctx, SubmitRequest{App: "acrobat", Kind: KindOptimize})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Wait(ctx, st.ID, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	resp2, err := http.Get(base + "/v1/jobs/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Errorf("result after success: %d", resp2.StatusCode)
	}

	req, _ := http.NewRequest(http.MethodPut, base+"/v1/jobs", nil)
	resp3, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("PUT /v1/jobs: %d, want 405", resp3.StatusCode)
	}
}

// TestIdempotency proves safe client retries: a resubmit bearing the same
// idempotency key returns the same job; a different key enqueues a new one.
func TestIdempotency(t *testing.T) {
	_, c := start(t, stubConfig(echoStub))
	ctx := context.Background()

	a1, err := c.Submit(ctx, SubmitRequest{App: "acrobat", IdempotencyKey: "retry-1"})
	if err != nil {
		t.Fatal(err)
	}
	a2, err := c.Submit(ctx, SubmitRequest{App: "acrobat", IdempotencyKey: "retry-1"})
	if err != nil {
		t.Fatal(err)
	}
	if a1.ID != a2.ID {
		t.Errorf("same key produced different jobs: %s vs %s", a1.ID, a2.ID)
	}
	b, err := c.Submit(ctx, SubmitRequest{App: "acrobat", IdempotencyKey: "retry-2"})
	if err != nil {
		t.Fatal(err)
	}
	if b.ID == a1.ID {
		t.Error("different key reused the job")
	}
}

// TestJobTableBounded: the job table keeps the maxJobs most recent jobs.
// After maxJobs+8 finished jobs the first 8 are gone (404, like an unknown
// id), the rest resolve, the list holds maxJobs entries, and an evicted
// job's idempotency key admits a fresh job.
func TestJobTableBounded(t *testing.T) {
	cfg := stubConfig(echoStub)
	cfg.QueueSize = 64
	s, c := start(t, cfg)
	ctx := context.Background()

	terminal := func(ids []string) func() bool {
		return func() bool {
			s.mu.Lock()
			defer s.mu.Unlock()
			for _, id := range ids {
				if j := s.jobs[id]; j == nil || !j.terminal() {
					return false
				}
			}
			return true
		}
	}
	// Submit in queue-sized batches and let each batch finish, so every
	// eviction finds the oldest jobs already terminal.
	ids := make([]string, maxJobs+8)
	for lo := 0; lo < len(ids); lo += cfg.QueueSize {
		hi := min(lo+cfg.QueueSize, len(ids))
		for i := lo; i < hi; i++ {
			st, err := c.Submit(ctx, SubmitRequest{App: "acrobat", IdempotencyKey: fmt.Sprintf("k%d", i)})
			if err != nil {
				t.Fatalf("submit %d: %v", i, err)
			}
			ids[i] = st.ID
		}
		waitFor(t, terminal(ids[lo:hi]))
	}

	for _, id := range ids[:8] {
		if _, err := c.Status(ctx, id); err == nil {
			t.Errorf("evicted job %s still resolves", id)
		} else if apiErr, ok := err.(*APIError); !ok || apiErr.Code != http.StatusNotFound {
			t.Errorf("status of evicted job %s: %v, want 404", id, err)
		}
	}
	for _, id := range ids[8:] {
		if st, err := c.Status(ctx, id); err != nil || st.State != StateSucceeded {
			t.Fatalf("retained job %s: state %s, err %v", id, st.State, err)
		}
	}
	raw, err := c.raw(ctx, "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var list struct{ Jobs []JobStatus }
	if err := json.Unmarshal(raw, &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Jobs) != maxJobs || list.Jobs[0].ID != ids[len(ids)-1] || list.Jobs[maxJobs-1].ID != ids[8] {
		t.Errorf("GET /v1/jobs lists %d jobs, want the %d newest", len(list.Jobs), maxJobs)
	}

	again, err := c.Submit(ctx, SubmitRequest{App: "acrobat", IdempotencyKey: "k0"})
	if err != nil {
		t.Fatal(err)
	}
	if again.ID == ids[0] {
		t.Errorf("evicted job's idempotency key returned the evicted job %s", again.ID)
	}

	// Unfinished jobs are never evicted, however old: with the second
	// oldest still queued, the oldest finished ones make room.
	u := &Server{jobs: map[string]*job{}, byIdem: map[string]string{}}
	for i := 0; i < maxJobs+2; i++ {
		j := newJob(fmt.Sprintf("u%d", i), SubmitRequest{IdempotencyKey: fmt.Sprintf("u%d", i)})
		if i != 1 {
			j.state = StateSucceeded
		}
		u.jobs[j.id] = j
		u.order = append(u.order, j.id)
		u.byIdem[j.req.IdempotencyKey] = j.id
	}
	u.evictJobsLocked()
	if len(u.jobs) != maxJobs || len(u.order) != maxJobs || u.order[0] != "u1" || u.order[1] != "u3" {
		t.Errorf("eviction kept %d jobs starting %v, want %d starting [u1 u3]", len(u.jobs), u.order[:2], maxJobs)
	}
	if _, ok := u.byIdem["u2"]; ok || u.byIdem["u1"] != "u1" {
		t.Error("eviction did not drop exactly the evicted jobs' idempotency keys")
	}
}

// TestJobTableResultBytes: past maxResultBytes of retained results the
// oldest finished jobs are evicted by bytes, also when they finish with no
// admission behind them, but never one of the keepJobs newest, whose traces
// all stay reachable; once the large results are gone, small ones are
// evicted only by count.
func TestJobTableResultBytes(t *testing.T) {
	// Every large job returns the same 1 MiB document: the table counts
	// each job's result bytes while the test holds one copy.
	large := []byte(`"` + strings.Repeat("x", 1<<20-2) + `"`)
	gate := make(chan struct{})
	cfg := stubConfig(func(ctx context.Context, req SubmitRequest) ([]byte, error) {
		if req.App == "maps" {
			<-gate
			return large, nil
		}
		return echoStub(ctx, req)
	})
	cfg.QueueSize = keepJobs + 44
	s, c := start(t, cfg)
	ctx := context.Background()
	table := func() (jobs int, bytes int64) {
		s.mu.Lock()
		defer s.mu.Unlock()
		return len(s.order), s.resultBytes
	}
	resolves := func(id string) bool {
		_, err := c.Status(ctx, id)
		return err == nil
	}

	// Every large job is admitted before any finishes, so only evictions
	// as jobs finish can make room.
	big := make([]string, keepJobs+44)
	for i := range big {
		st, err := c.Submit(ctx, SubmitRequest{App: "maps"})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		big[i] = st.ID
	}
	close(gate)
	waitFor(t, func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		for _, id := range big {
			if j := s.jobs[id]; j != nil && !j.terminal() {
				return false
			}
		}
		return true
	})
	for i, id := range big {
		if want := i >= 44; resolves(id) != want {
			t.Fatalf("large job %d of %d resolves=%v, want %v", i, len(big), !want, want)
		}
	}
	if _, err := c.Trace(ctx, big[44], ""); err != nil {
		t.Errorf("trace of the oldest retained job: %v", err)
	}
	if n, used := table(); n != keepJobs || used != keepJobs*int64(len(large)) {
		t.Fatalf("table holds %d jobs and %d result bytes, want %d and %d", n, used, keepJobs, keepJobs*len(large))
	}

	small := make([]string, 2*keepJobs)
	for i := range small {
		st := submitAndWait(t, c, SubmitRequest{App: "acrobat"})
		if st.State != StateSucceeded {
			t.Fatalf("small job %s ended %s", st.ID, st.State)
		}
		small[i] = st.ID
	}
	for _, id := range small {
		if !resolves(id) {
			t.Fatalf("small job %s evicted with the table under its byte budget", id)
		}
	}
	kept := 0
	for i, id := range big {
		if resolves(id) {
			kept++
		} else if kept > 0 {
			t.Fatalf("large job %d evicted before an older one", i)
		}
	}
	if n, used := table(); used > maxResultBytes || kept*len(large) > maxResultBytes || n != len(small)+kept {
		t.Fatalf("table holds %d jobs (%d large) and %d result bytes, want at most %d bytes", n, kept, used, maxResultBytes)
	}
}

// TestPanicIsolation: a panicking workload fails its own job with the panic
// message and the daemon keeps serving the next one.
func TestPanicIsolation(t *testing.T) {
	cfg := stubConfig(func(_ context.Context, req SubmitRequest) ([]byte, error) {
		if req.App == "acrobat" {
			panic("synthetic workload crash")
		}
		return echoStub(nil, req)
	})
	s, c := start(t, cfg)
	ctx := context.Background()

	st, err := c.Submit(ctx, SubmitRequest{App: "acrobat"})
	if err != nil {
		t.Fatal(err)
	}
	if st, err = c.Wait(ctx, st.ID, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	if st.State != StateFailed || !strings.Contains(st.Error, "synthetic workload crash") {
		t.Errorf("panicking job: state=%s err=%q", st.State, st.Error)
	}

	st, err = c.Submit(ctx, SubmitRequest{App: "maps"})
	if err != nil {
		t.Fatalf("daemon did not survive the panic: %v", err)
	}
	if st, err = c.Wait(ctx, st.ID, 10*time.Second); err != nil || st.State != StateSucceeded {
		t.Errorf("job after panic: state=%s err=%v", st.State, err)
	}

	var buf strings.Builder
	if err := s.reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `critics_server_jobs_total{outcome="panic"} 1`) {
		t.Error("panic outcome not counted")
	}
}

// TestJobTimeout: a job exceeding its deadline fails with a retryable
// status.
func TestJobTimeout(t *testing.T) {
	cfg := stubConfig(func(ctx context.Context, _ SubmitRequest) ([]byte, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	})
	_, c := start(t, cfg)
	ctx := context.Background()

	st, err := c.Submit(ctx, SubmitRequest{App: "acrobat", TimeoutMS: 50})
	if err != nil {
		t.Fatal(err)
	}
	if st, err = c.Wait(ctx, st.ID, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	if st.State != StateFailed || !st.Retryable {
		t.Errorf("timed-out job: state=%s retryable=%v err=%q", st.State, st.Retryable, st.Error)
	}
}

// TestCancel covers both cancellation paths: a running job (context
// propagation) and a queued job (never starts).
func TestCancel(t *testing.T) {
	release := make(chan struct{})
	started := make(chan string, 8)
	cfg := Config{QueueSize: 8, Workers: 1}
	cfg.execute = func(ctx context.Context, req SubmitRequest) ([]byte, error) {
		started <- req.App
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-release:
			return echoStub(ctx, req)
		}
	}
	_, c := start(t, cfg)
	defer close(release)
	ctx := context.Background()

	running, err := c.Submit(ctx, SubmitRequest{App: "acrobat"})
	if err != nil {
		t.Fatal(err)
	}
	<-started // the single worker now blocks in the job
	queued, err := c.Submit(ctx, SubmitRequest{App: "maps"})
	if err != nil {
		t.Fatal(err)
	}

	// Cancel the queued job first: it must go terminal without running.
	if _, err := c.Cancel(ctx, queued.ID); err != nil {
		t.Fatal(err)
	}
	st, err := c.Status(ctx, queued.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateCanceled || st.StartedAt != nil {
		t.Errorf("queued cancel: state=%s started=%v", st.State, st.StartedAt)
	}

	// Cancel the running one: the context unblocks the stub.
	if _, err := c.Cancel(ctx, running.ID); err != nil {
		t.Fatal(err)
	}
	if st, err = c.Wait(ctx, running.ID, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	if st.State != StateCanceled {
		t.Errorf("running cancel: state=%s err=%q", st.State, st.Error)
	}

	select {
	case app := <-started:
		t.Errorf("canceled queued job still ran: %s", app)
	default:
	}
}

// TestResultWhileFinishing fetches results while their jobs finish: every
// fetch answers 409 for a job still running or 200 with its document, never
// a 409 naming a succeeded job.
func TestResultWhileFinishing(t *testing.T) {
	s, _ := start(t, stubConfig(echoStub))
	h := s.Handler()
	for n := 0; n < 200; n++ {
		id := fmt.Sprintf("finishing-%d", n)
		j := newJob(id, SubmitRequest{App: "maps"})
		if !j.tryStart(func() {}) {
			t.Fatalf("job %s did not start", id)
		}
		s.mu.Lock()
		s.jobs[id] = j
		s.mu.Unlock()

		finished := make(chan struct{})
		go func() {
			defer close(finished)
			j.finish([]byte(`{"kind":"optimize"}`), "", false, func(JobState) {})
		}()
		for {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/jobs/"+id+"/result", nil))
			if rec.Code == http.StatusOK {
				break
			}
			if body := rec.Body.String(); rec.Code != http.StatusConflict || strings.Contains(body, "job "+id+" succeeded") {
				t.Fatalf("job %s: %d %s", id, rec.Code, body)
			}
		}
		<-finished
	}
}

// TestCatalogEndpoints: /v1/apps and /v1/experiments serve the catalogs the
// submit validator enforces.
func TestCatalogEndpoints(t *testing.T) {
	_, c := start(t, stubConfig(echoStub))
	ctx := context.Background()

	suites, err := c.Apps(ctx)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, names := range suites {
		for _, n := range names {
			if n == "acrobat" {
				found = true
			}
		}
	}
	if !found {
		t.Errorf("acrobat missing from /v1/apps: %v", suites)
	}
	ids, err := c.Experiments(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) == 0 {
		t.Error("/v1/experiments empty")
	}
}

// TestResolveApp: every catalog name resolves case-insensitively to itself,
// an unknown name is refused, and the catalog lists the SPEC suites before
// the mobile apps.
func TestResolveApp(t *testing.T) {
	var want []string
	for _, set := range [][]workload.App{workload.SPECIntApps(), workload.SPECFloatApps(), workload.MobileApps()} {
		for _, a := range set {
			want = append(want, a.Params.Name)
		}
	}
	if got := critics.AppNames(); !slices.Equal(got, want) {
		t.Errorf("AppNames() = %v, want SPEC int, SPEC float, then mobile: %v", got, want)
	}
	for _, name := range want {
		if got, ok := resolveApp(strings.ToUpper(name)); !ok || got != name {
			t.Errorf("resolveApp(%q) = %q, %v; want %q", strings.ToUpper(name), got, ok, name)
		}
	}
	if got, ok := resolveApp("no-such-app"); ok {
		t.Errorf("resolveApp accepted an unknown name as %q", got)
	}
}

// TestServerMetricsExposition pins the server's family names on a live
// scrape (the exposition format itself is pinned by the telemetry golden
// test).
func TestServerMetricsExposition(t *testing.T) {
	_, c := start(t, stubConfig(echoStub))
	ctx := context.Background()
	st, err := c.Submit(ctx, SubmitRequest{App: "acrobat"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Wait(ctx, st.ID, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(c.base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(data)
	for _, family := range []string{
		"critics_server_jobs_total",
		"critics_server_queue_depth",
		"critics_server_inflight_jobs",
		"critics_server_http_request_seconds",
		"critics_server_http_requests_total",
	} {
		if !strings.Contains(body, family) {
			t.Errorf("/metrics missing %s", family)
		}
	}
}
