package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"critics/internal/fleet"
	"critics/internal/sketch"
	"critics/internal/telemetry"
	"critics/internal/workload"
)

// postDeviceSketches builds and ingests one round-1 sketch per device,
// returning the canonical app name.
func postDeviceSketches(t *testing.T, c *Client, devices int) string {
	t.Helper()
	app := workload.MobileApps()[0]
	ctx := context.Background()
	for i := 0; i < devices; i++ {
		sk := fleet.BuildDeviceSketch(app, deviceName(i), 1)
		if err := c.PostProfile(ctx, sk.Encode()); err != nil {
			t.Fatalf("post profile: %v", err)
		}
	}
	return app.Params.Name
}

func deviceName(i int) string { return string([]byte{'d', byte('0' + i)}) }

// waitFleetSketches polls GET /v1/fleet until the app reports n merged
// sketches (ingest is asynchronous behind the bounded queue).
func waitFleetSketches(t *testing.T, c *Client, app string, n uint64) fleet.AppStatus {
	t.Helper()
	ctx := context.Background()
	deadline := time.Now().Add(10 * time.Second)
	for {
		apps, err := c.Fleet(ctx)
		if err != nil {
			t.Fatalf("fleet status: %v", err)
		}
		for _, as := range apps {
			if as.App == app && as.Sketches >= n {
				return as
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %d sketches of %s (have %+v)", n, app, apps)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestProfileIngest(t *testing.T) {
	_, c := start(t, stubConfig(echoStub))
	ctx := context.Background()

	app := postDeviceSketches(t, c, 2)
	as := waitFleetSketches(t, c, app, 2)
	if as.Keys == 0 || as.Digest == "" {
		t.Fatalf("empty consensus after ingest: %+v", as)
	}
	if as.Devices < 1.5 || as.Devices > 2.5 {
		t.Errorf("devices estimate %.2f, want ~2", as.Devices)
	}

	// A malformed body is the device's bug, not load: 400, not retryable.
	err := c.PostProfile(ctx, []byte("not a sketch"))
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Code != 400 || apiErr.Retryable {
		t.Fatalf("malformed sketch: got %v, want non-retryable 400", err)
	}
}

func TestProfileIngestSheds(t *testing.T) {
	s, c := start(t, stubConfig(echoStub))
	ctx := context.Background()

	// Drain the fleet service: every subsequent offer is refused, which is
	// the same admission edge a saturated queue hits. The HTTP contract
	// under refusal is what this test pins: 429, retryable, Retry-After.
	s.fleet.Drain()
	app := workload.MobileApps()[0]
	err := c.PostProfile(ctx, fleet.BuildDeviceSketch(app, "d0", 1).Encode())
	var apiErr *APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("got %v, want *APIError", err)
	}
	if apiErr.Code != 429 || !apiErr.Retryable || apiErr.RetryAfter <= 0 {
		t.Fatalf("shed response = %+v, want retryable 429 with Retry-After", apiErr)
	}
}

func TestFleetJobEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the real pipeline")
	}
	_, c := start(t, Config{QueueSize: 4, Workers: 1, JobWorkers: 2})
	ctx := context.Background()

	// Before any sketches arrive a fleet job must fail with a pointer to
	// the ingest endpoint, not hang or panic.
	st, err := c.Submit(ctx, SubmitRequest{Kind: KindFleet, App: "Acrobat", Quick: true})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	st, err = c.Wait(ctx, st.ID, time.Minute)
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	if st.State != StateFailed || !strings.Contains(st.Error, "/v1/profiles") {
		t.Fatalf("premature fleet job: state=%s err=%q", st.State, st.Error)
	}

	app := postDeviceSketches(t, c, 3)
	waitFleetSketches(t, c, app, 3)

	st, err = c.Submit(ctx, SubmitRequest{Kind: KindFleet, App: app, Quick: true, Workers: 2, MeasureInstrs: 25_000})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	st, err = c.Wait(ctx, st.ID, 5*time.Minute)
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	if st.State != StateSucceeded {
		t.Fatalf("fleet job: state=%s err=%q", st.State, st.Error)
	}

	raw, err := c.Result(ctx, st.ID)
	if err != nil {
		t.Fatalf("result: %v", err)
	}
	var res struct {
		Kind   JobKind       `json:"kind"`
		Text   string        `json:"text"`
		Report *fleet.Report `json:"report"`
	}
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatalf("decode result: %v", err)
	}
	if res.Kind != KindFleet || res.Report == nil {
		t.Fatalf("result shape: %+v", res)
	}
	if res.Report.Winner == "" || res.Report.WinnerDigest == "" || len(res.Report.Generations) == 0 {
		t.Fatalf("incomplete report: %+v", res.Report)
	}
	if !strings.Contains(res.Text, "fleet converge") {
		t.Errorf("report text: %q", res.Text)
	}

	// The converge outcome must be visible in fleet status afterwards.
	as := waitFleetSketches(t, c, app, 3)
	if as.Winner != res.Report.Winner || as.WinnerDigest != res.Report.WinnerDigest || as.Generations == 0 {
		t.Errorf("fleet status not updated: %+v vs report %+v", as, res.Report)
	}
}

// TestProfileIngestConcurrentPermuted posts device sketches from four
// goroutines at once, each in its own order, with duplicates and a
// malformed body mixed in: recycled decode sketches must leave the same
// consensus as a sequential fold of the distinct sketches.
func TestProfileIngestConcurrentPermuted(t *testing.T) {
	s, _ := start(t, stubConfig(echoStub))
	h := s.Handler()
	app := workload.MobileApps()[0]
	want := sketch.New(app.Params.Name)
	var bodies [][]byte
	for i := 0; i < 6; i++ {
		sk := fleet.BuildDeviceSketch(app, deviceName(i), 1+i%2)
		want.Merge(sk)
		bodies = append(bodies, sk.Encode())
	}

	const senders = 4
	var posted atomic.Uint64
	var wg sync.WaitGroup
	for g := 0; g < senders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(g)))
			for _, i := range append(r.Perm(len(bodies)), r.Intn(len(bodies))) {
				if code := postProfile(h, bodies[i]); code != http.StatusAccepted {
					t.Errorf("sender %d: sketch %d answered %d", g, i, code)
					return
				}
				posted.Add(1)
				if i == g {
					if code := postProfile(h, []byte("CSK\x01 not a sketch")); code != http.StatusBadRequest {
						t.Errorf("sender %d: malformed body answered %d", g, code)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	waitMerged(t, s, app.Params.Name, posted.Load())
	got, _, ok := s.fleet.Consensus(app.Params.Name)
	if !ok {
		t.Fatal("no consensus after concurrent ingest")
	}
	if got.Digest() != want.Digest() {
		t.Fatalf("concurrent ingest consensus %s differs from a sequential fold %s", got.Digest(), want.Digest())
	}
}

// postProfile serves one POST /v1/profiles in process and returns its
// status code.
func postProfile(h http.Handler, body []byte) int {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/profiles", bytes.NewReader(body)))
	return rec.Code
}

// waitMerged polls the fleet service until the app reports n merged
// sketches.
func waitMerged(tb testing.TB, s *Server, app string, n uint64) {
	tb.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		for _, as := range s.fleet.Status() {
			if as.App == app && as.Sketches >= n {
				return
			}
		}
		if time.Now().After(deadline) {
			tb.Fatalf("timed out waiting for %d merged sketches of %s", n, app)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// BenchmarkProfileIngest serves POST /v1/profiles in process, round-robin
// over 8 device sketches, and stops the timer once every post is merged: the
// per-request cost of fleet ingest from body to consensus, without sockets.
// It posts only while fewer than 8 posts wait for the merger, the sketches
// the warm-up round put in circulation. An unpaced loop outruns the merger
// whenever the scheduler sets the merger aside, and then a request decodes
// into a fresh sketch or is refused by the full queue. Pacing keeps every
// request on the free list, so the allocations per request do not depend on
// scheduling. TestProfileIngestAllocCeiling gates its B/op; a per-request
// sketch allocation would add 32 KB.
func BenchmarkProfileIngest(b *testing.B) {
	app := workload.MobileApps()[0]
	bodies := make([][]byte, 8)
	for i := range bodies {
		bodies[i] = fleet.BuildDeviceSketch(app, deviceName(i), 1).Encode()
	}
	s := New(stubConfig(echoStub))
	defer s.Shutdown(context.Background())
	h := s.Handler()
	// One warm-up round archives every sketch and sizes the consensus.
	for _, body := range bodies {
		if code := postProfile(h, body); code != http.StatusAccepted {
			b.Fatalf("warm-up post answered %d", code)
		}
	}
	waitMerged(b, s, app.Params.Name, uint64(len(bodies)))
	// The merger counts a sketch after it is back on the free list.
	merged := s.reg.Counter("critics_fleet_sketches_total", "", telemetry.L("app", app.Params.Name))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// len(bodies)+i posted: wait for i+1 merged.
		for deadline := time.Now().Add(10 * time.Second); merged.Value() <= int64(i); runtime.Gosched() {
			if time.Now().After(deadline) {
				b.Fatalf("merger stalled at %d sketches", merged.Value())
			}
		}
		if code := postProfile(h, bodies[i%len(bodies)]); code != http.StatusAccepted {
			b.Fatalf("post answered %d", code)
		}
	}
	waitMerged(b, s, app.Params.Name, uint64(len(bodies)+b.N))
	b.StopTimer()
}

// raceEnabled is set by race_test.go when the tests run under the race
// detector.
var raceEnabled bool

// TestProfileIngestAllocCeiling pins the allocation ceiling of a profile
// ingest request (POST /v1/profiles in process, through merge) over 2000
// iterations of BenchmarkProfileIngest. The request decodes into a sketch
// the fleet service recycles: about 15 KB/op, where a fresh 32 KB sketch
// per request cost 87 KB/op, so the ceiling is 32768 B/op. Its ns/op is
// logged, not gated.
func TestProfileIngestAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	f := flag.Lookup("test.benchtime")
	old := f.Value.String()
	if err := f.Value.Set("2000x"); err != nil {
		t.Fatal(err)
	}
	defer f.Value.Set(old)
	r := testing.Benchmark(BenchmarkProfileIngest)
	t.Logf("profile ingest request: %d B/op over %d iterations, %d ns/op (reported, not gated)",
		r.AllocedBytesPerOp(), r.N, r.NsPerOp())
	if r.N == 0 || r.AllocedBytesPerOp() > 32768 {
		t.Errorf("profile ingest request: %d B/op over %d iterations, ceiling 32768", r.AllocedBytesPerOp(), r.N)
	}
}
