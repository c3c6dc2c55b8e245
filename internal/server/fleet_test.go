package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"critics/internal/fleet"
	"critics/internal/sketch"
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
