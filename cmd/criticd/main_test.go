package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"critics"
	"critics/internal/dist"
	"critics/internal/obs"
	"critics/internal/scan"
	"critics/internal/server"
)

// syncBuffer is a bytes.Buffer safe for the daemon's concurrent writes.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// daemon is one criticd run inside the test process.
type daemon struct {
	url    string
	cancel context.CancelFunc
	code   chan int
	once   sync.Once
}

// startDaemon runs criticd with args on an ephemeral 127.0.0.1 port and
// returns once it has printed the line launch scripts parse. The daemon is
// stopped at cleanup if the test has not stopped it; its stderr is logged
// when the test fails.
func startDaemon(t *testing.T, args ...string) *daemon {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	d := &daemon{cancel: cancel, code: make(chan int, 1)}
	pr, pw := io.Pipe()
	var stderr syncBuffer
	go func() {
		d.code <- run(ctx, append([]string{"-addr", "127.0.0.1:0"}, args...), pw, &stderr)
		pw.Close()
	}()
	line, err := bufio.NewReader(pr).ReadString('\n')
	go io.Copy(io.Discard, pr)
	t.Cleanup(func() {
		d.stop(t)
		if t.Failed() {
			t.Logf("criticd %v stderr:\n%s", args, stderr.String())
		}
	})
	url, ok := strings.CutPrefix(strings.TrimSpace(line), "criticd listening on ")
	if err != nil || !ok {
		t.Fatalf("criticd %v: first stdout line %q (%v), want the listening line", args, line, err)
	}
	d.url = url
	return d
}

// stop cancels the daemon's context, as SIGTERM does in main, and requires
// a clean drain: exit code 0.
func (d *daemon) stop(t *testing.T) {
	t.Helper()
	d.once.Do(func() {
		d.cancel()
		if code := <-d.code; code != 0 {
			t.Errorf("criticd at %s drained with exit %d, want 0", d.url, code)
		}
	})
}

// get fetches url and returns the body of a 200 answer.
func get(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d %v\n%s", url, resp.StatusCode, err, body)
	}
	return string(body)
}

// submitWait runs one job to success, as criticctl submit -wait does, and
// returns the job id and the result text criticctl prints.
func submitWait(t *testing.T, c *server.Client, req server.SubmitRequest) (string, string) {
	t.Helper()
	ctx := context.Background()
	st, err := c.Submit(ctx, req)
	if err != nil {
		t.Fatalf("submit %+v: %v", req, err)
	}
	if st, err = c.Wait(ctx, st.ID, 2*time.Minute); err != nil || st.State != server.StateSucceeded {
		t.Fatalf("job %s for %+v: %v %s %s", st.ID, req, err, st.State, st.Error)
	}
	raw, err := c.Result(ctx, st.ID)
	if err != nil {
		t.Fatalf("result %s: %v", st.ID, err)
	}
	var res server.Result
	if err := json.Unmarshal(raw, &res); err != nil || res.Text == "" {
		t.Fatalf("result %s has no text (%v): %s", st.ID, err, raw)
	}
	return st.ID, res.Text
}

// awaitWorkers requires the coordinator to list n workers. It need not
// wait: a worker prints its listening line only after it has registered,
// and a coordinator adds the workers listed with -dist-workers before it
// prints its own.
func awaitWorkers(t *testing.T, c *server.Client, n int) {
	t.Helper()
	if ws, err := c.DistWorkers(context.Background()); err != nil || len(ws) != n {
		t.Fatalf("fleet = %+v (%v), want %d workers", ws, err, n)
	}
}

// TestServeSubmitDrain: a daemon on an ephemeral port answers /healthz,
// runs an optimize job to completion, lists the catalog, exports the
// server metric families, and drains with exit 0 when its context is
// cancelled.
func TestServeSubmitDrain(t *testing.T) {
	d := startDaemon(t, "-queue", "8", "-jobs", "2", "-v")
	get(t, d.url+"/healthz")
	c := server.NewClient(d.url)
	submitWait(t, c, server.SubmitRequest{App: "Acrobat", Quick: true})
	if _, err := c.Apps(context.Background()); err != nil {
		t.Fatalf("apps: %v", err)
	}
	metrics := get(t, d.url+"/metrics")
	for _, family := range []string{"jobs_total", "queue_depth", "inflight_jobs", "http_request_seconds"} {
		if !strings.Contains(metrics, "critics_server_"+family) {
			t.Errorf("/metrics lacks critics_server_%s", family)
		}
	}
	d.stop(t)
}

// TestDistributedByteIdentical: a coordinator with one worker listed
// up-front and one that registers itself runs a fig8 experiment job and an
// optimize job; a plain local daemon runs the same two jobs. Each pair of
// result texts is byte-identical, tasks were dispatched to the fleet, and
// all four processes drain cleanly.
func TestDistributedByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the real pipeline on a two-worker fleet")
	}
	w1 := startDaemon(t, "-worker", "-capacity", "2", "-artifact-dir", t.TempDir(), "-v")
	coord := startDaemon(t, "-queue", "8", "-jobs", "2", "-dist-workers", w1.url, "-v")
	w2 := startDaemon(t, "-worker", "-capacity", "2", "-artifact-dir", t.TempDir(), "-coordinator", coord.url, "-v")
	cc := server.NewClient(coord.url)
	awaitWorkers(t, cc, 2)
	local := startDaemon(t, "-queue", "8", "-jobs", "2")
	lc := server.NewClient(local.url)

	// An optimize job dispatches its baseline and CritIC measurements
	// together, one to each idle worker.
	for _, req := range []server.SubmitRequest{
		{Experiment: "fig8", Quick: true},
		{App: "acrobat", Quick: true},
	} {
		_, dist := submitWait(t, cc, req)
		_, loc := submitWait(t, lc, req)
		if dist != loc {
			t.Errorf("%+v: distributed result differs from local:\n%s\nlocal:\n%s", req, dist, loc)
		}
	}
	dispatched, ok := obs.MetricValue(get(t, coord.url+"/metrics"), "critics_dist_tasks_dispatched_total", nil)
	if !ok || dispatched <= 0 {
		t.Errorf("critics_dist_tasks_dispatched_total = %v (found %v), want > 0", dispatched, ok)
	}
	w2.stop(t)
	coord.stop(t)
	w1.stop(t)
	local.stop(t)
}

// TestObservedFleet: a coordinator with one worker runs one optimize job.
// Both daemons export their build info, and the SIGTERM drain leaves a
// complete -trace-out document holding the job's build spans. The job's
// trace, its retried dispatch, its flight record and the SLO targets are
// internal/server's TestDistributedTrace.
func TestObservedFleet(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the real pipeline on a worker")
	}
	traceOut := filepath.Join(t.TempDir(), "criticd-engine-trace.json")
	w := startDaemon(t, "-worker", "-capacity", "2", "-artifact-dir", t.TempDir(), "-v")
	coord := startDaemon(t, "-queue", "8", "-jobs", "2", "-dist-workers", w.url, "-trace-out", traceOut, "-v")
	job, _ := submitWait(t, server.NewClient(coord.url), server.SubmitRequest{App: "acrobat", Quick: true})
	for url, component := range map[string]string{coord.url: "criticd", w.url: "criticd-worker"} {
		if !strings.Contains("\n"+get(t, url+"/metrics"), "\ncritics_build_info{component=\""+component+"\"") {
			t.Errorf("%s /metrics lacks critics_build_info for %s", url, component)
		}
	}

	coord.stop(t)
	w.stop(t)
	raw, err := os.ReadFile(traceOut)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("-trace-out is not complete JSON after the drain: %v", err)
	}
	builds := 0
	for _, e := range doc.TraceEvents {
		if id, _ := e.Args["id"].(string); e.Args["trace"] == job && strings.HasPrefix(id, "b:") {
			builds++
		}
	}
	if builds == 0 {
		t.Errorf("-trace-out holds no build span of job %s", job)
	}
}

// TestWorkerTempStoreRemoved: a coordinator and a -worker daemon started
// without -artifact-dir, as perfbench's scan fleet runs, score one scan job
// whose chunks all go to the worker. Once both have drained, their temp
// artifact stores are gone: TMPDIR is empty again.
func TestWorkerTempStoreRemoved(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	coord := startDaemon(t, "-queue", "4", "-jobs", "1", "-dist")
	w := startDaemon(t, "-worker", "-capacity", "2", "-coordinator", coord.url)

	img, addrs, err := critics.ScanInputs("acrobat", 8192)
	if err != nil {
		t.Fatal(err)
	}
	trc := scan.TraceBytes(addrs, scan.DefaultChunk)
	c := server.NewClient(coord.url)
	ctx := context.Background()
	imgDigest, err := c.UploadArtifact(ctx, img, 0)
	if err != nil {
		t.Fatalf("upload image: %v", err)
	}
	trcDigest, err := c.UploadArtifact(ctx, trc, 0)
	if err != nil {
		t.Fatalf("upload trace: %v", err)
	}
	submitWait(t, c, server.SubmitRequest{Kind: server.KindScan, ImageDigest: imgDigest, TraceDigest: trcDigest})
	metrics := get(t, coord.url+"/metrics")
	chunks := float64((len(addrs) + scan.DefaultChunk - 1) / scan.DefaultChunk)
	remote, _ := obs.MetricValue(metrics, "critics_scan_chunks_scored_total", map[string]string{"path": "remote"})
	local, _ := obs.MetricValue(metrics, "critics_scan_chunks_scored_total", map[string]string{"path": "local"})
	if remote != chunks || local != 0 {
		t.Errorf("chunks scored remote %v, local %v; want %v and 0", remote, local, chunks)
	}

	w.stop(t)
	coord.stop(t)
	left, err := os.ReadDir(tmp)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range left {
		t.Errorf("%s left behind in TMPDIR after the drain", e.Name())
	}
}

// lineWriter hands each write to a channel, so a test sees a line the
// moment the daemon prints it.
type lineWriter chan string

func (w lineWriter) Write(p []byte) (int, error) {
	w <- string(p)
	return len(p), nil
}

// TestListeningLineAfterRegistration: a worker prints its listening line
// only once the coordinator has answered its registration. A stub
// coordinator holds the registration request open, and stdout stays empty
// until the stub releases it.
func TestListeningLineAfterRegistration(t *testing.T) {
	arrived, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	stub := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if r.URL.Path == dist.RegisterPath {
			once.Do(func() { close(arrived) })
			<-release
		}
	}))
	defer stub.Close()

	stdout := make(lineWriter, 1) // the one line a daemon prints
	ctx, cancel := context.WithCancel(context.Background())
	code := make(chan int, 1)
	go func() {
		code <- run(ctx, []string{"-worker", "-addr", "127.0.0.1:0", "-artifact-dir", t.TempDir(),
			"-coordinator", stub.URL}, stdout, io.Discard)
	}()
	select {
	case <-arrived:
	case <-time.After(30 * time.Second):
		t.Fatal("the worker never registered")
	}
	select {
	case line := <-stdout:
		t.Errorf("worker printed %q while its registration was still open", line)
	default:
	}
	close(release)
	select {
	case line := <-stdout:
		if !strings.HasPrefix(line, "criticd listening on http://127.0.0.1:") {
			t.Errorf("first stdout line %q, want the listening line", line)
		}
	case <-time.After(30 * time.Second):
		t.Error("no listening line after the registration was answered")
	}
	cancel()
	if c := <-code; c != 0 {
		t.Errorf("worker drained with exit %d, want 0", c)
	}
}
