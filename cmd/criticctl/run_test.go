package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"critics/internal/artifact"
	"critics/internal/dist"
	"critics/internal/fleet"
	"critics/internal/obs"
	"critics/internal/server"
	"critics/internal/telemetry"
	"critics/internal/workload"
)

// criticctl runs criticctl's run with args and returns its exit code,
// stdout and stderr.
func criticctl(args ...string) (int, string, string) {
	var stdout, stderr bytes.Buffer
	code := run(context.Background(), args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// mustRun runs criticctl and requires exit code 0.
func mustRun(t *testing.T, args ...string) string {
	t.Helper()
	code, out, stderr := criticctl(args...)
	if code != 0 {
		t.Fatalf("criticctl %v exited %d\nstdout:\n%s\nstderr:\n%s", args, code, out, stderr)
	}
	return out
}

// startDaemon serves a criticd server in process and returns its URL;
// cleanup drains it.
func startDaemon(t *testing.T, cfg server.Config) string {
	t.Helper()
	s := server.New(cfg)
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("drain: %v", err)
		}
		hs.Close()
	})
	return hs.URL
}

// TestCommandsAgainstDaemon drives each job, trace and fleet command
// through run against an in-process daemon, fleet status before and after
// device sketches arrive, and the usage errors' exit codes.
func TestCommandsAgainstDaemon(t *testing.T) {
	url := startDaemon(t, server.Config{QueueSize: 8, Workers: 2})
	out := mustRun(t, "-addr", url, "submit", "-app", "acrobat", "-quick", "-wait")
	lines := strings.SplitN(out, "\n", 2)
	fields := strings.Fields(lines[0])
	if len(fields) < 2 || fields[0] != "job" || !strings.Contains(lines[1], "speedup") {
		t.Fatalf("submit -wait printed:\n%s", out)
	}
	job := fields[1]
	for _, args := range [][]string{
		{"status", job}, {"wait", job}, {"result", job}, {"trace", job}, {"trace", job, "-chrome"},
		{"events", "-job", job}, {"slo", "-target", "e2e:p99<=10m"}, {"top"}, {"apps"}, {"experiments"},
		{"fleet", "status"}, {"artifacts", "list"},
	} {
		mustRun(t, append([]string{"-addr", url}, args...)...)
	}
	if out := mustRun(t, "-addr", url, "status", job); !strings.Contains(out, "state=succeeded") {
		t.Errorf("status %s: %s", job, out)
	}

	// Once device sketches are merged, fleet status prints the app's row.
	app := workload.MobileApps()[0]
	c := server.NewClient(url)
	for _, device := range []string{"d0", "d1"} {
		if err := c.PostProfile(context.Background(), fleet.BuildDeviceSketch(app, device, 1).Encode()); err != nil {
			t.Fatalf("post profile: %v", err)
		}
	}
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		out := mustRun(t, "-addr", url, "fleet", "status")
		lines := strings.Split(strings.TrimSpace(out), "\n")
		if row := strings.Fields(lines[len(lines)-1]); len(lines) == 2 && strings.HasPrefix(lines[0], "APP") &&
			len(row) == 7 && row[0] == app.Params.Name && row[2] == "2" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("fleet status after two device sketches:\n%s", out)
		}
	}
	for _, c := range []struct {
		args []string
		code int
	}{
		{nil, 2},
		{[]string{"bogus"}, 2},
		{[]string{"status"}, 2},
		{[]string{"status", "-bogus"}, 2},
		{[]string{"submit", "-h"}, 0},
		{[]string{"fleet"}, 2},
		{[]string{"slo"}, 2},
		{[]string{"slo", "-target", "bogus"}, 2},
		{[]string{"slo", "-target", "e2e:p99<=1ns"}, 1},
		{[]string{"result", "j999999"}, 1},
		{[]string{"artifacts"}, 1},
	} {
		if code, _, stderr := criticctl(append([]string{"-addr", url}, c.args...)...); code != c.code {
			t.Errorf("criticctl %v exited %d, want %d: %s", c.args, code, c.code, stderr)
		}
	}
}

// TestScanFleetByteIdentical: a scan chunk-uploaded (4 KiB chunks, the
// resumable protocol) to a coordinator with two workers, one listed
// up-front and one self-registered, reports byte-identically to the same
// scan computed in process with -local; so does a second scan of the same
// image, which the coordinator and the workers serve from their index
// caches. trace -o writes a scan job's trace, top lists both workers, the
// store lists the uploads, chunks were scored on the remote path, uploads
// were committed, and gc runs.
func TestScanFleetByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("scans on a two-worker fleet")
	}
	reg := telemetry.NewRegistry()
	coord := dist.NewCoordinator(dist.Config{Registry: reg, RetryBackoff: 5 * time.Millisecond})
	defer coord.Close()
	url := startDaemon(t, server.Config{QueueSize: 8, Workers: 2, Registry: reg, Coordinator: coord})
	for i := 0; i < 2; i++ {
		// Workers fetch the scan artifacts from the daemon by digest.
		store, err := artifact.Open(artifact.Config{Dir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		wk := dist.NewWorker(dist.WorkerConfig{Capacity: 2, ArtifactSource: url, Artifacts: store})
		ws := httptest.NewServer(wk.Handler())
		defer ws.Close()
		defer wk.Drain()
		if i == 0 {
			coord.AddWorkerCapacity(ws.URL, 2)
		} else if err := dist.Register(context.Background(), nil, url, ws.URL, 2); err != nil {
			t.Fatal(err)
		}
	}
	if out := mustRun(t, "-addr", url, "workers"); strings.Count(out, "\n") != 2 {
		t.Fatalf("workers printed:\n%s", out)
	}

	var job string
	for _, args := range [][]string{
		{"scan", "-app", "acrobat", "-chunk-bytes", "4096"},
		{"scan", "-app", "acrobat", "-instrs", "20000"},
	} {
		code, remote, stderr := criticctl(append([]string{"-addr", url}, args...)...)
		if code != 0 {
			t.Fatalf("criticctl %v exited %d: %s", args, code, stderr)
		}
		if local := mustRun(t, append(args, "-local")...); remote != local {
			t.Errorf("%v: fleet-dispatched report differs from -local:\n%s\nlocal:\n%s", args, remote, local)
		}
		if _, rest, ok := strings.Cut(stderr, "scan job "); ok {
			job, _, _ = strings.Cut(rest, " ")
		}
	}

	// trace -o writes the document trace prints.
	if job == "" {
		t.Fatal("scan printed no job id")
	}
	file := filepath.Join(t.TempDir(), "trace.json")
	if out := mustRun(t, "-addr", url, "trace", job, "-o", file); !strings.HasPrefix(out, "trace written to "+file) {
		t.Errorf("trace %s -o printed %q", job, out)
	}
	if raw, err := os.ReadFile(file); err != nil || string(raw) != mustRun(t, "-addr", url, "trace", job) || !json.Valid(raw) {
		t.Errorf("trace %s -o wrote %d bytes (%v), not the JSON trace prints", job, len(raw), err)
	}
	// top lists both workers below the job and stage summary.
	out := mustRun(t, "-addr", url, "top")
	if !strings.Contains(out, "\nworkers   healthy=2\n") || strings.Count(out, "  healthy  inflight=") != 2 {
		t.Errorf("top printed:\n%s", out)
	}
	if out := mustRun(t, "-addr", url, "artifacts", "list"); !strings.Contains(out, "sha256:") {
		t.Errorf("artifacts list:\n%s", out)
	}
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var metrics bytes.Buffer
	metrics.ReadFrom(resp.Body)
	resp.Body.Close()
	if remote, ok := obs.MetricValue(metrics.String(), "critics_scan_chunks_scored_total", map[string]string{"path": "remote"}); !ok || remote <= 0 {
		t.Errorf("chunks scored remotely: %v (found %v), want > 0", remote, ok)
	}
	if !strings.Contains(metrics.String(), "\ncritics_artifact_uploads_total{outcome=\"committed\"}") {
		t.Error("no committed artifact uploads exported")
	}
	mustRun(t, "-addr", url, "artifacts", "gc")
}
