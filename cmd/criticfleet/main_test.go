package main

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"critics/internal/fleet"
	"critics/internal/server"
)

// closedLoop serves a quick-scale criticd server in process, runs
// criticfleet against it with args, checks what the fleet loop exports,
// drains the server, and returns its app's fleet state.
func closedLoop(t *testing.T, args ...string) fleet.AppStatus {
	t.Helper()
	s := server.New(server.Config{QueueSize: 8, Workers: 2, QuickScale: true})
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()
	var stdout, stderr bytes.Buffer
	if code := run(context.Background(), append([]string{"-addr", hs.URL}, args...), &stdout, &stderr); code != 0 {
		t.Fatalf("criticfleet %v exited %d\nstdout:\n%s\nstderr:\n%s", args, code, stdout.String(), stderr.String())
	}

	resp, err := http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, family := range []string{"sketches_total", "consensus_revision", "devices", "queue_depth", "generations_total", "converged"} {
		if !bytes.Contains(metrics, []byte("\ncritics_fleet_"+family)) {
			t.Errorf("/metrics lacks critics_fleet_%s", family)
		}
	}
	c := server.NewClient(hs.URL)
	ctx := context.Background()
	evs, err := c.Events(ctx, "")
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range []string{`"sketch-merged"`, `"converged"`} {
		if !bytes.Contains(evs, []byte(ev)) {
			t.Errorf("flight recorder holds no %s event", ev)
		}
	}
	apps, err := c.Fleet(ctx)
	if err != nil || len(apps) == 0 {
		t.Fatalf("fleet status: %+v, %v", apps, err)
	}
	dctx, cancel := context.WithTimeout(ctx, time.Minute)
	defer cancel()
	if err := s.Shutdown(dctx); err != nil {
		t.Errorf("drain: %v", err)
	}
	a := apps[0]
	if a.Generations < 1 || !a.Converged {
		t.Errorf("%s: %d optimizer generations, converged %v; want >= 1 and converged", a.App, a.Generations, a.Converged)
	}
	return a
}

// TestClosedLoopDeterministic is the acceptance check of the fleet PGO
// loop: two independent daemons, two criticfleet runs with the same chaos
// seed (25% of uploads dropped) but permuted device arrival order. Both
// form byte-identical consensus sketches and converge to the same winner
// selection.
func TestClosedLoopDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the fleet optimizer")
	}
	flags := []string{"-devices", "6", "-rounds", "2", "-drop", "0.25", "-seed", "5", "-converge", "-quick"}
	first := closedLoop(t, flags...)
	second := closedLoop(t, append(flags, "-shuffle")...)
	if first.Digest != second.Digest || first.WinnerDigest != second.WinnerDigest {
		t.Errorf("permuted arrival changed the outcome: consensus %s / %s, winner %s / %s",
			first.Digest, second.Digest, first.WinnerDigest, second.WinnerDigest)
	}
}

// TestFlagErrors: bad flags and arguments exit as before.
func TestFlagErrors(t *testing.T) {
	for _, c := range []struct {
		args []string
		code int
		text string
	}{
		{[]string{"-bogus"}, 2, "flag provided but not defined"},
		{[]string{"-devices", "0"}, 1, "must be positive"},
		{[]string{"-apps", "nope"}, 1, `unknown app "nope"`},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(context.Background(), c.args, &stdout, &stderr); code != c.code || !strings.Contains(stderr.String(), c.text) {
			t.Errorf("criticfleet %v: exit %d, stderr %q; want %d and %q", c.args, code, stderr.String(), c.code, c.text)
		}
	}
}

// TestUploadRefusedEndsRun: an upload refused for good (a 400, not a
// retryable 429) ends the run with exit 1 and the device's error, before
// the round's summary.
func TestUploadRefusedEndsRun(t *testing.T) {
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusBadRequest)
		w.Write([]byte(`{"error":"bad sketch","retryable":false}`))
	}))
	defer hs.Close()
	var stdout, stderr bytes.Buffer
	code := run(context.Background(), []string{"-addr", hs.URL, "-devices", "2", "-rounds", "1"}, &stdout, &stderr)
	if code != 1 || !strings.Contains(stderr.String(), "round 1 acrobat: criticd: 400 bad sketch") || stdout.Len() != 0 {
		t.Errorf("exit %d, stdout %q, stderr %q; want 1, nothing, the device's error", code, stdout.String(), stderr.String())
	}
}
