package dist

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"critics"
	"critics/internal/exp"
	"critics/internal/obs"
	"critics/internal/sched"
	"critics/internal/telemetry"
	"critics/internal/trace"
)

// failAfterN passes the first n task posts through to the wrapped worker and
// answers 500 to every one after — a worker dying mid-run. Probes and the
// already-admitted tasks are untouched, so the coordinator keeps believing in
// the worker (heartbeats pass) and keeps having dispatches blow up on it,
// exercising the retry path repeatedly.
type failAfterN struct {
	h http.Handler
	n int64

	seen atomic.Int64
}

func (f *failAfterN) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodPost && r.URL.Path == TaskPath && f.seen.Add(1) > f.n {
		writeJSON(w, http.StatusInternalServerError, errorBody{Error: "injected mid-run worker failure"})
		return
	}
	f.h.ServeHTTP(w, r)
}

// distCtx returns a reduced-scale experiment context matching the exp
// package's own determinism tests.
func distCtx(workers int) *exp.Context {
	c := exp.QuickContext()
	c.WarmupArch = 4_000
	c.WarmArch = 5_000
	c.MeasureArch = 12_000
	c.ProfilePlan = trace.SamplePlan{Samples: 3, Length: 8_000, Gap: 2_000, Warmup: 2_000}
	c.Workers = workers
	return c
}

// TestDistributedDeterminism is the subsystem's acceptance gate: an
// experiment run through a coordinator and two real workers — one of which
// starts failing mid-run — produces byte-identical output to a serial local
// run. It proves the whole chain at once: the MeasureRequest wire form
// carries everything a measurement depends on, the JSON round-trip is exact,
// retries re-execute rather than corrupt, and the local fallback (when
// attempts exhaust) computes the same bits the fleet would have.
func TestDistributedDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real experiments; skipped in -short")
	}
	for _, id := range []string{"fig8", "fig10a", "fig-frontend"} {
		t.Run(id, func(t *testing.T) {
			want, err := exp.Run(id, distCtx(1))
			if err != nil {
				t.Fatalf("%s (serial local): %v", id, err)
			}

			// A healthy worker and one that dies after 3 tasks.
			w1 := NewWorker(WorkerConfig{})
			srv1 := httptest.NewServer(w1.Handler())
			defer srv1.Close()
			w2 := NewWorker(WorkerConfig{})
			srv2 := httptest.NewServer(&failAfterN{h: w2.Handler(), n: 3})
			defer srv2.Close()

			reg := telemetry.NewRegistry()
			coord := NewCoordinator(Config{
				TaskTimeout:  2 * time.Minute,
				MaxAttempts:  3,
				RetryBackoff: 5 * time.Millisecond,
				HedgeDelay:   -1,
				Registry:     reg,
			})
			defer coord.Close()
			coord.AddWorkerCapacity(srv1.URL, 2)
			coord.AddWorkerCapacity(srv2.URL, 2)

			c := distCtx(4)
			c.SetRemote(coord)
			got, err := exp.Run(id, c)
			if err != nil {
				t.Fatalf("%s (distributed): %v", id, err)
			}
			if got != want {
				t.Errorf("%s: distributed output differs from serial local\n--- serial ---\n%s\n--- distributed ---\n%s", id, want, got)
			}

			m := coord.met
			if m.dispatched.Value() == 0 {
				t.Error("no tasks were dispatched; the remote path was not exercised")
			}
			if m.retried.Value() == 0 {
				t.Error("no retries despite the injected worker failure")
			}
			t.Logf("%s: dispatched=%d retried=%d failed=%d", id,
				m.dispatched.Value(), m.retried.Value(), m.failed.Value())
		})
	}
}

// shardMaps runs experiment id under a fresh trace and returns its map:exp
// span ids with their shards attribute.
func shardMaps(t *testing.T, id string, opts ...critics.Option) map[string]string {
	t.Helper()
	tr := obs.NewTrace(id)
	if _, err := critics.ExperimentContext(obs.ContextWith(context.Background(), tr, ""), id, opts...); err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	spans, _ := tr.Snapshot()
	maps := map[string]string{}
	for _, s := range spans {
		if strings.HasPrefix(s.ID, "map:exp#") {
			maps[s.ID] = ""
			for _, a := range s.Attrs {
				if a.Key == "shards" {
					maps[s.ID] = a.Value
				}
			}
		}
	}
	return maps
}

// TestDistributedRunRecordsShardMaps: an experiment whose measurements run
// on the fleet still shards on the context's own pool, so its trace holds
// the same map:exp spans as a local run (one per shard map, each with its
// shard count) and the exp pool's task counter counts every shard.
func TestDistributedRunRecordsShardMaps(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real experiment; skipped in -short")
	}
	want := shardMaps(t, "fig3a", critics.WithQuickScale())
	if len(want) == 0 {
		t.Fatal("local fig3a recorded no shard map")
	}

	w1 := NewWorker(WorkerConfig{})
	srv1 := httptest.NewServer(w1.Handler())
	defer srv1.Close()
	w2 := NewWorker(WorkerConfig{})
	srv2 := httptest.NewServer(w2.Handler())
	defer srv2.Close()
	reg := telemetry.NewRegistry()
	coord := NewCoordinator(Config{HedgeDelay: -1, Registry: reg})
	defer coord.Close()
	coord.AddWorkerCapacity(srv1.URL, 2)
	coord.AddWorkerCapacity(srv2.URL, 2)

	got := shardMaps(t, "fig3a", critics.WithQuickScale(), critics.WithTelemetry(reg),
		critics.WithRemoteExecution(coord))
	if coord.met.dispatched.Value() == 0 {
		t.Fatal("no tasks were dispatched; the remote path was not exercised")
	}
	shards := 0
	for id, n := range want {
		if got[id] != n {
			t.Errorf("distributed %s: shards %q, want %q as in the local run", id, got[id], n)
		}
		k, _ := strconv.Atoi(n)
		shards += k
	}
	if len(got) != len(want) {
		t.Errorf("distributed run recorded shard maps %v, want %v", got, want)
	}
	if done := sched.NewPoolMetrics(reg, "exp").TasksDone.Value(); done != int64(shards) {
		t.Errorf("critics_pool_tasks_done_total{pool=\"exp\"} = %d, want %d", done, shards)
	}
}
