package exp

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"critics/internal/cpu"
	"critics/internal/workload"
)

// fourKinds is a sweep of four groups: four compiled variants, one machine.
func fourKinds() []MeasureUnit {
	cfg := cpu.DefaultConfig()
	return []MeasureUnit{{VarBase, cfg}, {VarHoist, cfg}, {VarCritIC, cfg}, {VarOPP16, cfg}}
}

func acrobat(t *testing.T) workload.App {
	t.Helper()
	a, ok := workload.FindApp("acrobat")
	if !ok {
		t.Fatal("catalog app missing")
	}
	return a
}

// gateRemote is a Remote whose calls each wait until need calls are in
// flight before computing the request in process; a call that waits 10 s in
// vain gives up (its caller then builds locally) and is counted as stalled.
type gateRemote struct {
	need int
	open chan struct{} // closed once need calls are in flight

	mu       sync.Mutex
	inflight int
	peak     int
	stalled  int
}

func (r *gateRemote) MeasureRemote(ctx context.Context, req MeasureRequest) ([]*Measurement, error) {
	r.mu.Lock()
	r.inflight++
	if r.inflight > r.peak {
		r.peak = r.inflight
		if r.peak == r.need {
			close(r.open)
		}
	}
	r.mu.Unlock()
	defer func() {
		r.mu.Lock()
		r.inflight--
		r.mu.Unlock()
	}()
	select {
	case <-r.open:
	case <-time.After(10 * time.Second):
		r.mu.Lock()
		r.stalled++
		r.mu.Unlock()
		return nil, errors.New("gate never opened")
	}
	return ExecuteMeasure(ctx, req, nil)
}

func (r *gateRemote) Width() int { return 0 }

// TestSweepGroupsBoundedByWorkers: a sweep's kind groups are in flight
// together, up to the context's worker bound and never beyond it, and the
// results are the serial schedule's.
func TestSweepGroupsBoundedByWorkers(t *testing.T) {
	a := acrobat(t)
	ref := batchEquivCtx(false)
	ref.Workers = 1
	want := ref.MeasureSweep(a, fourKinds(), false)

	for _, workers := range []int{2, 4} {
		c := batchEquivCtx(false)
		c.Workers = workers
		r := &gateRemote{need: workers, open: make(chan struct{})}
		c.SetRemote(r)
		got := c.MeasureSweep(a, fourKinds(), false)
		r.mu.Lock()
		peak, stalled := r.peak, r.stalled
		r.mu.Unlock()
		if peak != workers || stalled != 0 {
			t.Errorf("Workers %d: at most %d groups in flight, %d stalled; want %d and 0", workers, peak, stalled, workers)
		}
		for i := range want {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Errorf("Workers %d: unit %d differs from the serial schedule", workers, i)
			}
		}
	}
}

// TestSweepGroupPanicReachesCaller: a group that panics, whichever goroutine
// ran it, has its panic re-raised on the caller's goroutine, where the entry
// points' recover handlers run.
func TestSweepGroupPanicReachesCaller(t *testing.T) {
	a := acrobat(t)
	cfg := cpu.DefaultConfig()
	for _, units := range [][]MeasureUnit{
		{{VarBase, cfg}, {"no-such-kind", cfg}},
		{{"no-such-kind", cfg}, {VarBase, cfg}},
	} {
		c := batchEquivCtx(false)
		c.Workers = 2
		func() {
			defer func() {
				if s, _ := recover().(string); !strings.Contains(s, "unknown variant kind no-such-kind") {
					t.Errorf("%s first: recovered %q, want the unknown-kind panic", units[0].Kind, s)
				}
			}()
			c.MeasureSweep(a, units, false)
		}()
	}
}

// cancelRemote cancels the run context from inside each dispatch and then
// serves a complete measurement, as a fleet would that finished just after
// the job was cancelled.
type cancelRemote struct {
	cancel context.CancelFunc
	calls  atomic.Int64
}

func (r *cancelRemote) MeasureRemote(_ context.Context, req MeasureRequest) ([]*Measurement, error) {
	r.calls.Add(1)
	r.cancel()
	return ExecuteMeasure(context.Background(), req, nil)
}

func (r *cancelRemote) Width() int { return 0 }

// countRemote computes each request in process, as a worker would, and
// records how many configs each request carried, by kind. A non-nil mangle
// rewrites every reply before it is returned.
type countRemote struct {
	mangle func([]*Measurement) []*Measurement

	mu   sync.Mutex
	reqs map[string][]int
}

func (r *countRemote) MeasureRemote(ctx context.Context, req MeasureRequest) ([]*Measurement, error) {
	r.mu.Lock()
	r.reqs[req.Kind] = append(r.reqs[req.Kind], len(req.Configs))
	r.mu.Unlock()
	ms, err := ExecuteMeasure(ctx, req, nil)
	if err == nil && r.mangle != nil {
		ms = r.mangle(ms)
	}
	return ms, err
}

func (r *countRemote) Width() int { return 0 }

// fig11Units is fig11's seven machine configurations (the default and one
// per hardware mechanism) for the base and CritIC binaries.
func fig11Units() []MeasureUnit {
	var units []MeasureUnit
	for _, kind := range []string{VarBase, VarCritIC} {
		units = append(units, MeasureUnit{kind, cpu.DefaultConfig()})
		for _, m := range HWMechs {
			units = append(units, MeasureUnit{kind, ApplyHW(m)})
		}
	}
	return units
}

// TestRemoteGetsOneRequestPerGroup: with a Remote attached, a sweep plans
// the lanes a local build would and dispatches each kind's uncached configs
// as one request, so a cached config is not sent. The results are a local
// sweep's.
func TestRemoteGetsOneRequestPerGroup(t *testing.T) {
	a := acrobat(t)
	want := batchEquivCtx(false).MeasureSweep(a, fig11Units(), false)
	for _, workers := range []int{1, 2} {
		c := batchEquivCtx(false)
		c.Workers = workers
		c.MeasureVariant(a, VarBase, cpu.DefaultConfig(), false)
		r := &countRemote{reqs: map[string][]int{}}
		c.SetRemote(r)
		got := c.MeasureSweep(a, fig11Units(), false)
		if wantReqs := map[string][]int{VarBase: {6}, VarCritIC: {7}}; !reflect.DeepEqual(r.reqs, wantReqs) {
			t.Errorf("Workers %d: configs per request %v, want %v", workers, r.reqs, wantReqs)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("Workers %d: remote sweep differs from a local one", workers)
		}
	}
}

// TestRemoteBadReplyFallsBack: a reply that does not hold one measurement
// per config, none nil, is built locally instead, with a local build's
// results.
func TestRemoteBadReplyFallsBack(t *testing.T) {
	a := acrobat(t)
	want := batchEquivCtx(false).MeasureSweep(a, fig11Units(), false)
	for name, mangle := range map[string]func([]*Measurement) []*Measurement{
		"short":     func(ms []*Measurement) []*Measurement { return ms[:len(ms)-1] },
		"nil entry": func(ms []*Measurement) []*Measurement { ms[1] = nil; return ms },
	} {
		c := batchEquivCtx(false)
		r := &countRemote{mangle: mangle, reqs: map[string][]int{}}
		c.SetRemote(r)
		got := c.MeasureSweep(a, fig11Units(), false)
		if wantReqs := map[string][]int{VarBase: {7}, VarCritIC: {7}}; !reflect.DeepEqual(r.reqs, wantReqs) {
			t.Errorf("%s reply: configs per request %v, want %v", name, r.reqs, wantReqs)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s reply: the fallback's results differ from a local sweep", name)
		}
	}
}

// TestCancelledSweepRetainsNothing: a sweep cancelled while groups are in
// flight retains none of their measurements in the memo, complete ones
// included, and starts no group once the cancellation is seen.
func TestCancelledSweepRetainsNothing(t *testing.T) {
	a := acrobat(t)
	for _, workers := range []int{1, 2} {
		c := batchEquivCtx(false)
		c.Workers = workers
		ctx, cancel := context.WithCancel(context.Background())
		c.SetRunContext(ctx)
		r := &cancelRemote{cancel: cancel}
		c.SetRemote(r)
		c.MeasureSweep(a, fourKinds(), false)
		if n := c.caches.meas.Len(); n != 0 {
			t.Errorf("Workers %d: %d measurements retained after cancellation, want 0", workers, n)
		}
		if n := r.calls.Load(); n > int64(workers) {
			t.Errorf("Workers %d: %d groups dispatched, want at most %d", workers, n, workers)
		}
	}
}

// TestRunDeadlineInsideShard: a run whose deadline expires while shards are
// running on a 4-worker pool returns the context error, or the full output
// when it finished in time. A shard that fails on the cancelled context
// panics on a pool goroutine; that panic must reach RunContext's recover,
// not kill the process.
func TestRunDeadlineInsideShard(t *testing.T) {
	var full string
	for _, d := range []time.Duration{5, 10, 20, 40, 80} {
		c := QuickContext()
		c.Workers = 4
		ctx, cancel := context.WithTimeout(context.Background(), d*time.Millisecond)
		out, err := RunContext(ctx, "fig8", c)
		cancel()
		if err != nil {
			if !errors.Is(err, context.DeadlineExceeded) || out != "" {
				t.Errorf("deadline %v: got %q, %v; want no output and the context error", d*time.Millisecond, out, err)
			}
			continue
		}
		if full == "" {
			if full, err = Run("fig8", QuickContext()); err != nil {
				t.Fatal(err)
			}
		}
		if out != full {
			t.Errorf("deadline %v: completed run differs from an uncancelled one", d*time.Millisecond)
		}
	}
}
