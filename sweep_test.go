package critics

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"critics/internal/exp"
)

// pairRemote is an exp.Remote that computes each request in process and
// records how many calls overlap. With wait set, a call blocks until a
// second call is in flight, so a caller that dispatches its measurements one
// after another stalls: the call then gives up (the caller falls back to a
// local build) and is counted.
type pairRemote struct {
	wait bool
	pair chan struct{} // closed once two calls are in flight

	mu       sync.Mutex
	inflight int
	peak     int
	calls    int
	stalled  int
}

func newPairRemote(wait bool) *pairRemote {
	return &pairRemote{wait: wait, pair: make(chan struct{})}
}

func (r *pairRemote) MeasureRemote(ctx context.Context, req exp.MeasureRequest) ([]*exp.Measurement, error) {
	r.mu.Lock()
	r.calls++
	r.inflight++
	if r.inflight > r.peak {
		r.peak = r.inflight
		if r.peak == 2 {
			close(r.pair)
		}
	}
	r.mu.Unlock()
	defer func() {
		r.mu.Lock()
		r.inflight--
		r.mu.Unlock()
	}()
	if r.wait {
		select {
		case <-r.pair:
		case <-time.After(10 * time.Second):
			r.mu.Lock()
			r.stalled++
			r.mu.Unlock()
			return nil, errors.New("no second measurement in flight")
		}
	}
	return exp.ExecuteMeasure(ctx, req, nil)
}

func (r *pairRemote) Width() int { return 0 }

// counts returns the calls made, the most in flight at once, and how many
// calls gave up waiting for a second one.
func (r *pairRemote) counts() (calls, peak, stalled int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.calls, r.peak, r.stalled
}

// TestOptimizeDispatchesBothMeasurements: an optimize job's baseline and
// CritIC measurements have distinct traces, so with more than one worker
// both are on the wire at once; at Workers == 1 they go one after another.
// The report is the same either way.
func TestOptimizeDispatchesBothMeasurements(t *testing.T) {
	both := newPairRemote(true)
	rep, err := OptimizeApp("acrobat", WithQuickScale(), WithWorkers(2), WithRemoteExecution(both))
	if err != nil {
		t.Fatal(err)
	}
	if calls, peak, stalled := both.counts(); calls != 2 || peak != 2 || stalled != 0 {
		t.Errorf("Workers 2: %d calls, at most %d in flight, %d stalled; want 2, 2, 0", calls, peak, stalled)
	}

	one := newPairRemote(false)
	serial, err := OptimizeApp("acrobat", WithQuickScale(), WithWorkers(1), WithRemoteExecution(one))
	if err != nil {
		t.Fatal(err)
	}
	if calls, peak, _ := one.counts(); calls != 2 || peak != 1 {
		t.Errorf("Workers 1: %d calls, at most %d in flight; want 2 one at a time", calls, peak)
	}
	if rep.String() != serial.String() {
		t.Errorf("reports differ between Workers 2 and 1:\n%s\nvs\n%s", rep, serial)
	}
}

// TestOptimizeReportsWorkerInvariant: the concurrent sweep changes where an
// optimize job's two measurements run, never what it reports. Every mobile
// app's report, field for field, is the same at Workers 1 and 4.
func TestOptimizeReportsWorkerInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("optimizes every mobile app twice; skipped in -short")
	}
	for _, name := range Apps() {
		serial, err := OptimizeApp(name, WithQuickScale(), WithWorkers(1))
		if err != nil {
			t.Fatal(err)
		}
		par, err := OptimizeApp(name, WithQuickScale(), WithWorkers(4))
		if err != nil {
			t.Fatal(err)
		}
		if s, p := fmt.Sprintf("%+v", *serial), fmt.Sprintf("%+v", *par); s != p {
			t.Errorf("%s: report differs between Workers 1 and 4:\n%s\nvs\n%s", name, s, p)
		}
	}
}
