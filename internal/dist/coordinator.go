package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"critics/internal/exp"
	"critics/internal/obs"
	"critics/internal/scan"
	"critics/internal/telemetry"
)

// Config tunes a Coordinator. The zero value is usable; NewCoordinator fills
// defaults.
type Config struct {
	// TaskTimeout bounds a single dispatch attempt (post → decoded result).
	// Default 2m.
	TaskTimeout time.Duration

	// MaxAttempts is how many workers a task tries before the coordinator
	// gives up and the caller falls back to local execution. Default 4.
	MaxAttempts int

	// RetryBackoff is the delay before the second attempt; it doubles per
	// attempt. Default 100ms.
	RetryBackoff time.Duration

	// HedgeDelay is how long an attempt may stay outstanding before a
	// speculative duplicate is dispatched to a different worker (first result
	// wins, the loser is cancelled). 0 disables hedging. Default 30s.
	HedgeDelay time.Duration

	// Heartbeat is the /readyz probe cadence. Default 2s.
	Heartbeat time.Duration

	// Registry receives the coordinator's metric families; nil disables them.
	Registry *telemetry.Registry

	// Logger receives structured dispatch logs; nil discards them.
	Logger *slog.Logger

	// Client issues task and probe requests; nil uses a default with no
	// global timeout (per-attempt contexts bound each call).
	Client *http.Client
}

const (
	// probeTimeout bounds one heartbeat probe.
	probeTimeout = time.Second

	// failAfter is how many consecutive probe failures mark a worker
	// unhealthy.
	failAfter = 2

	// oversubscribe multiplies the fleet's healthy capacity into Width, the
	// floor on an experiment's shard pool, keeping workers saturated while
	// shards block on the wire.
	oversubscribe = 2
)

// workerState is one fleet member. Mutable fields are guarded by
// Coordinator.mu except the atomics, which hot paths touch without it.
type workerState struct {
	url      string
	capacity int
	seq      int64 // registration order; dispatch tie-break, so retries are deterministic under equal load

	healthy    bool
	probeFails int // consecutive heartbeat failures

	inflightN atomic.Int64
	tasksDone atomic.Int64
	failures  atomic.Int64

	inflightG  *telemetry.Gauge   // nil when metrics are off
	tasksTotal *telemetry.Counter // nil when metrics are off
}

// Coordinator partitions experiment work across a worker fleet. It is an
// exp.Remote: MeasureRemote dispatches one lane group with retry and
// hedging, and Width sizes the experiment's own shard pool so many groups
// are on the wire at once. ScanRemote does the same for scan batches.
// Construct with NewCoordinator; stop with Drain then Close.
type Coordinator struct {
	cfg  Config
	log  *slog.Logger
	met  *metrics      // nil when cfg.Registry is nil
	obsv *obs.Observer // nil disables tracing/flight-recorder/SLO hooks

	mu      sync.Mutex
	workers map[string]*workerState
	nextSeq int64

	nextTask atomic.Int64
	draining atomic.Bool
	inflight sync.WaitGroup

	stopHeartbeat context.CancelFunc
	heartbeatDone chan struct{}
}

// NewCoordinator builds a coordinator and starts its heartbeat loop.
func NewCoordinator(cfg Config) *Coordinator {
	if cfg.TaskTimeout <= 0 {
		cfg.TaskTimeout = 2 * time.Minute
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 4
	}
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = 100 * time.Millisecond
	}
	if cfg.HedgeDelay == 0 {
		cfg.HedgeDelay = 30 * time.Second
	}
	if cfg.HedgeDelay < 0 {
		cfg.HedgeDelay = 0 // negative disables explicitly
	}
	if cfg.Heartbeat <= 0 {
		cfg.Heartbeat = 2 * time.Second
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{}
	}
	log := cfg.Logger
	if log == nil {
		log = slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelError + 4}))
	}
	c := &Coordinator{
		cfg:     cfg,
		log:     log,
		workers: make(map[string]*workerState),
	}
	if cfg.Registry != nil {
		c.met = newMetrics(cfg.Registry)
	}
	hbCtx, cancel := context.WithCancel(context.Background())
	c.stopHeartbeat = cancel
	c.heartbeatDone = make(chan struct{})
	go c.heartbeatLoop(hbCtx)
	return c
}

// SetObserver attaches the fleet observability layer: dispatch/retry/hedge
// spans on job traces, flight-recorder events, and the dispatch_rtt SLO
// stage. Call before serving traffic (it is not synchronized against
// dispatches).
func (c *Coordinator) SetObserver(o *obs.Observer) { c.obsv = o }

// traceCtx is the per-dispatch trace handle threaded from MeasureRemote
// down to post: the job's trace, the span new legs parent to, and the job
// id for flight-recorder events. nil when the request carries no trace.
type traceCtx struct {
	t      *obs.Trace
	parent string
	job    string
}

// event appends a flight-recorder event when the observer is attached.
func (c *Coordinator) event(tc *traceCtx, typ, detail string) {
	if c.obsv == nil || tc == nil {
		return
	}
	c.obsv.Ring.Append(tc.job, typ, detail)
}

// Close stops the heartbeat loop. It does not wait for in-flight tasks; call
// Drain first for a graceful stop.
func (c *Coordinator) Close() {
	c.stopHeartbeat()
	<-c.heartbeatDone
}

// Drain refuses new dispatches (MeasureRemote errors immediately, sending
// callers to their local fallback) and waits for in-flight tasks or ctx.
func (c *Coordinator) Drain(ctx context.Context) error {
	c.draining.Store(true)
	done := make(chan struct{})
	go func() { c.inflight.Wait(); close(done) }()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("dist: drain interrupted: %w", ctx.Err())
	}
}

// AddWorker registers a worker by base URL with capacity 1, probing it once
// synchronously so an alive worker is dispatchable immediately.
func (c *Coordinator) AddWorker(url string) { c.AddWorkerCapacity(url, 1) }

// AddWorkerCapacity registers a worker with an explicit concurrent-task
// capacity. Re-registering an existing URL updates its capacity and resets
// its health (a restarted worker re-announcing itself).
func (c *Coordinator) AddWorkerCapacity(url string, capacity int) {
	if capacity <= 0 {
		capacity = 1
	}
	alive := c.probe(url)

	c.mu.Lock()
	w, ok := c.workers[url]
	if !ok {
		w = &workerState{url: url, seq: c.nextSeq}
		c.nextSeq++
		if c.met != nil {
			w.inflightG = c.met.inflight(url)
			w.tasksTotal = c.met.workerTasks(url)
		}
		c.workers[url] = w
	}
	w.capacity = capacity
	w.healthy = alive
	w.probeFails = 0
	c.updateHealthyGaugeLocked()
	c.mu.Unlock()

	c.log.Info("worker registered", "worker", url, "capacity", capacity, "healthy", alive)
}

// RemoveWorker drops a worker from the fleet. In-flight tasks on it run to
// completion (or their timeout); it just receives no new ones.
func (c *Coordinator) RemoveWorker(url string) {
	c.mu.Lock()
	_, ok := c.workers[url]
	delete(c.workers, url)
	c.updateHealthyGaugeLocked()
	c.mu.Unlock()
	if ok {
		c.log.Info("worker deregistered", "worker", url)
	}
}

// Workers returns fleet status sorted by registration order.
func (c *Coordinator) Workers() []WorkerStatus {
	c.mu.Lock()
	states := make([]*workerState, 0, len(c.workers))
	for _, w := range c.workers {
		states = append(states, w)
	}
	sort.Slice(states, func(i, j int) bool { return states[i].seq < states[j].seq })
	out := make([]WorkerStatus, len(states))
	for i, w := range states {
		out[i] = WorkerStatus{
			URL:       w.url,
			Healthy:   w.healthy,
			Capacity:  w.capacity,
			Inflight:  int(w.inflightN.Load()),
			TasksDone: w.tasksDone.Load(),
			Failures:  w.failures.Load(),
		}
	}
	c.mu.Unlock()
	return out
}

// HealthyWorkers returns how many fleet members currently pass heartbeats.
func (c *Coordinator) HealthyWorkers() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.healthyCountLocked()
}

func (c *Coordinator) healthyCountLocked() int {
	n := 0
	for _, w := range c.workers {
		if w.healthy {
			n++
		}
	}
	return n
}

func (c *Coordinator) updateHealthyGaugeLocked() {
	if c.met != nil {
		c.met.healthy.Set(int64(c.healthyCountLocked()))
	}
}

// markUnhealthy records a dispatch failure against a worker without waiting
// for the next heartbeat to notice.
func (c *Coordinator) markUnhealthy(url string) {
	c.mu.Lock()
	if w, ok := c.workers[url]; ok && w.healthy {
		w.healthy = false
		w.probeFails = failAfter
		c.updateHealthyGaugeLocked()
		c.log.Warn("worker marked unhealthy after dispatch failure", "worker", url)
	}
	c.mu.Unlock()
}

// heartbeatLoop probes every worker's /readyz each Heartbeat tick.
func (c *Coordinator) heartbeatLoop(ctx context.Context) {
	defer close(c.heartbeatDone)
	t := time.NewTicker(c.cfg.Heartbeat)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		c.mu.Lock()
		urls := make([]string, 0, len(c.workers))
		for url := range c.workers {
			urls = append(urls, url)
		}
		c.mu.Unlock()
		for _, url := range urls {
			alive := c.probe(url)
			c.mu.Lock()
			w, ok := c.workers[url]
			if !ok {
				c.mu.Unlock()
				continue
			}
			if alive {
				if !w.healthy {
					c.log.Info("worker healthy again", "worker", url)
				}
				w.healthy = true
				w.probeFails = 0
			} else {
				w.probeFails++
				if w.probeFails >= failAfter && w.healthy {
					w.healthy = false
					c.log.Warn("worker failed heartbeats", "worker", url, "consecutive", w.probeFails)
				}
			}
			c.updateHealthyGaugeLocked()
			c.mu.Unlock()
		}
	}
}

// probe GETs a worker's /readyz once.
func (c *Coordinator) probe(url string) bool {
	ctx, cancel := context.WithTimeout(context.Background(), probeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/readyz", nil)
	if err != nil {
		return false
	}
	resp, err := c.cfg.Client.Do(req)
	if err != nil {
		return false
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// pickWorker chooses the healthy worker with the fewest in-flight tasks,
// breaking ties by registration order (deterministic, so tests can predict
// routing), skipping URLs in exclude, and reserves a task slot on it under
// the same lock, so tasks dispatched together spread over idle workers. The
// caller must hand the worker to post, which releases the slot.
func (c *Coordinator) pickWorker(exclude map[string]bool) *workerState {
	c.mu.Lock()
	defer c.mu.Unlock()
	var best *workerState
	var bestLoad int64
	for _, w := range c.workers {
		if !w.healthy || exclude[w.url] {
			continue
		}
		// Load-balance by slots-per-capacity so a capacity-4 worker takes
		// four tasks for a capacity-1 worker's one.
		load := w.inflightN.Load() * 16 / int64(w.capacity)
		if best == nil || load < bestLoad || (load == bestLoad && w.seq < best.seq) {
			best, bestLoad = w, load
		}
	}
	if best != nil {
		best.addInflight(1)
	}
	return best
}

// addInflight moves a worker's in-flight task count and its gauge by d.
func (w *workerState) addInflight(d int64) {
	w.inflightN.Add(d)
	if w.inflightG != nil {
		w.inflightG.Add(d)
	}
}

// errPermanent wraps worker 4xx responses: the task itself is bad, so trying
// another worker would fail identically.
type errPermanent struct{ err error }

func (e errPermanent) Error() string { return e.err.Error() }
func (e errPermanent) Unwrap() error { return e.err }

// errNoWorkers is returned when no healthy, non-excluded worker exists.
var errNoWorkers = errors.New("dist: no healthy workers")

// MeasureRemote implements exp.Remote: it dispatches one lane group to the
// fleet as one task, with retry, backoff and hedging, and returns the
// worker's measurements as decoded. Any error sends the caller to its local
// fallback.
func (c *Coordinator) MeasureRemote(ctx context.Context, req exp.MeasureRequest) ([]*exp.Measurement, error) {
	tr, err := c.run(ctx, Task{Req: req})
	if err != nil {
		return nil, err
	}
	return tr.Meas, nil
}

// ScanRemote dispatches one scan batch (a set of trace chunks against
// digest-referenced artifacts) to the fleet with the same retry/backoff/
// hedging machinery as measurements, returning the per-chunk results.
func (c *Coordinator) ScanRemote(ctx context.Context, st ScanTask) ([]scan.ChunkResult, error) {
	tr, err := c.run(ctx, Task{Scan: &st})
	if err != nil {
		return nil, err
	}
	return tr.Scan, nil
}

// run is the shared dispatch wrapper behind MeasureRemote and ScanRemote. It
// refuses work while draining, counts the task in flight so a drain waits
// for it, numbers it, picks up the caller's job trace, and wraps dispatch in
// metrics, fallback events and the dispatch-RTT SLO stage.
func (c *Coordinator) run(ctx context.Context, task Task) (*TaskResult, error) {
	if c.draining.Load() {
		return nil, errors.New("dist: coordinator draining")
	}
	c.inflight.Add(1)
	defer c.inflight.Done()

	var tc *traceCtx
	if t, parent, ok := obs.FromContext(ctx); ok && t != nil {
		tc = &traceCtx{t: t, parent: parent, job: t.ID()}
	}
	task.ID = c.nextTask.Add(1)

	start := time.Now()
	tr, err := c.dispatch(ctx, task, tc)
	if err != nil {
		if c.met != nil {
			c.met.failed.Inc()
		}
		c.event(tc, obs.EvFallback, fmt.Sprintf("task %d: %v", task.ID, err))
		c.log.Warn("task exhausted all attempts", "task", task.ID, "work", task.label(), "err", err)
		return nil, err
	}
	if c.met != nil {
		c.met.taskSecs.Observe(time.Since(start).Seconds())
	}
	if c.obsv != nil && tc != nil {
		c.obsv.Stages.Observe(obs.StageDispatchRTT, time.Since(start).Seconds(), tc.job)
	}
	return tr, nil
}

// dispatch runs the retry loop: pick a worker, try it (with hedging), and on
// a transient failure back off exponentially and try a different one.
func (c *Coordinator) dispatch(ctx context.Context, task Task, tc *traceCtx) (*TaskResult, error) {
	exclude := make(map[string]bool)
	var lastErr error
	backoff := c.cfg.RetryBackoff
	for attempt := 0; attempt < c.cfg.MaxAttempts; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if attempt > 0 {
			if c.met != nil {
				c.met.retried.Inc()
			}
			c.event(tc, obs.EvRetried, fmt.Sprintf("task %d attempt %d: %v", task.ID, attempt+1, lastErr))
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-time.After(backoff):
			}
			backoff *= 2
		}
		w := c.pickWorker(exclude)
		if w == nil && len(exclude) > 0 {
			// Every healthy worker has already failed this task; the fleet
			// may have partially recovered, so widen the net once.
			clear(exclude)
			w = c.pickWorker(exclude)
		}
		if w == nil {
			lastErr = errNoWorkers
			continue
		}
		tr, err := c.tryWorker(ctx, w, task, exclude, tc, attempt+1)
		if err == nil {
			return tr, nil
		}
		var perm errPermanent
		if errors.As(err, &perm) {
			return nil, err
		}
		lastErr = err
	}
	return nil, fmt.Errorf("dist: task %d failed after %d attempts: %w", task.ID, c.cfg.MaxAttempts, lastErr)
}

// attemptResult is one dispatch leg's outcome inside tryWorker.
type attemptResult struct {
	tr     *TaskResult
	err    error
	worker *workerState
	hedged bool
}

// tryWorker posts the task to w, hedging onto a different worker if the
// attempt is still outstanding after HedgeDelay. The first success wins and
// the loser's request context is cancelled. Both the primary and the hedge
// share one TaskTimeout window. Workers that served a leg (success or
// transient failure) are added to exclude so a retry goes elsewhere.
//
// With a trace attached, every leg records a span under the dispatching
// build: the primary leg of attempt N has id <parent>:aN named "dispatch"
// (N == 1) or "retry" (N > 1); a hedge leg appends ":h". A successful leg
// merges the worker's returned spans under its own span id, rebased into
// the job trace's clock.
func (c *Coordinator) tryWorker(ctx context.Context, w *workerState, task Task, exclude map[string]bool, tc *traceCtx, attempt int) (*TaskResult, error) {
	attemptCtx, cancel := context.WithTimeout(ctx, c.cfg.TaskTimeout)
	defer cancel()

	results := make(chan attemptResult, 2)
	leg := func(w *workerState, hedged bool) {
		legID, name := "", ""
		var t0 int64
		if tc != nil {
			legID = fmt.Sprintf("%s:a%d", tc.parent, attempt)
			name = "dispatch"
			if attempt > 1 {
				name = "retry"
			}
			if hedged {
				legID += ":h"
				name = "hedge"
			}
			t0 = tc.t.Now()
		}
		traceID := ""
		if tc != nil {
			traceID = tc.job
		}
		tr, err := c.post(attemptCtx, w, task, traceID, legID)
		if tc != nil {
			attrs := []obs.Attr{obs.A("worker", w.url)}
			if err != nil {
				attrs = append(attrs, obs.A("error", err.Error()))
			}
			tc.t.Add(obs.Span{
				ID: legID, Parent: tc.parent, Name: name,
				StartUS: t0, DurUS: tc.t.Now() - t0, Attrs: attrs,
			})
			if err == nil {
				tc.t.Merge(legID, w.url, t0, tr.Spans)
			}
		}
		results <- attemptResult{tr: tr, err: err, worker: w, hedged: hedged}
	}

	exclude[w.url] = true
	outstanding := 1
	c.event(tc, obs.EvDispatched, fmt.Sprintf("task %d -> %s", task.ID, w.url))
	go leg(w, false)

	var hedgeC <-chan time.Time
	if c.cfg.HedgeDelay > 0 {
		ht := time.NewTimer(c.cfg.HedgeDelay)
		defer ht.Stop()
		hedgeC = ht.C
	}

	var firstErr error
	for outstanding > 0 {
		select {
		case <-hedgeC:
			hedgeC = nil
			hw := c.pickWorker(exclude)
			if hw == nil {
				break
			}
			exclude[hw.url] = true
			outstanding++
			if c.met != nil {
				c.met.hedged.Inc()
			}
			c.event(tc, obs.EvHedged, fmt.Sprintf("task %d slow on %s -> %s", task.ID, w.url, hw.url))
			c.log.Info("hedging straggler", "task", task.ID, "slow", w.url, "hedge", hw.url)
			go leg(hw, true)
		case r := <-results:
			outstanding--
			if r.err == nil {
				cancel() // the loser's request dies with the context
				if r.hedged && c.met != nil {
					c.met.hedgeWins.Inc()
				}
				return r.tr, nil
			}
			var perm errPermanent
			if errors.As(r.err, &perm) {
				cancel()
				return nil, r.err
			}
			if firstErr == nil {
				firstErr = r.err
			}
		}
	}
	return nil, firstErr
}

// post performs one HTTP task round-trip against a worker and classifies the
// outcome: 200 → result; 4xx → permanent; anything else (5xx, transport
// error, timeout) → transient, and the worker is marked unhealthy so the
// heartbeat, not the dispatch path, decides when it is trusted again. A
// non-empty legID propagates trace context on the wire (the worker records
// its spans against it and returns them in the result). post releases the
// task slot pickWorker reserved on w, on every path.
func (c *Coordinator) post(ctx context.Context, w *workerState, task Task, traceID, legID string) (*TaskResult, error) {
	defer w.addInflight(-1)
	body, err := json.Marshal(task)
	if err != nil {
		return nil, errPermanent{fmt.Errorf("dist: encoding task: %w", err)}
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.url+TaskPath, bytes.NewReader(body))
	if err != nil {
		return nil, errPermanent{err}
	}
	req.Header.Set("Content-Type", "application/json")
	if legID != "" {
		req.Header.Set(obs.TraceHeader, traceID)
		req.Header.Set(obs.ParentHeader, legID)
	}

	if c.met != nil {
		c.met.dispatched.Inc()
	}

	resp, err := c.cfg.Client.Do(req)
	if err != nil {
		w.failures.Add(1)
		c.markUnhealthy(w.url)
		return nil, fmt.Errorf("dist: posting task %d to %s: %w", task.ID, w.url, err)
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()

	if resp.StatusCode != http.StatusOK {
		var eb errorBody
		_ = json.NewDecoder(io.LimitReader(resp.Body, 4096)).Decode(&eb)
		err := fmt.Errorf("dist: worker %s answered %s for task %d: %s", w.url, resp.Status, task.ID, eb.Error)
		w.failures.Add(1)
		if resp.StatusCode/100 == 4 {
			return nil, errPermanent{err}
		}
		c.markUnhealthy(w.url)
		return nil, err
	}

	var tr TaskResult
	if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil {
		w.failures.Add(1)
		c.markUnhealthy(w.url)
		return nil, fmt.Errorf("dist: decoding task %d result from %s: %w", task.ID, w.url, err)
	}
	w.tasksDone.Add(1)
	if w.tasksTotal != nil {
		w.tasksTotal.Inc()
	}
	return &tr, nil
}

// Width implements exp.Remote: the fleet's healthy capacity ×
// oversubscribe. An experiment context's shard pool runs at least this wide,
// so while shards block on the wire the workers stay saturated; local
// fallbacks still get the context's own worker bound.
func (c *Coordinator) Width() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	capacity := 0
	for _, w := range c.workers {
		if w.healthy {
			capacity += w.capacity
		}
	}
	return capacity * oversubscribe
}

var _ exp.Remote = (*Coordinator)(nil)

// Handler returns the coordinator's fleet-management HTTP API, mounted into
// criticd's mux under /dist/v1/ when distribution is enabled.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST "+RegisterPath, func(rw http.ResponseWriter, r *http.Request) {
		var reg registerRequest
		if err := json.NewDecoder(io.LimitReader(r.Body, maxTaskBody)).Decode(&reg); err != nil || reg.URL == "" {
			writeJSON(rw, http.StatusBadRequest, errorBody{Error: "register: url required"})
			return
		}
		c.AddWorkerCapacity(reg.URL, reg.Capacity)
		writeJSON(rw, http.StatusOK, map[string]string{"status": "registered"})
	})
	mux.HandleFunc("POST "+DeregisterPath, func(rw http.ResponseWriter, r *http.Request) {
		var reg registerRequest
		if err := json.NewDecoder(io.LimitReader(r.Body, maxTaskBody)).Decode(&reg); err != nil || reg.URL == "" {
			writeJSON(rw, http.StatusBadRequest, errorBody{Error: "deregister: url required"})
			return
		}
		c.RemoveWorker(reg.URL)
		writeJSON(rw, http.StatusOK, map[string]string{"status": "deregistered"})
	})
	mux.HandleFunc("GET "+WorkersPath, func(rw http.ResponseWriter, _ *http.Request) {
		writeJSON(rw, http.StatusOK, WorkersResponse{Workers: c.Workers()})
	})
	return mux
}
