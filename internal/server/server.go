package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"critics"
	"critics/internal/artifact"
	"critics/internal/dist"
	"critics/internal/exp"
	"critics/internal/fleet"
	"critics/internal/obs"
	"critics/internal/scan"
	"critics/internal/telemetry"
)

// Config tunes the daemon. The zero value is usable; New fills defaults.
type Config struct {
	// QueueSize bounds jobs admitted but not yet executing. A full queue
	// refuses new submissions with 429 + Retry-After — admission control,
	// never backpressure into the accept loop. Default 64.
	QueueSize int

	// Workers is the number of jobs executing concurrently. Default 2.
	Workers int

	// JobWorkers bounds each job's shard pool (critics.WithWorkers) when
	// the request does not choose; 0 selects GOMAXPROCS.
	JobWorkers int

	// JobTimeout caps a job's execution time when the request does not
	// choose. Default 10m; negative disables the default deadline.
	JobTimeout time.Duration

	// QuickScale forces the reduced-scale windows for every job regardless
	// of the request (smoke tests, resource-constrained deployments).
	QuickScale bool

	// Registry receives the server's metrics and is served on /metrics.
	// New creates one when nil.
	Registry *telemetry.Registry

	// Tracer, when set, receives every executed job's trace spans once the
	// job finishes, shifted into the tracer's time domain (obs.Trace.
	// EmitChrome). The caller owns closing it — after Shutdown returns, so a
	// SIGTERM drain flushes a complete JSON document.
	Tracer *telemetry.Tracer

	// Logger receives structured request/job logs; nil discards them.
	Logger *slog.Logger

	// ProfileQueue bounds fleet profile sketches decoded but not yet merged
	// into the per-app consensus (POST /v1/profiles). A full queue refuses
	// submissions with 429 + Retry-After, mirroring the job queue's
	// admission control. Default 256.
	ProfileQueue int

	// Coordinator, when set, distributes jobs' measurement units across its
	// worker fleet (internal/dist) and mounts the fleet-management endpoints
	// under /dist/v1/. Jobs fall back to pure local execution while the fleet
	// has no healthy workers. The caller owns the coordinator's lifecycle
	// (Drain/Close around Shutdown).
	Coordinator *dist.Coordinator

	// Artifacts is the daemon's content-addressed blob store, served under
	// /v1/artifacts and feeding scan jobs, worker artifact fetches and fleet
	// sketch archival. nil creates a temp-directory store that Shutdown
	// removes.
	Artifacts *artifact.Store

	// execute overrides job execution — a test seam. nil selects the real
	// critics pipeline.
	execute func(ctx context.Context, req SubmitRequest) ([]byte, error)
}

// retryAfterSeconds is the Retry-After hint on 429 responses.
const retryAfterSeconds = 1

// Server is the criticd core: the job table, the bounded queue, the worker
// loop and the HTTP API. Construct with New, serve Handler, stop with
// Shutdown.
type Server struct {
	cfg     Config
	log     *slog.Logger
	reg     *telemetry.Registry
	metrics *metrics
	scanM   *scanMetrics
	obsv    *obs.Observer
	caches  *critics.SharedCaches
	fleet   *fleet.Service
	mux     *http.ServeMux

	// artifacts is the content-addressed store behind /v1/artifacts;
	// artifactDirOwned is non-empty when New created it in a temp directory
	// it must remove at Shutdown. uploadSlots is the chunk-upload admission
	// semaphore.
	artifacts        *artifact.Store
	artifactDirOwned string
	uploadSlots      chan struct{}

	// indexes holds the scan index of every image scanned, by digest.
	indexes *scan.IndexCache

	// baseCtx parents every job context; cancelBase aborts in-flight jobs
	// when a Shutdown deadline expires.
	baseCtx    context.Context
	cancelBase context.CancelFunc

	queue chan *job
	wg    sync.WaitGroup // worker goroutines

	mu          sync.Mutex
	jobs        map[string]*job // at most maxJobs, see evictJobsLocked
	order       []string        // job ids, submission order
	byIdem      map[string]string
	resultBytes int64 // summed result bytes of the jobs in the table
	nextID      int64
	draining    atomic.Bool
}

// New builds a server and starts its worker goroutines. Callers own calling
// Shutdown.
func New(cfg Config) *Server {
	if cfg.QueueSize <= 0 {
		cfg.QueueSize = 64
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.JobTimeout == 0 {
		cfg.JobTimeout = 10 * time.Minute
	}
	if cfg.Registry == nil {
		cfg.Registry = telemetry.NewRegistry()
	}
	log := cfg.Logger
	if log == nil {
		log = slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelError + 4}))
	}
	base, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:         cfg,
		log:         log,
		reg:         cfg.Registry,
		metrics:     newMetrics(cfg.Registry),
		scanM:       newScanMetrics(cfg.Registry),
		obsv:        obs.NewObserver(cfg.Registry),
		caches:      critics.NewSharedCaches(),
		baseCtx:     base,
		cancelBase:  cancel,
		queue:       make(chan *job, cfg.QueueSize),
		jobs:        map[string]*job{},
		byIdem:      map[string]string{},
		uploadSlots: make(chan struct{}, artifactUploadSlots),
		indexes:     scan.NewIndexCache(),
	}
	s.artifacts = cfg.Artifacts
	if s.artifacts == nil {
		dir, err := os.MkdirTemp("", "criticd-artifacts-*")
		if err == nil {
			s.artifacts, err = artifact.Open(artifact.Config{Dir: dir, Registry: cfg.Registry})
		}
		if err != nil {
			panic(fmt.Sprintf("server: creating artifact store: %v", err))
		}
		s.artifactDirOwned = dir
	}
	if s.cfg.execute == nil {
		s.cfg.execute = s.executePipeline
	}
	s.fleet = fleet.NewService(fleet.Config{
		QueueSize: cfg.ProfileQueue,
		Registry:  cfg.Registry,
		Ring:      s.obsv.Ring,
		Logger:    log,
	})
	if cfg.Coordinator != nil {
		cfg.Coordinator.SetObserver(s.obsv)
	}
	s.mux = s.routes()
	for w := 0; w < cfg.Workers; w++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// Handler returns the HTTP API.
func (s *Server) Handler() http.Handler { return s.mux }

// CacheStats reports the shared artifact cache counters.
func (s *Server) CacheStats() exp.CacheStats { return s.caches.Stats() }

// Shutdown drains the server: submissions are refused (503) and /readyz
// flips to 503 immediately, jobs still queued fail with a retryable status,
// and in-flight jobs run to completion. When ctx expires first, in-flight
// job contexts are cancelled and their workers awaited before returning
// ctx's error. Safe to call more than once.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining.Swap(true) {
		close(s.queue)
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		// After the job workers: a draining fleet job may still read the
		// consensus, and the fleet drain is bounded (queue length × a
		// microsecond-scale join).
		s.fleet.Drain()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		s.cancelBase()
		<-done
		err = ctx.Err()
	}
	if s.artifactDirOwned != "" {
		// The store was ours (Config.Artifacts nil): its blobs die with the
		// daemon, like the in-memory job table.
		_ = os.RemoveAll(s.artifactDirOwned)
		s.artifactDirOwned = ""
	}
	return err
}

// ---- worker loop ---------------------------------------------------------

func (s *Server) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		s.metrics.queueDepth.Add(-1)
		if s.draining.Load() && j.failQueued("server shutting down before execution; safe to retry") {
			s.metrics.outcomes("dropped").Inc()
			s.obsv.Ring.Append(j.id, obs.EvDrained, "queued at shutdown")
			continue
		}
		s.dequeueJob(j)
		timeout := s.cfg.JobTimeout
		if j.req.TimeoutMS > 0 {
			timeout = time.Duration(j.req.TimeoutMS) * time.Millisecond
		}
		ctx, cancel := context.WithCancel(s.baseCtx)
		if timeout > 0 {
			ctx, cancel = context.WithTimeout(s.baseCtx, timeout)
		}
		if !j.tryStart(cancel) {
			cancel()
			s.metrics.outcomes("canceled").Inc()
			s.obsv.Ring.Append(j.id, obs.EvCanceled, "canceled before execution")
			continue
		}
		s.runJob(ctx, j)
		cancel()
	}
}

// runJob executes one started job with panic isolation: a panicking workload
// fails that job (with the panic message in its status) and the daemon keeps
// serving.
func (s *Server) runJob(ctx context.Context, j *job) {
	s.metrics.inflight.Add(1)
	defer s.metrics.inflight.Add(-1)
	s.log.Info("job start", "id", j.id, "kind", j.req.Kind, "app", j.req.App, "exp", j.req.Experiment)

	var computeStart int64
	if j.trace != nil {
		// Engine spans (shard maps, memo builds, dispatch legs) parent to the
		// job's "compute" span through the context.
		computeStart = j.trace.Now()
		ctx = obs.ContextWith(ctx, j.trace, "compute")
	}

	var (
		result   []byte
		err      error
		panicked bool
	)
	func() {
		defer func() {
			if p := recover(); p != nil {
				panicked = true
				err = fmt.Errorf("panic: %v", p)
			}
		}()
		result, err = s.cfg.execute(ctx, j.req)
	}()

	var msg string
	var retry bool
	if err != nil {
		msg = err.Error()
		// A deadline is a property of this attempt, not the job: the retry
		// may hit warm caches and finish in time.
		retry = errors.Is(err, context.DeadlineExceeded)
	}
	var end int64
	j.finish(result, msg, retry, func(state JobState) {
		outcome := string(state)
		if panicked {
			outcome = "panic"
		}
		s.metrics.outcomes(outcome).Inc()
		end = s.endJobTrace(j, computeStart, state)
	})
	s.retainResult(j)
	s.finishJob(j, computeStart, end)

	st := j.Status()
	s.log.Info("job done", "id", j.id, "state", st.State, "err", msg,
		"seconds", st.Duration().Seconds())
}

// executePipeline is the real runner behind the test seam: it dispatches to
// the critics public API with the job's scale options, the server's shared
// caches and the server's registry attached.
func (s *Server) executePipeline(ctx context.Context, req SubmitRequest) ([]byte, error) {
	if req.Kind == KindScan {
		// Scan jobs run source-free against uploaded artifacts; none of the
		// catalog-pipeline options below apply.
		return s.executeScan(ctx, req)
	}
	opts := []critics.Option{}
	if req.Quick || s.cfg.QuickScale {
		opts = append(opts, critics.WithQuickScale())
	}
	if req.MeasureInstrs > 0 {
		opts = append(opts, critics.WithMeasureInstrs(req.MeasureInstrs))
	}
	workers := req.Workers
	if workers == 0 {
		workers = s.cfg.JobWorkers
	}
	opts = append(opts,
		critics.WithWorkers(workers),
		critics.WithSharedCaches(s.caches),
		critics.WithTelemetry(s.reg),
	)
	if coord := s.cfg.Coordinator; coord != nil && coord.HealthyWorkers() > 0 {
		opts = append(opts, critics.WithRemoteExecution(coord))
	}

	res := Result{Kind: req.Kind, App: req.App, Experiment: req.Experiment}
	switch req.Kind {
	case KindOptimize:
		rep, err := critics.OptimizeAppContext(ctx, req.App, opts...)
		if err != nil {
			return nil, err
		}
		res.Text = rep.String()
		res.Report = rep
	case KindProfile:
		prof, err := critics.BuildProfileContext(ctx, req.App, opts...)
		if err != nil {
			return nil, err
		}
		res.Text = fmt.Sprintf("app %s: %d dynamic instructions profiled, %d unique chains, %d selected, coverage %.1f%%\n",
			prof.App, prof.TotalDyn, prof.UniqueChains(), prof.NumSelected(), 100*prof.SelectedCoverage)
		res.Profile = prof
	case KindExperiment:
		out, err := critics.ExperimentContext(ctx, req.Experiment, opts...)
		if err != nil {
			return nil, err
		}
		res.Text = out
	case KindFleet:
		consensus, rev, ok := s.fleet.Consensus(req.App)
		if !ok {
			return nil, fmt.Errorf("no fleet consensus for app %q yet; devices must stream sketches to POST /v1/profiles first", req.App)
		}
		rep, err := critics.FleetConverge(ctx, req.App, consensus,
			fleet.ConvergeOptions{Revision: rev, Service: s.fleet}, opts...)
		if err != nil {
			return nil, err
		}
		s.fleet.NoteConverge(req.App, rep)
		res.Text = rep.String()
		res.Report = rep
	case KindTrace:
		var buf strings.Builder
		rep, err := critics.TraceAppContext(ctx, req.App, &buf, opts...)
		if err != nil {
			return nil, err
		}
		res.Text = rep.String()
		res.Report = rep
		res.Trace = json.RawMessage(buf.String())
	default:
		return nil, fmt.Errorf("unknown job kind %q", req.Kind)
	}
	return json.Marshal(res)
}

// ---- HTTP API ------------------------------------------------------------

func (s *Server) routes() *http.ServeMux {
	mux := http.NewServeMux()
	handle := func(method, pattern string, h http.HandlerFunc) {
		mux.HandleFunc(method+" "+pattern, s.metrics.instrument(pattern, h))
	}
	handle("POST", "/v1/jobs", s.handleSubmit)
	handle("GET", "/v1/jobs", s.handleList)
	handle("GET", "/v1/jobs/{id}", s.handleStatus)
	handle("GET", "/v1/jobs/{id}/result", s.handleResult)
	handle("GET", "/v1/jobs/{id}/trace", s.handleTrace)
	handle("GET", "/debug/events", s.handleEvents)
	handle("DELETE", "/v1/jobs/{id}", s.handleCancel)
	handle("POST", "/v1/profiles", s.handleProfiles)
	handle("GET", "/v1/fleet", s.handleFleet)
	handle("PUT", "/v1/artifacts/{digest}", s.handleArtifactPut)
	handle("GET", "/v1/artifacts/{digest}", s.handleArtifactGet)
	handle("GET", "/v1/artifacts", s.handleArtifactList)
	handle("POST", "/v1/artifacts/gc", s.handleArtifactGC)
	handle("GET", "/v1/apps", s.handleApps)
	handle("GET", "/v1/experiments", s.handleExperiments)
	handle("GET", "/healthz", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	handle("GET", "/readyz", func(w http.ResponseWriter, _ *http.Request) {
		switch {
		case s.draining.Load():
			writeErr(w, http.StatusServiceUnavailable, "draining", true)
		case len(s.queue) >= cap(s.queue):
			// Saturated admission queue: the next submit would be refused
			// with 429, so load balancers should stop routing here until the
			// workers catch up. Liveness (/healthz) is unaffected.
			w.Header().Set("Retry-After", fmt.Sprint(retryAfterSeconds))
			writeErr(w, http.StatusServiceUnavailable,
				fmt.Sprintf("job queue saturated (%d queued)", cap(s.queue)), true)
		default:
			writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
		}
	})
	mux.Handle("GET /metrics", s.reg)
	if s.cfg.Coordinator != nil {
		mux.Handle("/dist/v1/", s.cfg.Coordinator.Handler())
	}
	return mux
}

// maxBodyBytes bounds submit bodies; requests are tiny. Oversized bodies
// (a client inlining a binary image instead of uploading it to
// /v1/artifacts) answer 413 with the limit in the message.
const maxBodyBytes = 1 << 20

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req SubmitRequest
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err == nil {
		err = json.Unmarshal(body, &req)
	}
	if err != nil {
		var maxErr *http.MaxBytesError
		if errors.As(err, &maxErr) {
			writeErr(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("request body exceeds %d bytes; upload large inputs to PUT /v1/artifacts/{digest} and reference them by digest", int64(maxBodyBytes)), false)
			return
		}
		writeErr(w, http.StatusBadRequest, "malformed request body: "+err.Error(), false)
		return
	}
	if msg := normalize(&req); msg != "" {
		writeErr(w, http.StatusBadRequest, msg, false)
		return
	}

	s.mu.Lock()
	if s.draining.Load() {
		s.mu.Unlock()
		writeErr(w, http.StatusServiceUnavailable, "server is draining; retry against a live instance", true)
		return
	}
	if req.IdempotencyKey != "" {
		if id, ok := s.byIdem[req.IdempotencyKey]; ok {
			j := s.jobs[id]
			s.mu.Unlock()
			writeJSON(w, http.StatusOK, j.Status())
			return
		}
	}
	s.nextID++
	j := newJob(fmt.Sprintf("j%06d", s.nextID), req)
	s.admitJob(j) // before the queue send: workers must see the trace
	select {
	case s.queue <- j:
	default:
		s.mu.Unlock()
		s.metrics.outcomes("rejected").Inc()
		w.Header().Set("Retry-After", fmt.Sprint(retryAfterSeconds))
		writeErr(w, http.StatusTooManyRequests,
			fmt.Sprintf("job queue full (%d queued); retry after %ds", s.cfg.QueueSize, retryAfterSeconds), true)
		return
	}
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	if req.IdempotencyKey != "" {
		s.byIdem[req.IdempotencyKey] = j.id
	}
	s.evictJobsLocked()
	s.metrics.queueDepth.Add(1)
	s.mu.Unlock()
	writeJSON(w, http.StatusAccepted, j.Status())
}

// maxJobs bounds the job table. A finished job keeps its result bytes and
// its span trace, so an unbounded table would grow with every job served;
// the trace recorder retains only the last 256 traces anyway.
const maxJobs = 4096

// maxResultBytes bounds the result bytes the job table retains: 4,096 scan
// reports of about 140 KB each would otherwise hold over half a gigabyte.
const maxResultBytes = 32 << 20

// keepJobs is how many of the newest jobs the byte budget never evicts: the
// trace recorder's depth, so every retained trace stays reachable through
// its job.
const keepJobs = 256

// retainResult counts a finished job's result against maxResultBytes, unless
// the job was evicted as soon as it finished, and evicts what the table no
// longer has room for.
func (s *Server) retainResult(j *job) {
	res, _ := j.Result()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.jobs[j.id] == j {
		j.resultBytes = int64(len(res))
		s.resultBytes += j.resultBytes
	}
	s.evictJobsLocked()
}

// evictJobsLocked drops the oldest terminal jobs, with their idempotency
// keys, while the table holds more than maxJobs jobs, or more than
// maxResultBytes result bytes and the job is not among the keepJobs newest.
// Queued and running jobs are never evicted. An evicted id answers 404 like
// an unknown one, and its idempotency key admits a fresh job. Called with
// s.mu held.
func (s *Server) evictJobsLocked() {
	excess := len(s.order) - maxJobs
	reach := len(s.order) - keepJobs // jobs the byte budget may evict
	over := func(i int) bool {
		return excess > 0 || (i < reach && s.resultBytes > maxResultBytes)
	}
	// Jobs run in admission order, so the oldest is normally finished and
	// leaves from the front; appends reuse or regrow the backing array.
	for over(0) && s.jobs[s.order[0]].terminal() {
		s.dropJobLocked(s.order[0])
		s.order = s.order[1:]
		excess--
		reach--
	}
	if !over(0) {
		return
	}
	// A queued or running job heads the table: keep it and every other
	// unfinished one, and evict the oldest finished jobs behind them.
	kept := s.order[:0]
	for i, id := range s.order {
		if !over(i) {
			kept = append(kept, s.order[i:]...)
			break
		}
		if !s.jobs[id].terminal() {
			kept = append(kept, id)
			continue
		}
		s.dropJobLocked(id)
		excess--
	}
	s.order = kept
}

// dropJobLocked removes a job and its idempotency key from the table and
// releases its result bytes.
func (s *Server) dropJobLocked(id string) {
	j := s.jobs[id]
	delete(s.jobs, id)
	if k := j.req.IdempotencyKey; k != "" {
		delete(s.byIdem, k)
	}
	s.resultBytes -= j.resultBytes
}

// handleProfiles ingests one encoded profile sketch from a device. The body
// is the sketch's canonical binary wire form — bounded by construction, so
// fleet ingest memory is sketches, never traces. It decodes into a sketch
// the fleet service owns and recycles after the merge. Admission mirrors the
// job queue: a full ingest queue refuses with 429 + Retry-After and the
// device re-sends its (cumulative, idempotently mergeable) sketch later.
func (s *Server) handleProfiles(w http.ResponseWriter, r *http.Request) {
	body, err := readBody(r)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "reading body: "+err.Error(), false)
		return
	}
	sk, err := s.fleet.Decode(body)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "malformed sketch: "+err.Error(), false)
		return
	}
	if s.draining.Load() {
		s.fleet.Release(sk)
		writeErr(w, http.StatusServiceUnavailable, "server is draining; retry against a live instance", true)
		return
	}
	if !s.fleet.OfferDecoded(sk) {
		w.Header().Set("Retry-After", fmt.Sprint(retryAfterSeconds))
		writeErr(w, http.StatusTooManyRequests,
			fmt.Sprintf("profile ingest queue full; retry after %ds", retryAfterSeconds), true)
		return
	}
	s.fleet.AddBytes(len(body))
	// Archive the accepted sketch's wire form content-addressed: identical
	// re-sends dedupe to one blob, and an operator can fetch the exact bytes
	// behind any consensus merge for replay/debugging.
	digest, err := s.artifacts.PutBytes(body)
	if err != nil {
		s.log.Warn("archiving sketch failed", "app", sk.App, "err", err)
	}
	writeJSON(w, http.StatusAccepted, ProfileAccepted{App: sk.App, Digest: digest, Status: "accepted"})
}

// readBody reads a profile body of at most maxBodyBytes: a declared
// Content-Length into one buffer of exactly that size, an unknown or larger
// one through a limited ReadAll (a larger body is cut at the limit).
func readBody(r *http.Request) ([]byte, error) {
	if n := r.ContentLength; n >= 0 && n <= maxBodyBytes {
		body := make([]byte, n)
		_, err := io.ReadFull(r.Body, body)
		return body, err
	}
	return io.ReadAll(io.LimitReader(r.Body, maxBodyBytes))
}

// handleFleet reports per-app fleet state: consensus revision and digest,
// device estimate, and the last converge outcome.
func (s *Server) handleFleet(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, FleetResponse{Apps: s.fleet.Status()})
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	out := make([]JobStatus, 0, len(s.order))
	for i := len(s.order) - 1; i >= 0; i-- {
		out = append(out, s.jobs[s.order[i]].Status())
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{"jobs": out})
}

// jobFor resolves {id} or writes a 404.
func (s *Server) jobFor(w http.ResponseWriter, r *http.Request) *job {
	id := r.PathValue("id")
	s.mu.Lock()
	j := s.jobs[id]
	s.mu.Unlock()
	if j == nil {
		writeErr(w, http.StatusNotFound, fmt.Sprintf("no job %q", id), false)
	}
	return j
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if j := s.jobFor(w, r); j != nil {
		writeJSON(w, http.StatusOK, j.Status())
	}
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j := s.jobFor(w, r)
	if j == nil {
		return
	}
	res, st := j.Result()
	if st.State == StateSucceeded {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(res)
		return
	}
	if st.State.Terminal() {
		writeErr(w, http.StatusConflict,
			fmt.Sprintf("job %s %s: %s", j.id, st.State, st.Error), st.Retryable)
		return
	}
	writeErr(w, http.StatusConflict, fmt.Sprintf("job %s is %s; poll status until succeeded", j.id, st.State), false)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j := s.jobFor(w, r)
	if j == nil {
		return
	}
	j.requestCancel()
	writeJSON(w, http.StatusOK, j.Status())
}

func (s *Server) handleApps(w http.ResponseWriter, _ *http.Request) {
	suites := map[string][]string{}
	for name, apps := range exp.Suites() {
		names := make([]string, len(apps))
		for i, a := range apps {
			names[i] = a.Params.Name
		}
		suites[name] = names
	}
	writeJSON(w, http.StatusOK, AppsResponse{Suites: suites})
}

func (s *Server) handleExperiments(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, ExperimentsResponse{Experiments: critics.ExperimentIDs()})
}

// ---- validation ----------------------------------------------------------

// jobKinds lists the job kinds normalize accepts, for its messages.
const jobKinds = "optimize, profile, experiment, trace, fleet, scan"

// normalize infers the kind, canonicalizes the app name (case-insensitive
// catalog match) and validates the request; it returns a non-empty message
// on rejection.
func normalize(req *SubmitRequest) string {
	if req.Kind == "" {
		switch {
		case req.App != "" && req.Experiment == "":
			req.Kind = KindOptimize
		case req.Experiment != "" && req.App == "":
			req.Kind = KindExperiment
		default:
			return `missing "kind" (one of ` + jobKinds + `)`
		}
	}
	switch req.Kind {
	case KindScan:
		if err := artifact.Validate(req.ImageDigest); err != nil {
			return fmt.Sprintf("scan jobs require a valid image_digest: %v", err)
		}
		if err := artifact.Validate(req.TraceDigest); err != nil {
			return fmt.Sprintf("scan jobs require a valid trace_digest: %v", err)
		}
	case KindOptimize, KindProfile, KindTrace, KindFleet:
		if req.App == "" {
			return fmt.Sprintf("%s jobs require an app name (GET /v1/apps lists them)", req.Kind)
		}
		name, ok := resolveApp(req.App)
		if !ok {
			return fmt.Sprintf("unknown app %q (valid: %s)", req.App, strings.Join(allAppNames(), ", "))
		}
		req.App = name
	case KindExperiment:
		if req.Experiment == "" {
			return "experiment jobs require an experiment id (GET /v1/experiments lists them)"
		}
		if !validExperiment(req.Experiment) {
			return fmt.Sprintf("unknown experiment %q (valid: %s)", req.Experiment, strings.Join(critics.ExperimentIDs(), ", "))
		}
	default:
		return fmt.Sprintf("unknown job kind %q (one of %s)", req.Kind, jobKinds)
	}
	if req.TimeoutMS < 0 || req.Workers < 0 || req.MeasureInstrs < 0 {
		return "timeout_ms, workers and measure_instrs must be non-negative"
	}
	return ""
}

// resolveApp matches name case-insensitively against the catalog and returns
// the canonical name.
func resolveApp(name string) (string, bool) {
	suites := exp.Suites()
	for _, suite := range exp.SuiteOrder {
		for _, a := range suites[suite] {
			if strings.EqualFold(a.Params.Name, name) {
				return a.Params.Name, true
			}
		}
	}
	return "", false
}

// allAppNames lists the full catalog in suite presentation order.
func allAppNames() []string { return critics.AppNames() }

func validExperiment(id string) bool {
	for _, e := range exp.IDs() {
		if e == id {
			return true
		}
	}
	return false
}

// ---- response helpers ----------------------------------------------------

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, code int, msg string, retryable bool) {
	writeJSON(w, code, ErrorResponse{Error: msg, Retryable: retryable})
}
