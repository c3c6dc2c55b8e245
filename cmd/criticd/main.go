// Command criticd is the long-lived profiling-and-optimization daemon: a
// REST/JSON service over a bounded job queue that profiles, optimizes and
// simulates apps on demand, sharing one artifact cache across all requests.
//
// Usage:
//
//	criticd                                # defaults: :9720, queue 64, 2 jobs
//	criticd -addr 127.0.0.1:0              # ephemeral port (printed on stdout)
//	criticd -queue 128 -jobs 4 -job-workers 8
//	criticd -quick -job-timeout 2m         # reduced windows, tighter deadline
//
// Endpoints: POST/GET /v1/jobs, GET /v1/jobs/{id}[/result|/trace], DELETE
// /v1/jobs/{id}, POST /v1/profiles, GET /v1/fleet, GET /v1/apps,
// /v1/experiments, /debug/events, /healthz, /readyz, /metrics.
// cmd/criticctl is the matching client.
//
// Fleet PGO loop (internal/fleet): devices — cmd/criticfleet simulates a
// fleet of them — stream bounded profile sketches to POST /v1/profiles
// (bounded by -profile-queue; saturation answers 429 + Retry-After), the
// daemon folds them into a per-app consensus, and a "fleet" job iterates
// candidate CritIC selections against that consensus until they converge.
//
// Observability (internal/obs): every job is traced (GET
// /v1/jobs/{id}/trace, ?format=chrome for Perfetto), lifecycle events land
// in the flight recorder (GET /debug/events?job=...), and stage latencies
// (queue_wait/dispatch_rtt/compute/e2e) are exported with exemplar trace
// ids for `criticctl slo` / `criticctl top`. -trace-out collects every
// finished job's trace spans, shifted onto the daemon's clock, into one
// Chrome JSON document that is completed on graceful drain.
//
// Distributed execution (internal/dist): -dist turns the daemon into a fleet
// coordinator — jobs' measurement units are farmed out to workers, and the
// fleet-management endpoints appear under /dist/v1/. Workers are listed
// up-front (-dist-workers) or self-register. -worker starts the other side:
// a task-execution node that serves /dist/v1/task and, given -coordinator,
// announces itself (deregistering again on shutdown).
//
//	criticd -worker -addr 127.0.0.1:9721 -coordinator http://coord:9720
//	criticd -dist -dist-workers http://w1:9721,http://w2:9721
//
// SIGINT/SIGTERM drain gracefully: readiness flips to 503, queued jobs fail
// with a retryable status, in-flight jobs complete (up to -drain-timeout),
// then the process exits 0.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"critics/internal/artifact"
	"critics/internal/dist"
	"critics/internal/server"
	"critics/internal/telemetry"
)

func main() {
	var (
		addr         = flag.String("addr", ":9720", "listen address (host:port; port 0 picks one)")
		queueSize    = flag.Int("queue", 64, "bounded job queue size (full queue refuses with 429)")
		jobs         = flag.Int("jobs", 2, "jobs executing concurrently")
		jobWorkers   = flag.Int("job-workers", 0, "daemon mode: per-job shard pool bound (0 = GOMAXPROCS)")
		jobTimeout   = flag.Duration("job-timeout", 10*time.Minute, "default per-job deadline (requests may set their own)")
		drainTimeout = flag.Duration("drain-timeout", 2*time.Minute, "grace for in-flight jobs at shutdown")
		profileQueue = flag.Int("profile-queue", 256, "bounded fleet profile-sketch ingest queue (full queue refuses POST /v1/profiles with 429)")
		quick        = flag.Bool("quick", false, "force reduced-scale windows for every job")
		artifactDir  = flag.String("artifact-dir", "", "directory backing the content-addressed artifact store (persists across restarts; empty = temp dir removed at exit). Worker mode: the local warm cache for scan artifacts")
		traceOut     = flag.String("trace-out", "", "write every finished job's trace spans here as Chrome trace-event JSON, flushed complete on graceful drain")
		verbose      = flag.Bool("v", false, "structured request/job log on stderr")

		worker      = flag.Bool("worker", false, "run as a task-execution worker instead of a job daemon")
		coordinator = flag.String("coordinator", "", "worker mode: coordinator base URL to register with")
		advertise   = flag.String("advertise", "", "worker mode: base URL the coordinator should dial back (default http://<resolved addr>)")
		capacity    = flag.Int("capacity", 2, "worker mode: tasks executed concurrently")
		failFirst   = flag.Int("fail-first-tasks", 0, "worker mode: answer the first N tasks with an injected 500 (chaos hook for retry smoke tests)")

		distMode    = flag.Bool("dist", false, "enable distributed execution (this daemon coordinates a worker fleet)")
		distWorkers = flag.String("dist-workers", "", "comma-separated worker base URLs to register up-front (implies -dist)")
	)
	flag.Parse()

	level := slog.LevelWarn
	if *verbose {
		level = slog.LevelInfo
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))

	if *worker {
		runWorker(logger, *addr, *coordinator, *advertise, *artifactDir, *capacity, *failFirst, *drainTimeout)
		return
	}

	reg := telemetry.NewRegistry()
	telemetry.RegisterBuildInfo(reg, "criticd")

	// -artifact-dir persists the store across restarts (Open re-adopts the
	// blobs on disk); without it the server creates a temp store it removes
	// at shutdown.
	var store *artifact.Store
	if *artifactDir != "" {
		var err error
		store, err = artifact.Open(artifact.Config{Dir: *artifactDir, Registry: reg})
		if err != nil {
			fmt.Fprintln(os.Stderr, "criticd:", err)
			os.Exit(1)
		}
	}

	// The tracer collects each finished job's spans for the daemon's whole
	// lifetime; closeTrace terminates the JSON document. It runs after
	// Shutdown on every exit path, so a SIGTERM drain never leaves a
	// truncated trace behind.
	closeTrace := func() {}
	var tracer *telemetry.Tracer
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "criticd:", err)
			os.Exit(1)
		}
		tracer = telemetry.NewTracer(f)
		tracer.MetaProcessName(telemetry.EnginePID, "criticd jobs (wall-clock µs)")
		closeTrace = func() {
			if err := tracer.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "criticd: closing trace:", err)
			}
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "criticd: closing trace file:", err)
			}
			logger.Info("trace written", "path", *traceOut)
		}
	}

	var coord *dist.Coordinator
	if *distMode || *distWorkers != "" {
		coord = dist.NewCoordinator(dist.Config{Registry: reg, Logger: logger})
		for _, u := range strings.Split(*distWorkers, ",") {
			if u = strings.TrimSpace(u); u != "" {
				coord.AddWorkerCapacity(strings.TrimRight(u, "/"), *capacity)
			}
		}
	}
	srv := server.New(server.Config{
		QueueSize:    *queueSize,
		ProfileQueue: *profileQueue,
		Workers:      *jobs,
		JobWorkers:   *jobWorkers,
		JobTimeout:   *jobTimeout,
		QuickScale:   *quick,
		Registry:     reg,
		Tracer:       tracer,
		Logger:       logger,
		Coordinator:  coord,
		Artifacts:    store,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "criticd:", err)
		os.Exit(1)
	}
	hs := &http.Server{Handler: srv.Handler()}

	// The one line scripts parse: the resolved address, including an
	// ephemeral port when -addr ended in :0.
	fmt.Printf("criticd listening on http://%s\n", ln.Addr())
	logger.Info("serving", "addr", ln.Addr().String(), "queue", *queueSize, "jobs", *jobs,
		"dist", coord != nil)

	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-stop:
		logger.Info("draining", "signal", sig.String(), "grace", drainTimeout.String())
	case err := <-errc:
		fmt.Fprintln(os.Stderr, "criticd:", err)
		os.Exit(1)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	// Drain order: refuse new work and finish jobs first (the coordinator
	// drains alongside so remote units complete), then close the HTTP
	// listener so late status polls still get answers while jobs run.
	if coord != nil {
		defer coord.Close()
	}
	if err := srv.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "criticd: drain incomplete:", err)
		closeTrace() // in-flight jobs were cancelled; keep what was traced
		_ = hs.Shutdown(context.Background())
		os.Exit(1)
	}
	closeTrace()
	if coord != nil {
		if err := coord.Drain(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "criticd:", err)
		}
	}
	if err := hs.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "criticd:", err)
		os.Exit(1)
	}
	logger.Info("drained cleanly")
}

// runWorker is criticd -worker: serve the dist task API, optionally announce
// to a coordinator, and on SIGINT/SIGTERM deregister, finish in-flight tasks
// and exit.
func runWorker(logger *slog.Logger, addr, coordURL, advertise, artifactDir string, capacity, failFirst int, drainTimeout time.Duration) {
	reg := telemetry.NewRegistry()
	telemetry.RegisterBuildInfo(reg, "criticd-worker")
	coordURL = strings.TrimRight(coordURL, "/")
	// The worker's artifact store is its warm cache for scan inputs; a
	// -artifact-dir shared across restarts makes a recycled worker start
	// warm. Missing artifacts are fetched from the coordinator by digest.
	var store *artifact.Store
	if artifactDir != "" {
		var err error
		store, err = artifact.Open(artifact.Config{Dir: artifactDir, Registry: reg})
		if err != nil {
			fmt.Fprintln(os.Stderr, "criticd:", err)
			os.Exit(1)
		}
	}
	wk := dist.NewWorker(dist.WorkerConfig{
		Capacity:       capacity,
		Registry:       reg,
		Logger:         logger,
		FailFirstTasks: failFirst,
		Artifacts:      store,
		ArtifactSource: coordURL,
	})

	mux := http.NewServeMux()
	mux.Handle("/", wk.Handler())
	mux.Handle("GET /metrics", reg)

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "criticd:", err)
		os.Exit(1)
	}
	hs := &http.Server{Handler: mux}

	// Same parse line as daemon mode, so the launch scripts are shared.
	fmt.Printf("criticd listening on http://%s\n", ln.Addr())
	if advertise == "" {
		advertise = "http://" + ln.Addr().String()
	}
	advertise = strings.TrimRight(advertise, "/")
	logger.Info("worker serving", "addr", ln.Addr().String(), "capacity", capacity, "advertise", advertise)

	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	if coordURL != "" {
		regCtx, cancel := context.WithTimeout(context.Background(), time.Minute)
		if err := dist.Register(regCtx, nil, coordURL, advertise, capacity); err != nil {
			cancel()
			fmt.Fprintln(os.Stderr, "criticd:", err)
			os.Exit(1)
		}
		cancel()
		logger.Info("registered with coordinator", "coordinator", coordURL)
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-stop:
		logger.Info("draining", "signal", sig.String(), "grace", drainTimeout.String())
	case err := <-errc:
		fmt.Fprintln(os.Stderr, "criticd:", err)
		os.Exit(1)
	}

	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	// Drain order: leave the fleet so no new tasks are routed here, finish
	// in-flight tasks, then close the listener.
	if coordURL != "" {
		if err := dist.Deregister(ctx, nil, coordURL, advertise); err != nil {
			logger.Warn("deregister failed", "err", err)
		}
	}
	wk.Drain()
	if err := hs.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "criticd:", err)
		os.Exit(1)
	}
	logger.Info("worker drained cleanly")
}
