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
	"io"
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
	ctx, _ := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM) // os.Exit makes stop moot
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// run is criticd given its arguments and output streams: it serves until
// ctx is cancelled (SIGINT/SIGTERM in main), drains, and returns the exit code.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("criticd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg server.Config
	fs.IntVar(&cfg.QueueSize, "queue", 64, "bounded job queue size (full queue refuses with 429)")
	fs.IntVar(&cfg.Workers, "jobs", 2, "jobs executing concurrently")
	fs.IntVar(&cfg.JobWorkers, "job-workers", 0, "daemon mode: per-job shard pool bound (0 = GOMAXPROCS)")
	fs.DurationVar(&cfg.JobTimeout, "job-timeout", 10*time.Minute, "default per-job deadline (requests may set their own)")
	fs.IntVar(&cfg.ProfileQueue, "profile-queue", 256, "bounded fleet profile-sketch ingest queue (full queue refuses POST /v1/profiles with 429)")
	fs.BoolVar(&cfg.QuickScale, "quick", false, "force reduced-scale windows for every job")
	var (
		addr         = fs.String("addr", ":9720", "listen address (host:port; port 0 picks one)")
		drainTimeout = fs.Duration("drain-timeout", 2*time.Minute, "grace for in-flight jobs at shutdown")
		artifactDir  = fs.String("artifact-dir", "", "directory backing the content-addressed artifact store (persists across restarts; empty = temp dir removed at exit). Worker mode: the local warm cache for scan artifacts")
		traceOut     = fs.String("trace-out", "", "write every finished job's trace spans here as Chrome trace-event JSON, flushed complete on graceful drain")
		verbose      = fs.Bool("v", false, "structured request/job log on stderr")

		worker      = fs.Bool("worker", false, "run as a task-execution worker instead of a job daemon")
		coordinator = fs.String("coordinator", "", "worker mode: coordinator base URL to register with")
		advertise   = fs.String("advertise", "", "worker mode: base URL the coordinator should dial back (default http://<resolved addr>)")
		capacity    = fs.Int("capacity", 2, "worker mode: tasks executed concurrently")

		distMode    = fs.Bool("dist", false, "enable distributed execution (this daemon coordinates a worker fleet)")
		distWorkers = fs.String("dist-workers", "", "comma-separated worker base URLs to register up-front (implies -dist)")
	)
	if err := fs.Parse(args); err == flag.ErrHelp {
		return 0
	} else if err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "criticd:", err)
		return 1
	}

	level := slog.LevelWarn
	if *verbose {
		level = slog.LevelInfo
	}
	logger := slog.New(slog.NewTextHandler(stderr, &slog.HandlerOptions{Level: level}))

	component := "criticd"
	if *worker {
		component = "criticd-worker"
	}
	reg := telemetry.NewRegistry()
	telemetry.RegisterBuildInfo(reg, component)
	// -artifact-dir persists the store across restarts (Open re-adopts the
	// blobs on disk). Without it the daemon's server creates a temp store it
	// removes at shutdown, and a worker one for its scan inputs; a worker
	// re-opened on a shared -artifact-dir starts warm.
	var store *artifact.Store
	if *artifactDir != "" {
		var err error
		if store, err = artifact.Open(artifact.Config{Dir: *artifactDir, Registry: reg}); err != nil {
			return fail(err)
		}
	}

	if *worker {
		if err := runWorker(ctx, stdout, logger, reg, store, *addr, *coordinator, *advertise, *capacity, *drainTimeout); err != nil {
			return fail(err)
		}
		return 0
	}

	// The tracer collects each finished job's spans for the daemon's whole
	// lifetime; closeTrace terminates the JSON document. It runs after
	// Shutdown on every drain, so a SIGTERM never leaves a truncated trace
	// behind.
	closeTrace := func() {}
	var tracer *telemetry.Tracer
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			return fail(err)
		}
		defer f.Close() // on the error returns; the drain closes it through closeTrace
		tracer = telemetry.NewTracer(f)
		tracer.MetaProcessName(telemetry.EnginePID, "criticd jobs (wall-clock µs)")
		closeTrace = func() {
			if err := tracer.Close(); err != nil {
				fmt.Fprintln(stderr, "criticd: closing trace:", err)
			}
			if err := f.Close(); err != nil {
				fmt.Fprintln(stderr, "criticd: closing trace file:", err)
			}
			logger.Info("trace written", "path", *traceOut)
		}
	}

	var coord *dist.Coordinator
	if *distMode || *distWorkers != "" {
		coord = dist.NewCoordinator(dist.Config{Registry: reg, Logger: logger})
		defer coord.Close()
		for _, u := range strings.Split(*distWorkers, ",") {
			if u = strings.TrimSpace(u); u != "" {
				coord.AddWorkerCapacity(strings.TrimRight(u, "/"), *capacity)
			}
		}
	}
	cfg.Registry, cfg.Tracer, cfg.Logger, cfg.Coordinator, cfg.Artifacts = reg, tracer, logger, coord, store
	srv := server.New(cfg)

	up := func(a net.Addr) error {
		logger.Info("serving", "addr", a.String(), "queue", cfg.QueueSize, "jobs", cfg.Workers, "dist", coord != nil)
		return nil
	}
	// Drain order: refuse new work and finish jobs first (the coordinator
	// drains alongside so remote units complete); serve closes the listener
	// afterwards.
	drain := func(ctx context.Context) error {
		err := srv.Shutdown(ctx)
		closeTrace() // after a failed drain, keeps what was traced
		if err != nil {
			return fmt.Errorf("drain incomplete: %w", err)
		}
		if coord != nil {
			if err := coord.Drain(ctx); err != nil {
				fmt.Fprintln(stderr, "criticd:", err)
			}
		}
		return nil
	}
	if err := serve(ctx, stdout, logger, *addr, *drainTimeout, srv.Handler(), up, drain); err != nil {
		return fail(err)
	}
	logger.Info("drained cleanly")
	return 0
}

// runWorker is criticd -worker: serve the dist task API, optionally announce
// to a coordinator, and once ctx is cancelled deregister, finish in-flight
// tasks and return.
func runWorker(ctx context.Context, stdout io.Writer, logger *slog.Logger, reg *telemetry.Registry,
	store *artifact.Store, addr, coordURL, advertise string, capacity int, drainTimeout time.Duration) error {
	coordURL = strings.TrimRight(coordURL, "/")
	// Missing scan artifacts are fetched from the coordinator by digest.
	wk := dist.NewWorker(dist.WorkerConfig{Capacity: capacity, Registry: reg, Logger: logger,
		Artifacts: store, ArtifactSource: coordURL})
	mux := http.NewServeMux()
	mux.Handle("/", wk.Handler())
	mux.Handle("GET /metrics", reg)

	up := func(a net.Addr) error {
		if advertise == "" {
			advertise = "http://" + a.String()
		}
		advertise = strings.TrimRight(advertise, "/")
		logger.Info("worker serving", "addr", a.String(), "capacity", capacity, "advertise", advertise)
		if coordURL == "" {
			return nil
		}
		regCtx, cancel := context.WithTimeout(ctx, time.Minute)
		defer cancel()
		if err := dist.Register(regCtx, nil, coordURL, advertise, capacity); err != nil {
			return err
		}
		logger.Info("registered with coordinator", "coordinator", coordURL)
		return nil
	}
	// Drain order: leave the fleet so no new tasks are routed here, then
	// finish in-flight tasks; serve closes the listener afterwards.
	drain := func(ctx context.Context) error {
		if coordURL != "" {
			if err := dist.Deregister(ctx, nil, coordURL, advertise); err != nil {
				logger.Warn("deregister failed", "err", err)
			}
		}
		wk.Drain()
		return nil
	}
	if err := serve(ctx, stdout, logger, addr, drainTimeout, mux, up, drain); err != nil {
		return err
	}
	logger.Info("worker drained cleanly")
	return nil
}

// serve is the listen/serve/drain cycle of both modes. It listens on addr,
// prints the one stdout line scripts parse (the resolved address, including
// an ephemeral port when addr ends in :0), calls up, and serves h until ctx
// is cancelled. Then drain runs under the grace deadline while the listener
// still answers late status polls, and the listener closes last.
func serve(ctx context.Context, stdout io.Writer, logger *slog.Logger, addr string, grace time.Duration,
	h http.Handler, up func(net.Addr) error, drain func(context.Context) error) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: h}
	fmt.Fprintf(stdout, "criticd listening on http://%s\n", ln.Addr())
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	if err := up(ln.Addr()); err != nil {
		_ = hs.Close()
		return err
	}
	select {
	case <-ctx.Done():
		logger.Info("draining", "grace", grace.String())
	case err := <-errc:
		return err
	}

	dctx, cancel := context.WithTimeout(context.Background(), grace)
	defer cancel()
	if err := drain(dctx); err != nil {
		_ = hs.Shutdown(context.Background())
		return err
	}
	return hs.Shutdown(dctx)
}
