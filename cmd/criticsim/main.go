// Command criticsim reproduces the paper's evaluation: it runs any table or
// figure experiment by id and prints the same rows/series the paper reports.
//
// Usage:
//
//	criticsim -list
//	criticsim -exp fig10a
//	criticsim -all
//	criticsim -app acrobat          # end-to-end single-app report
//	criticsim -exp fig11a -quick    # reduced windows
//	criticsim -all -workers 8 -cache-stats
//
// Observability:
//
//	criticsim -app acrobat -quick -trace-out /tmp/t.json   # Chrome trace (Perfetto)
//	criticsim -exp fig5a -quick -trace-out fig5a.json      # engine spans (exp, builds, maps)
//	criticsim -all -metrics-addr :9120                     # /metrics + /debug/pprof
//	criticsim -all -v                                      # structured progress log
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	_ "net/http/pprof"
	"os"
	"slices"
	"strings"
	"time"

	"critics"
	"critics/internal/exp"
	"critics/internal/obs"
	"critics/internal/telemetry"
)

func main() {
	os.Exit(run(context.Background(), os.Args[1:], os.Stdout, os.Stderr))
}

// run is criticsim given its arguments and output streams; cancelling ctx
// abandons the run. It returns the exit code.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("criticsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		expID       = fs.String("exp", "", "experiment id to run (see -list)")
		all         = fs.Bool("all", false, "run every experiment")
		list        = fs.Bool("list", false, "list experiment ids")
		app         = fs.String("app", "", "run the end-to-end pipeline on one app")
		quick       = fs.Bool("quick", false, "reduced window sizes")
		measureArch = fs.Int("measure-arch", 0, "measured window size in architectural instructions (0 = scale default; the streaming pipeline holds memory constant as this grows)")
		workers     = fs.Int("workers", 0, "worker pool size (0 = GOMAXPROCS, 1 = serial; results identical)")
		l1iPolicy   = fs.String("l1i-policy", "", "L1I replacement policy for -app runs (empty = lru baseline; see fig-frontend)")
		codeLayout  = fs.String("code-layout", "", "profile-guided code-layout pass for -app runs (empty = program order)")
		cacheStats  = fs.Bool("cache-stats", false, "print memo-cache hit/miss counters after the run")
		metricsAddr = fs.String("metrics-addr", "", "serve Prometheus /metrics and /debug/pprof on this address while running")
		traceOut    = fs.String("trace-out", "", "write a Chrome trace-event JSON file (open in Perfetto / chrome://tracing)")
		verbose     = fs.Bool("v", false, "structured progress log on stderr")
	)
	if err := fs.Parse(args); err == flag.ErrHelp {
		return 0
	} else if err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, err)
		return 1
	}
	// validName reports whether name is one of valid, printing them all
	// when it is not.
	validName := func(kind, name string, valid []string) bool {
		if slices.Contains(valid, name) {
			return true
		}
		fmt.Fprintf(stderr, "criticsim: unknown %s %q (valid: %s)\n", kind, name, strings.Join(valid, ", "))
		return false
	}

	level := slog.LevelWarn
	if *verbose {
		level = slog.LevelInfo
	}
	logger := slog.New(slog.NewTextHandler(stderr, &slog.HandlerOptions{Level: level}))

	// The registry is always attached: it is free until scraped, and keeps
	// -cache-stats and /metrics reading the same counters.
	reg := telemetry.NewRegistry()
	telemetry.RegisterBuildInfo(reg, "criticsim")
	var opts []critics.Option
	if *quick {
		opts = append(opts, critics.WithQuickScale())
	}
	if *measureArch > 0 {
		// After -quick so an explicit window wins over the scale preset.
		opts = append(opts, critics.WithMeasureInstrs(*measureArch))
	}
	if *l1iPolicy != "" || *codeLayout != "" {
		if (*l1iPolicy != "" && !validName("L1I policy", *l1iPolicy, critics.FrontendPolicies())) ||
			(*codeLayout != "" && !validName("code layout", *codeLayout, critics.CodeLayouts())) {
			return 1
		}
		opts = append(opts, critics.WithFrontend(*l1iPolicy, *codeLayout))
	}
	opts = append(opts, critics.WithWorkers(*workers), critics.WithTelemetry(reg))

	if *metricsAddr != "" {
		mux := http.NewServeMux()
		mux.Handle("/metrics", reg)
		mux.Handle("/debug/pprof/", http.DefaultServeMux) // net/http/pprof registers there
		logger.Info("serving metrics", "addr", *metricsAddr)
		ms := &http.Server{Addr: *metricsAddr, Handler: mux}
		defer ms.Close()
		go func() {
			if err := ms.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				logger.Error("metrics server failed", "err", err)
			}
		}()
	}

	// closeTrace closes the -trace-out file once written, keeping the first
	// error.
	closeTrace := func(f *os.File, err error) error {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err == nil {
			logger.Info("trace written", "path", *traceOut)
		}
		return err
	}

	switch {
	case *list:
		for _, id := range critics.ExperimentIDs() {
			fmt.Fprintln(stdout, id)
		}
	case *app != "":
		// Validate before any side effect (notably the -trace-out file) so
		// a typo fails cleanly with the valid names and nothing half-created.
		if !validName("app", *app, critics.AppNames()) {
			return 1
		}
		start := time.Now()
		var rep *critics.Report
		var err error
		if *traceOut == "" {
			rep, err = critics.OptimizeAppContext(ctx, *app, opts...)
		} else if f, cerr := os.Create(*traceOut); cerr != nil {
			err = cerr
		} else {
			rep, err = critics.TraceAppContext(ctx, *app, f, opts...)
			err = closeTrace(f, err)
		}
		if err != nil {
			return fail(err)
		}
		logger.Info("app optimized", "app", *app, "speedup_pct", rep.SpeedupPct,
			"seconds", time.Since(start).Seconds())
		fmt.Fprint(stdout, rep)
	case *all, *expID != "":
		ids := []string{*expID}
		if *all {
			// fig3b/c run fig3a's runner, as fig10b/c run fig10a's and
			// fig11b and fig13b run fig11a's and fig13a's: run each once.
			ids = slices.DeleteFunc(critics.ExperimentIDs(), func(id string) bool {
				return slices.Contains([]string{"fig3b", "fig3c", "fig10b", "fig10c", "fig11b", "fig13b"}, id)
			})
		} else if !validName("experiment", *expID, critics.ExperimentIDs()) {
			return 1
		}
		// -trace-out binds an obs trace to the runs (-app runs export
		// pipeline timelines through TraceAppContext instead): each run
		// records an exp:<id> span over its memo builds and shard maps. The
		// file is created up front, so a bad path fails before any work.
		runCtx := ctx
		var f *os.File
		var tr *obs.Trace
		if *traceOut != "" {
			var err error
			if f, err = os.Create(*traceOut); err != nil {
				return fail(err)
			}
			defer f.Close() // on the error returns; closeTrace closes it after the runs
			tr = obs.NewTrace("criticsim")
			runCtx = obs.ContextWith(ctx, tr, "")
		}
		// A session caches programs/profiles/variants and measurements
		// across experiments.
		sess := critics.NewSession(opts...)
		for _, id := range ids {
			logger.Info("experiment start", "id", id)
			start := time.Now()
			out, err := exp.RunContext(runCtx, id, sess.Context())
			if err != nil {
				return fail(err)
			}
			logger.Info("experiment done", "id", id, "seconds", time.Since(start).Seconds())
			fmt.Fprint(stdout, out)
			if *all {
				fmt.Fprintf(stdout, "  [%s in %.1fs]\n\n", id, time.Since(start).Seconds())
			}
		}
		if *cacheStats {
			fmt.Fprint(stdout, sess.CacheStats())
		}
		if tr != nil {
			if err := closeTrace(f, tr.WriteChrome(f)); err != nil {
				return fail(err)
			}
		}
	default:
		fs.Usage()
		return 2
	}
	return 0
}
