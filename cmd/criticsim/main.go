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
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"strings"
	"time"

	"critics"
	"critics/internal/exp"
	"critics/internal/obs"
	"critics/internal/telemetry"
)

func main() {
	var (
		expID       = flag.String("exp", "", "experiment id to run (see -list)")
		all         = flag.Bool("all", false, "run every experiment")
		list        = flag.Bool("list", false, "list experiment ids")
		app         = flag.String("app", "", "run the end-to-end pipeline on one app")
		quick       = flag.Bool("quick", false, "reduced window sizes")
		measureArch = flag.Int("measure-arch", 0, "measured window size in architectural instructions (0 = scale default; the streaming pipeline holds memory constant as this grows)")
		workers     = flag.Int("workers", 0, "worker pool size (0 = GOMAXPROCS, 1 = serial; results identical)")
		l1iPolicy   = flag.String("l1i-policy", "", "L1I replacement policy for -app runs (empty = lru baseline; see fig-frontend)")
		codeLayout  = flag.String("code-layout", "", "profile-guided code-layout pass for -app runs (empty = program order)")
		cacheStats  = flag.Bool("cache-stats", false, "print memo-cache hit/miss counters after the run")
		metricsAddr = flag.String("metrics-addr", "", "serve Prometheus /metrics and /debug/pprof on this address while running")
		traceOut    = flag.String("trace-out", "", "write a Chrome trace-event JSON file (open in Perfetto / chrome://tracing)")
		verbose     = flag.Bool("v", false, "structured progress log on stderr")
	)
	flag.Parse()

	level := slog.LevelWarn
	if *verbose {
		level = slog.LevelInfo
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))

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
		if *l1iPolicy != "" {
			requireValidName("L1I policy", *l1iPolicy, critics.FrontendPolicies())
		}
		if *codeLayout != "" {
			requireValidName("code layout", *codeLayout, critics.CodeLayouts())
		}
		opts = append(opts, critics.WithFrontend(*l1iPolicy, *codeLayout))
	}
	opts = append(opts, critics.WithWorkers(*workers), critics.WithTelemetry(reg))

	if *metricsAddr != "" {
		mux := http.NewServeMux()
		mux.Handle("/metrics", reg)
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		logger.Info("serving metrics", "addr", *metricsAddr)
		go func() {
			if err := http.ListenAndServe(*metricsAddr, mux); err != nil {
				logger.Error("metrics server failed", "err", err)
			}
		}()
	}

	// traceRuns binds an obs trace to experiment runs (-app runs export
	// pipeline timelines through critics.TraceApp instead): each run records
	// an exp:<id> span over its memo builds and shard maps. The file is
	// created up front, so a bad path fails before any work; the returned
	// func writes the trace into it as Chrome JSON.
	traceRuns := func() (context.Context, func()) {
		if *traceOut == "" {
			return context.Background(), func() {}
		}
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		t := obs.NewTrace("criticsim")
		return obs.ContextWith(context.Background(), t, ""), func() {
			err := t.WriteChrome(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			logger.Info("trace written", "path", *traceOut)
		}
	}

	switch {
	case *list:
		for _, id := range critics.ExperimentIDs() {
			fmt.Println(id)
		}
	case *app != "":
		// Validate before any side effect (notably the -trace-out file) so
		// a typo fails cleanly with the valid names and nothing half-created.
		requireValidName("app", *app, critics.AppNames())
		start := time.Now()
		var (
			rep *critics.Report
			err error
		)
		if *traceOut != "" {
			var f *os.File
			f, err = os.Create(*traceOut)
			if err == nil {
				rep, err = critics.TraceApp(*app, f, opts...)
				if cerr := f.Close(); err == nil {
					err = cerr
				}
				if err == nil {
					logger.Info("trace written", "path", *traceOut)
				}
			}
		} else {
			rep, err = critics.OptimizeApp(*app, opts...)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		logger.Info("app optimized", "app", *app, "speedup_pct", rep.SpeedupPct,
			"seconds", time.Since(start).Seconds())
		fmt.Print(rep)
	case *all:
		ctx, writeTrace := traceRuns()
		// fig3a/b/c share a runner, as do fig10a/b/c and fig11a/b; run
		// each runner once. A session caches programs/profiles/variants
		// and measurements across experiments.
		sess := critics.NewSession(opts...)
		ran := map[string]bool{}
		dedup := map[string]string{
			"fig3b": "fig3a", "fig3c": "fig3a",
			"fig10b": "fig10a", "fig10c": "fig10a",
			"fig11b": "fig11a",
			"fig13b": "fig13a",
		}
		for _, id := range critics.ExperimentIDs() {
			canon := id
			if c, ok := dedup[id]; ok {
				canon = c
			}
			if ran[canon] {
				continue
			}
			ran[canon] = true
			logger.Info("experiment start", "id", canon)
			start := time.Now()
			out, err := exp.RunContext(ctx, canon, sess.Context())
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			logger.Info("experiment done", "id", canon, "seconds", time.Since(start).Seconds())
			fmt.Print(out)
			fmt.Printf("  [%s in %.1fs]\n\n", canon, time.Since(start).Seconds())
		}
		if *cacheStats {
			fmt.Print(sess.CacheStats())
		}
		writeTrace()
	case *expID != "":
		requireValidName("experiment", *expID, critics.ExperimentIDs())
		ctx, writeTrace := traceRuns()
		sess := critics.NewSession(opts...)
		logger.Info("experiment start", "id", *expID)
		start := time.Now()
		out, err := exp.RunContext(ctx, *expID, sess.Context())
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		logger.Info("experiment done", "id", *expID, "seconds", time.Since(start).Seconds())
		fmt.Print(out)
		if *cacheStats {
			fmt.Print(sess.CacheStats())
		}
		writeTrace()
	default:
		flag.Usage()
		os.Exit(2)
	}
}

// requireValidName exits 1 with the full list of valid names when name is
// not one of them.
func requireValidName(kind, name string, valid []string) {
	for _, v := range valid {
		if v == name {
			return
		}
	}
	fmt.Fprintf(os.Stderr, "criticsim: unknown %s %q (valid: %s)\n", kind, name, strings.Join(valid, ", "))
	os.Exit(1)
}
