package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"sort"
	"strings"

	"critics/internal/obs"
)

// sloTargets collects repeated -target flags.
type sloTargets []string

func (t *sloTargets) String() string     { return strings.Join(*t, ",") }
func (t *sloTargets) Set(v string) error { *t = append(*t, v); return nil }

// slo scrapes the daemon's /metrics, estimates the requested stage
// quantiles from the critics_slo_stage_seconds histograms, and asserts them
// against the targets. Exit 0 when every target holds, 1 on any violation
// (each printed with the exemplar trace id of a concrete offending job),
// 2 on malformed targets.
func (x *cli) slo(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("slo", flag.ContinueOnError)
	var raw sloTargets
	fs.Var(&raw, "target", "SLO assertion stage:pN<=duration (repeatable), e.g. -target e2e:p95<=2.5s -target queue_wait:p50<=100ms")
	if err := x.parse(fs, args); err != nil {
		return err
	}
	raw = append(raw, fs.Args()...) // bare args are targets too
	if len(raw) == 0 {
		fmt.Fprintln(x.stderr, "criticctl slo: at least one -target stage:pN<=duration required")
		fmt.Fprintln(x.stderr, "stages: queue_wait, dispatch_rtt, compute, e2e")
		return exitCode(2)
	}
	targets := make([]obs.Target, 0, len(raw))
	for _, s := range raw {
		tg, err := obs.ParseTarget(s)
		if err != nil {
			fmt.Fprintln(x.stderr, "criticctl slo:", err)
			return exitCode(2)
		}
		targets = append(targets, tg)
	}

	text, err := x.c.MetricsText(ctx)
	if err != nil {
		return err
	}
	stages := obs.ParseStageHistograms(text, obs.SLOFamily, "stage")
	violations, err := obs.Evaluate(targets, stages)
	if err != nil {
		return err
	}
	for _, tg := range targets {
		cdf := stages[tg.Stage]
		fmt.Fprintf(x.stdout, "%-12s p%-4g %s  (target %s, %d observations)\n",
			tg.Stage, tg.Q*100, fmtSeconds(cdf.Quantile(tg.Q)), fmtSeconds(tg.Bound), cdf.Count())
	}
	if len(violations) > 0 {
		for _, v := range violations {
			fmt.Fprintln(x.stderr, "SLO VIOLATION:", v)
		}
		return exitCode(1)
	}
	fmt.Fprintln(x.stdout, "all SLO targets met")
	return nil
}

// top prints a one-shot fleet snapshot assembled from /metrics (queue,
// jobs, stage latencies) plus the coordinator's worker list when
// distribution is on.
func (x *cli) top(ctx context.Context, args []string) error {
	if err := x.parse(flag.NewFlagSet("top", flag.ContinueOnError), args); err != nil {
		return err
	}
	text, err := x.c.MetricsText(ctx)
	if err != nil {
		return err
	}
	val := func(name string) float64 {
		v, _ := obs.MetricValue(text, name, nil)
		return v
	}
	outcome := func(o string) float64 {
		v, _ := obs.MetricValue(text, "critics_server_jobs_total", map[string]string{"outcome": o})
		return v
	}
	fmt.Fprintf(x.stdout, "jobs      queued=%.0f inflight=%.0f  succeeded=%.0f failed=%.0f canceled=%.0f rejected=%.0f\n",
		val("critics_server_queue_depth"), val("critics_server_inflight_jobs"),
		outcome("succeeded"), outcome("failed"), outcome("canceled"), outcome("rejected"))

	stages := obs.ParseStageHistograms(text, obs.SLOFamily, "stage")
	names := make([]string, 0, len(stages))
	for n := range stages {
		names = append(names, n)
	}
	sort.Strings(names)
	if len(names) > 0 {
		fmt.Fprintln(x.stdout, "\nstage         count       p50       p95       p99")
		for _, n := range names {
			cdf := stages[n]
			fmt.Fprintf(x.stdout, "%-12s %6d %9s %9s %9s\n", n, cdf.Count(),
				fmtSeconds(cdf.Quantile(0.50)), fmtSeconds(cdf.Quantile(0.95)), fmtSeconds(cdf.Quantile(0.99)))
		}
	}

	if ws, err := x.c.DistWorkers(ctx); err == nil {
		fmt.Fprintf(x.stdout, "\nworkers   healthy=%.0f\n", val("critics_dist_workers_healthy"))
		for _, w := range ws {
			health := "healthy"
			if !w.Healthy {
				health = "UNHEALTHY"
			}
			fmt.Fprintf(x.stdout, "  %s  %s  inflight=%d done=%d failures=%d\n",
				w.URL, health, w.Inflight, w.TasksDone, w.Failures)
		}
	}
	return nil
}

// fmtSeconds renders a latency bound compactly (µs/ms/s by magnitude).
func fmtSeconds(s float64) string {
	switch {
	case math.IsNaN(s):
		return "-"
	case math.IsInf(s, 1):
		return "+Inf"
	case s < 0.001:
		return fmt.Sprintf("%.0fµs", s*1e6)
	case s < 1:
		return fmt.Sprintf("%.3gms", s*1e3)
	default:
		return fmt.Sprintf("%.3gs", s)
	}
}
