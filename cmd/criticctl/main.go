// Command criticctl is the client for criticd, the profiling-and-
// optimization daemon.
//
// Usage:
//
//	criticctl [-addr http://host:port] <command> [flags]
//
//	criticctl submit -app acrobat -quick -wait     # run and print the report
//	criticctl submit -exp fig10a                   # enqueue, print the job id
//	criticctl status j000001
//	criticctl wait j000001 -timeout 2m
//	criticctl result j000001 -o result.json
//	criticctl cancel j000001
//	criticctl bench -n 16 -c 4 -app acrobat -quick # throughput + latency
//	criticctl scan -app acrobat                    # source-free missed-CritIC scan
//	criticctl scan -app acrobat -local             # same report, computed in-process
//	criticctl artifacts list                       # content-addressed store contents
//	criticctl workers                              # dist fleet status
//	criticctl fleet status                         # device-fleet consensus state
//	criticctl fleet converge acrobat               # run the fleet PGO optimizer
//	criticctl apps
//	criticctl experiments
//
// The daemon address comes from -addr or $CRITICD_ADDR (default
// http://127.0.0.1:9720).
package main

import (
	"cmp"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"critics/internal/server"
)

const usage = `usage: criticctl [-addr URL] <command> [flags]

commands:
  submit       submit a job (-app or -exp; -wait to block for the result)
  status       print one job's status        (criticctl status <id>)
  result       print a succeeded job's result (criticctl result <id> [-o file])
  wait         poll until the job finishes    (criticctl wait <id> [-timeout d])
  cancel       cancel a queued or running job (criticctl cancel <id>)
  bench        fire N concurrent jobs and report throughput and latency
  workers      print the distributed-execution fleet status (-dist daemons)
  trace        fetch a job's span tree   (criticctl trace <id> [-chrome] [-o file])
  events       print flight-recorder events (criticctl events [-job id])
  scan         source-free scan of a binary image + trace for missed CritICs
               (-app NAME to assemble one, or -image/-trace files; -local
               computes in-process and is byte-identical to daemon dispatch)
  artifacts    content-addressed store: list, stat <digest>, gc
  fleet        fleet PGO loop: status, converge <app> (see criticfleet for devices)
  slo          assert stage latency quantiles (criticctl slo -target e2e:p95<=2.5s)
  top          one-shot fleet snapshot: jobs, stage latencies, workers
  apps         list the workload catalog
  experiments  list runnable experiment ids
`

// exitCode is an error whose message has already been printed: run exits
// with its value and prints nothing more.
type exitCode int

func (e exitCode) Error() string { return fmt.Sprintf("exit status %d", int(e)) }

func main() {
	os.Exit(run(context.Background(), os.Args[1:], os.Stdout, os.Stderr))
}

// run is criticctl given its arguments and output streams; cancelling ctx
// abandons the command. It returns the exit code: 1 on failure, 2 on misuse.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("criticctl", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() { fmt.Fprint(stderr, usage) }
	addr := fs.String("addr", cmp.Or(os.Getenv("CRITICD_ADDR"), "http://127.0.0.1:9720"), "criticd base URL (or $CRITICD_ADDR)")
	if fs.Parse(args) != nil {
		return 2
	}
	if fs.NArg() < 1 {
		fs.Usage()
		return 2
	}
	x := &cli{c: server.NewClient(*addr), stdout: stdout, stderr: stderr}
	err := x.command(ctx, fs.Arg(0), fs.Args()[1:])
	if code, ok := err.(exitCode); ok {
		return int(code)
	} else if err != nil {
		fmt.Fprintln(stderr, "criticctl:", err)
		return 1
	}
	return 0
}

// cli is one criticctl invocation: the daemon client and the output streams.
type cli struct {
	c              *server.Client
	stdout, stderr io.Writer
}

// parse parses a subcommand's flags, reporting a bad one to stderr: it
// exits 2, and -h exits 0.
func (x *cli) parse(fs *flag.FlagSet, args []string) error {
	fs.SetOutput(x.stderr)
	if err := fs.Parse(args); err == flag.ErrHelp {
		return exitCode(0)
	} else if err != nil {
		return exitCode(2)
	}
	return nil
}

func (x *cli) command(ctx context.Context, cmd string, args []string) error {
	switch cmd {
	case "submit":
		return x.submit(ctx, args)
	case "status", "cancel":
		id, err := x.parseID(flag.NewFlagSet(cmd, flag.ContinueOnError), args)
		if err != nil {
			return err
		}
		get := x.c.Status
		if cmd == "cancel" {
			get = x.c.Cancel
		}
		st, err := get(ctx, id)
		if err != nil {
			return err
		}
		x.printStatus(st)
	case "result":
		fs := flag.NewFlagSet("result", flag.ContinueOnError)
		out := fs.String("o", "", "write the raw result JSON to this file instead of stdout")
		id, err := x.parseID(fs, args)
		if err != nil {
			return err
		}
		res, err := x.c.Result(ctx, id)
		if err != nil {
			return err
		}
		if *out != "" {
			if err := os.WriteFile(*out, res, 0o644); err != nil {
				return err
			}
			fmt.Fprintf(x.stdout, "result written to %s (%d bytes)\n", *out, len(res))
			return nil
		}
		x.printResultText(res)
	case "wait":
		fs := flag.NewFlagSet("wait", flag.ContinueOnError)
		timeout := fs.Duration("timeout", 10*time.Minute, "give up after this long (0 = forever)")
		id, err := x.parseID(fs, args)
		if err != nil {
			return err
		}
		st, err := x.c.Wait(ctx, id, *timeout)
		if err != nil {
			return err
		}
		x.printStatus(st)
		if st.State != server.StateSucceeded {
			return exitCode(1)
		}
	case "bench":
		return x.bench(ctx, args)
	case "workers":
		return x.workers(ctx)
	case "trace":
		fs := flag.NewFlagSet("trace", flag.ContinueOnError)
		chrome := fs.Bool("chrome", false, "Chrome trace-event export (Perfetto-loadable) instead of the span tree")
		out := fs.String("o", "", "write to this file instead of stdout")
		id, err := x.parseID(fs, args)
		if err != nil {
			return err
		}
		format := ""
		if *chrome {
			format = "chrome"
		}
		raw, err := x.c.Trace(ctx, id, format)
		if err != nil {
			return err
		}
		if *out != "" {
			if err := os.WriteFile(*out, raw, 0o644); err != nil {
				return err
			}
			fmt.Fprintf(x.stdout, "trace written to %s (%d bytes)\n", *out, len(raw))
			return nil
		}
		x.stdout.Write(raw)
	case "events":
		fs := flag.NewFlagSet("events", flag.ContinueOnError)
		jobID := fs.String("job", "", "filter to one job's events")
		if err := x.parse(fs, args); err != nil {
			return err
		}
		raw, err := x.c.Events(ctx, *jobID)
		if err != nil {
			return err
		}
		fmt.Fprintf(x.stdout, "%s\n", raw)
	case "scan":
		return x.scan(ctx, args)
	case "artifacts":
		return x.artifacts(ctx, args)
	case "fleet":
		return x.fleet(ctx, args)
	case "slo":
		return x.slo(ctx, args)
	case "top":
		return x.top(ctx, args)
	case "apps":
		suites, err := x.c.Apps(ctx)
		if err != nil {
			return err
		}
		names := make([]string, 0, len(suites))
		for s := range suites {
			names = append(names, s)
		}
		sort.Strings(names)
		for _, s := range names {
			fmt.Fprintf(x.stdout, "%s:\n", s)
			for _, a := range suites[s] {
				fmt.Fprintf(x.stdout, "  %s\n", a)
			}
		}
	case "experiments":
		ids, err := x.c.Experiments(ctx)
		if err != nil {
			return err
		}
		for _, id := range ids {
			fmt.Fprintln(x.stdout, id)
		}
	default:
		fmt.Fprintf(x.stderr, "criticctl: unknown command %q\n\n%s", cmd, usage)
		return exitCode(2)
	}
	return nil
}

// parseID parses the subcommand's flags and returns the job id, which may
// come before or after them.
func (x *cli) parseID(fs *flag.FlagSet, args []string) (string, error) {
	if len(args) > 0 && len(args[0]) > 0 && args[0][0] != '-' {
		return args[0], x.parse(fs, args[1:])
	}
	if err := x.parse(fs, args); err != nil {
		return "", err
	}
	if fs.NArg() < 1 {
		fmt.Fprintln(x.stderr, "criticctl: missing job id")
		return "", exitCode(2)
	}
	return fs.Arg(0), nil
}

func (x *cli) printStatus(st server.JobStatus) {
	w := x.stdout
	fmt.Fprintf(w, "job %s  kind=%s", st.ID, st.Kind)
	if st.App != "" {
		fmt.Fprintf(w, " app=%s", st.App)
	}
	if st.Experiment != "" {
		fmt.Fprintf(w, " exp=%s", st.Experiment)
	}
	fmt.Fprintf(w, "  state=%s", st.State)
	if d := st.Duration(); d > 0 {
		fmt.Fprintf(w, "  elapsed=%.2fs", d.Seconds())
	}
	if st.Error != "" {
		fmt.Fprintf(w, "  error=%q retryable=%v", st.Error, st.Retryable)
	}
	fmt.Fprintln(w)
}

// printResult waits for job id to finish and prints its result text. A
// job that did not succeed is an error naming it what.
func (x *cli) printResult(ctx context.Context, what, id string, timeout time.Duration) error {
	st, err := x.c.Wait(ctx, id, timeout)
	if err != nil {
		return err
	}
	if st.State != server.StateSucceeded {
		return fmt.Errorf("%s %s %s: %s", what, st.ID, st.State, st.Error)
	}
	res, err := x.c.Result(ctx, st.ID)
	if err != nil {
		return err
	}
	x.printResultText(res)
	return nil
}

// printResultText prints the result's human-readable text (the full JSON
// document is available with result -o).
func (x *cli) printResultText(res []byte) {
	var doc server.Result
	if err := json.Unmarshal(res, &doc); err != nil || doc.Text == "" {
		fmt.Fprintf(x.stdout, "%s\n", res)
		return
	}
	fmt.Fprint(x.stdout, doc.Text)
}

func (x *cli) submit(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("submit", flag.ContinueOnError)
	var req server.SubmitRequest
	fs.StringVar(&req.App, "app", "", "app to optimize/profile/trace")
	fs.StringVar(&req.Experiment, "exp", "", "experiment id to run")
	fs.StringVar((*string)(&req.Kind), "kind", "", "job kind: optimize (default with -app), profile, experiment (default with -exp), trace")
	fs.BoolVar(&req.Quick, "quick", false, "reduced-scale windows")
	fs.IntVar(&req.Workers, "workers", 0, "per-job shard pool bound (0 = daemon default)")
	fs.IntVar(&req.MeasureInstrs, "measure-instrs", 0, "measured window override, architectural instructions")
	timeout := fs.Duration("timeout", 0, "per-job deadline (0 = daemon default)")
	fs.StringVar(&req.IdempotencyKey, "idempotency-key", "", "safe-retry key: resubmits return the existing job")
	wait := fs.Bool("wait", false, "block until the job finishes and print its result")
	waitFor := fs.Duration("wait-timeout", 10*time.Minute, "give up waiting after this long (with -wait)")
	if err := x.parse(fs, args); err != nil {
		return err
	}
	req.TimeoutMS = timeout.Milliseconds()
	st, err := x.c.Submit(ctx, req)
	if err != nil {
		return err
	}
	x.printStatus(st)
	if !*wait {
		return nil
	}
	if st, err = x.c.Wait(ctx, st.ID, *waitFor); err != nil {
		return err
	}
	if st.State != server.StateSucceeded {
		x.printStatus(st)
		return exitCode(1)
	}
	res, err := x.c.Result(ctx, st.ID)
	if err != nil {
		return err
	}
	x.printResultText(res)
	return nil
}

// bench parses flags, delegates to runBench (bench.go) and prints the
// report.
func (x *cli) bench(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		n       = fs.Int("n", 16, "total jobs")
		conc    = fs.Int("c", 4, "concurrent submitters")
		app     = fs.String("app", "acrobat", "app to optimize")
		quick   = fs.Bool("quick", true, "reduced-scale windows")
		timeout = fs.Duration("timeout", 10*time.Minute, "overall deadline")
	)
	if err := x.parse(fs, args); err != nil {
		return err
	}
	opts := benchOptions{N: *n, Conc: *conc, App: *app, Quick: *quick, Timeout: *timeout}
	res := runBench(ctx, x.c, opts, x.stderr)
	fmt.Fprint(x.stdout, formatBench(opts, res))
	if res.OK != opts.N {
		return exitCode(1)
	}
	return nil
}

// workers prints the coordinator's fleet status.
func (x *cli) workers(ctx context.Context) error {
	ws, err := x.c.DistWorkers(ctx)
	if err != nil {
		return err
	}
	if len(ws) == 0 {
		fmt.Fprintln(x.stdout, "no workers registered")
		return nil
	}
	for _, w := range ws {
		health := "healthy"
		if !w.Healthy {
			health = "UNHEALTHY"
		}
		fmt.Fprintf(x.stdout, "%s  %s  capacity=%d inflight=%d done=%d failures=%d\n",
			w.URL, health, w.Capacity, w.Inflight, w.TasksDone, w.Failures)
	}
	return nil
}
