// Command criticfleet simulates a device fleet for the fleet PGO loop: N
// devices profile apps locally (internal/fleet.BuildDeviceSketch), encode
// the bounded sketches and stream them to a criticd coordinator's
// POST /v1/profiles over several rounds. Chaos knobs inject dropped uploads
// and delivery jitter — the consensus is a lattice join, so the coordinator
// must converge to identical bytes regardless.
//
// Usage:
//
//	criticfleet -addr http://127.0.0.1:9720 -devices 8 -rounds 2
//	criticfleet -apps acrobat,maps -drop 0.2 -jitter 20ms -seed 7
//	criticfleet -converge -quick        # submit a fleet job per app afterwards
//
// Every device decision (drop, jitter, upload order under -shuffle) comes
// from a per-device RNG seeded by (-seed, device index), so a run is
// reproducible and the set of delivered sketches is independent of
// goroutine scheduling.
package main

import (
	"cmp"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"critics/internal/fleet"
	"critics/internal/server"
	"critics/internal/telemetry"
	"critics/internal/workload"
)

func main() {
	os.Exit(run(context.Background(), os.Args[1:], os.Stdout, os.Stderr))
}

// run is criticfleet given its arguments and output streams; cancelling ctx
// abandons the run. It returns the exit code.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("criticfleet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr     = fs.String("addr", cmp.Or(os.Getenv("CRITICD_ADDR"), "http://127.0.0.1:9720"), "criticd base URL (or $CRITICD_ADDR)")
		devices  = fs.Int("devices", 8, "simulated devices")
		appsFlag = fs.String("apps", "acrobat", "comma-separated app names the fleet runs")
		rounds   = fs.Int("rounds", 2, "upload rounds; each round extends every device's cumulative sketch")
		drop     = fs.Float64("drop", 0, "probability a device drops an upload (chaos; re-sent next round)")
		jitter   = fs.Duration("jitter", 0, "max random delay before each upload (chaos)")
		seed     = fs.Int64("seed", 1, "fleet RNG seed (drop/jitter/shuffle decisions)")
		shuffle  = fs.Bool("shuffle", false, "permute device launch order per round (arrival-order chaos)")
		converge = fs.Bool("converge", false, "submit a fleet converge job per app after the rounds and print the reports")
		quick    = fs.Bool("quick", false, "reduced-scale windows for -converge jobs")
		timeout  = fs.Duration("timeout", 10*time.Minute, "overall deadline")
		verbose  = fs.Bool("v", false, "per-upload log on stderr")
		version  = fs.Bool("version", false, "print the build version and exit")
	)
	if err := fs.Parse(args); err == flag.ErrHelp {
		return 0
	} else if err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "criticfleet:", err)
		return 1
	}
	if *version {
		fmt.Fprintln(stdout, telemetry.PrintVersion("criticfleet"))
		return 0
	}
	if *devices <= 0 || *rounds <= 0 {
		return fail(fmt.Errorf("-devices and -rounds must be positive"))
	}

	var apps []workload.App
	for _, name := range strings.Split(*appsFlag, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		a, ok := workload.FindApp(name)
		if !ok {
			return fail(fmt.Errorf("unknown app %q", name))
		}
		apps = append(apps, a)
	}
	if len(apps) == 0 {
		return fail(fmt.Errorf("no apps (-apps)"))
	}

	ctx, cancel := context.WithTimeout(ctx, *timeout)
	defer cancel()
	c := server.NewClient(*addr)

	var (
		sent, dropped, rejected atomic.Int64
		failOnce                sync.Once
		failed                  error // the first upload that failed for good; ends the run
	)
	logf := func(format string, args ...any) {
		if *verbose {
			fmt.Fprintf(stderr, "criticfleet: "+format+"\n", args...)
		}
	}

	// One goroutine per device per round; all chaos decisions come from the
	// device's own deterministic RNG, so the delivered set is a pure
	// function of the flags even though arrival order is not.
	for round := 1; round <= *rounds; round++ {
		order := make([]int, *devices)
		for i := range order {
			order[i] = i
		}
		if *shuffle {
			rand.New(rand.NewSource(*seed+int64(round))).Shuffle(len(order), func(i, j int) {
				order[i], order[j] = order[j], order[i]
			})
		}
		var wg sync.WaitGroup
		for _, idx := range order {
			wg.Add(1)
			go func(idx, round int) {
				defer wg.Done()
				id := fmt.Sprintf("device-%03d", idx)
				rng := rand.New(rand.NewSource(*seed*1_000_003 + int64(idx)*31 + int64(round)))
				for _, a := range apps {
					if rng.Float64() < *drop {
						dropped.Add(1)
						logf("%s round %d %s: upload dropped", id, round, a.Params.Name)
						continue
					}
					if *jitter > 0 {
						time.Sleep(time.Duration(rng.Int63n(int64(*jitter))))
					}
					sk := fleet.BuildDeviceSketch(a, id, round)
					err := c.PostProfile(ctx, sk.Encode())
					for err != nil {
						apiErr, ok := err.(*server.APIError)
						if !ok || !apiErr.Retryable || ctx.Err() != nil {
							failOnce.Do(func() {
								failed = fmt.Errorf("%s round %d %s: %w", id, round, a.Params.Name, err)
								cancel() // the other devices' uploads stop too
							})
							return
						}
						rejected.Add(1)
						wait := apiErr.RetryAfter
						if wait <= 0 {
							wait = time.Second
						}
						logf("%s round %d %s: shed (429), retrying in %s", id, round, a.Params.Name, wait)
						time.Sleep(wait)
						err = c.PostProfile(ctx, sk.Encode())
					}
					sent.Add(1)
					logf("%s round %d %s: %d bytes accepted", id, round, a.Params.Name, len(sk.Encode()))
				}
			}(idx, round)
		}
		wg.Wait()
		if failed != nil {
			return fail(failed)
		}
		fmt.Fprintf(stdout, "round %d/%d: %d sketches accepted, %d dropped, %d shed-retries\n",
			round, *rounds, sent.Load(), dropped.Load(), rejected.Load())
	}

	status, err := c.Fleet(ctx)
	if err != nil {
		return fail(err)
	}
	sort.Slice(status, func(i, j int) bool { return status[i].App < status[j].App })
	for _, as := range status {
		fmt.Fprintf(stdout, "consensus %s: rev %d, %d sketches, ~%.0f devices, %d keys, digest %s\n",
			as.App, as.Revision, as.Sketches, as.Devices, as.Keys, as.Digest)
	}

	if !*converge {
		return 0
	}
	for _, a := range apps {
		st, err := c.Submit(ctx, server.SubmitRequest{Kind: server.KindFleet, App: a.Params.Name, Quick: *quick})
		if err != nil {
			return fail(err)
		}
		if st, err = c.Wait(ctx, st.ID, *timeout); err != nil {
			return fail(err)
		}
		if st.State != server.StateSucceeded {
			return fail(fmt.Errorf("fleet job %s for %s %s: %s", st.ID, a.Params.Name, st.State, st.Error))
		}
		res, err := c.Result(ctx, st.ID)
		if err != nil {
			return fail(err)
		}
		printText(stdout, res)
	}
	return 0
}

// printText prints the "text" field of a result document, falling back to
// the raw JSON.
func printText(w io.Writer, res []byte) {
	var doc struct {
		Text string `json:"text"`
	}
	if err := json.Unmarshal(res, &doc); err == nil && doc.Text != "" {
		fmt.Fprint(w, doc.Text)
		return
	}
	fmt.Fprintf(w, "%s\n", res)
}
