package main

import (
	"context"
	"flag"
	"fmt"
	"time"

	"critics/internal/server"
)

const fleetUsage = `usage: criticctl fleet <subcommand>

subcommands:
  status                  per-app consensus + converge state (GET /v1/fleet)
  converge <app> [flags]  run the iterative optimizer against the app's
                          fleet consensus and print the report
                          (-quick, -workers N, -timeout d)
`

// fleet implements "criticctl fleet <status|converge>".
func (x *cli) fleet(ctx context.Context, args []string) error {
	if len(args) < 1 {
		fmt.Fprint(x.stderr, fleetUsage)
		return exitCode(2)
	}
	sub, rest := args[0], args[1:]
	switch sub {
	case "status":
		if err := x.parse(flag.NewFlagSet("fleet status", flag.ContinueOnError), rest); err != nil {
			return err
		}
		apps, err := x.c.Fleet(ctx)
		if err != nil {
			return err
		}
		if len(apps) == 0 {
			fmt.Fprintln(x.stdout, "no fleet state: no device sketches ingested yet")
			return nil
		}
		fmt.Fprintf(x.stdout, "%-12s %8s %8s %8s %6s  %-16s %s\n",
			"APP", "REV", "SKETCHES", "DEVICES", "KEYS", "CONSENSUS", "CONVERGE")
		for _, a := range apps {
			converge := "-"
			if a.Winner != "" {
				state := "running"
				if a.Converged {
					state = "converged"
				}
				converge = fmt.Sprintf("%s %s (%d gen, %d chains, %s)",
					state, a.Winner, a.Generations, a.SelectedChains, a.WinnerDigest)
			}
			fmt.Fprintf(x.stdout, "%-12s %8d %8d %8.0f %6d  %-16s %s\n",
				a.App, a.Revision, a.Sketches, a.Devices, a.Keys, a.Digest, converge)
		}
	case "converge":
		fs := flag.NewFlagSet("fleet converge", flag.ContinueOnError)
		quick := fs.Bool("quick", false, "reduced-scale windows (faster, noisier)")
		workers := fs.Int("workers", 0, "shard workers for the job (0 = server default)")
		timeout := fs.Duration("timeout", 10*time.Minute, "give up waiting after this long")
		app := ""
		if len(rest) > 0 && len(rest[0]) > 0 && rest[0][0] != '-' {
			app = rest[0]
			rest = rest[1:]
		}
		if err := x.parse(fs, rest); err != nil {
			return err
		}
		if app == "" && fs.NArg() > 0 {
			app = fs.Arg(0)
		}
		if app == "" {
			fmt.Fprint(x.stderr, "criticctl: fleet converge requires an app name\n"+fleetUsage)
			return exitCode(2)
		}
		st, err := x.c.Submit(ctx, server.SubmitRequest{
			Kind: server.KindFleet, App: app, Quick: *quick, Workers: *workers,
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(x.stdout, "job %s submitted (%s %s)\n", st.ID, st.Kind, st.App)
		return x.printResult(ctx, "job", st.ID, *timeout)
	default:
		fmt.Fprintf(x.stderr, "criticctl: unknown fleet subcommand %q\n\n%s", sub, fleetUsage)
		return exitCode(2)
	}
	return nil
}
