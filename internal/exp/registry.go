package exp

import (
	"context"
	"fmt"
	"sort"
	"time"

	"critics/internal/obs"
	"critics/internal/telemetry"
)

// Runner executes one experiment and returns its formatted report.
type Runner func(*Context) string

// registry maps experiment ids (figure/table numbers) to runners.
var registry = map[string]Runner{
	"fig1a":  func(c *Context) string { return RunFig1a(c).String() },
	"fig1b":  func(c *Context) string { return RunFig1b(c).String() },
	"fig3a":  func(c *Context) string { return RunFig3(c).String() },
	"fig3b":  func(c *Context) string { return RunFig3(c).String() },
	"fig3c":  func(c *Context) string { return RunFig3(c).String() },
	"fig5a":  func(c *Context) string { return RunFig5a(c).String() },
	"fig5b":  func(c *Context) string { return RunFig5b(c).String() },
	"fig8":   func(c *Context) string { return RunFig8(c).String() },
	"fig10a": func(c *Context) string { return RunFig10(c).String() },
	"fig10b": func(c *Context) string { return RunFig10(c).String() },
	"fig10c": func(c *Context) string { return RunFig10(c).String() },
	"fig11a": func(c *Context) string { return RunFig11(c).String() },
	"fig11b": func(c *Context) string { return RunFig11(c).String() },
	"fig12a": func(c *Context) string { return RunFig12a(c).String() },
	"fig12b": func(c *Context) string { return RunFig12b(c).String() },
	"fig13a": func(c *Context) string { return RunFig13(c).String() },
	"fig13b": func(c *Context) string { return RunFig13(c).String() },
	"tab1":   func(c *Context) string { return Table1String() },
	"tab2":   func(c *Context) string { return Table2String() },

	// Ablations beyond the paper's own (DESIGN.md "Ablations called out").
	"ablate-fetch": func(c *Context) string { return RunAblateFetch(c).String() },
	"ablate-cdp":   func(c *Context) string { return RunAblateCDP(c).String() },

	// Front-end co-optimization sweep (DESIGN.md "Front-end model").
	"fig-frontend": func(c *Context) string { return RunFigFrontend(c).String() },
}

// IDs returns all experiment ids in sorted order.
func IDs() []string {
	ids := make([]string, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Run executes the experiment with the given id. With telemetry attached it
// observes the run's wall time under critics_experiment_seconds{exp=id}.
func Run(id string, c *Context) (string, error) {
	return RunContext(context.Background(), id, c)
}

// RunContext is Run with cancellation: the context is bound to c for the
// duration of the run (Context.SetRunContext), so worker pools stop
// dispatching shards and no partial artifact is retained in the memo caches
// once ctx is done. A cancelled run returns ctx's error and no output.
// Runners assume complete artifacts, so a shard skipped by cancellation can
// surface as a panic mid-format; RunContext converts such panics back into
// the context error (a panic with a live context still propagates). When ctx
// carries an obs trace, a completed run records an "exp:<id>" span there
// that parents the run's builds and shard maps.
func RunContext(ctx context.Context, id string, c *Context) (out string, err error) {
	r, ok := registry[id]
	if !ok {
		return "", fmt.Errorf("exp: unknown experiment %q (known: %v)", id, IDs())
	}
	if err := ctx.Err(); err != nil {
		return "", err
	}
	span := "exp:" + id
	t, parent, traced := obs.FromContext(ctx)
	prev := c.runCtx
	c.SetRunContext(obs.ContextWith(ctx, t, span))
	defer c.SetRunContext(prev)
	defer RecoverCancelled(ctx, &err)
	var t0 int64
	if traced {
		t0 = t.Now()
	}
	start := time.Now()
	out = r(c)
	if c.tel != nil {
		c.tel.reg.Histogram("critics_experiment_seconds",
			"Wall time per experiment run by id.",
			expSecondsBuckets, telemetry.L("exp", id)).
			Observe(time.Since(start).Seconds())
	}
	if traced {
		t.Add(obs.Span{ID: span, Parent: parent, Name: span, StartUS: t0, DurUS: t.Now() - t0})
	}
	if cerr := ctx.Err(); cerr != nil {
		return "", cerr
	}
	return out, nil
}
