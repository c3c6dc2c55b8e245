// Package obs is the fleet observability layer of criticd: distributed
// tracing, a flight recorder, and SLO latency instrumentation, built on the
// same zero-external-dependency principles as internal/telemetry.
//
// Three pillars:
//
//   - Tracing (span.go): a per-job Trace collects Spans — admission, queue
//     wait, compute, experiment runs, shard maps, memo builds,
//     dispatch/retry/hedge legs, remote worker compute — into one tree
//     retrievable at GET /v1/jobs/{id}/trace. It is the engine's only span
//     path: every Chrome export renders it through Trace.EmitChrome. The
//     trace context rides through the engine on context.Context values
//     (ContextWith / FromContext) and across the /dist/v1 wire as the
//     TraceHeader / ParentHeader HTTP headers; worker-side spans come back
//     in the task result and are merged (id-prefixed, time-rebased) under
//     the dispatch span that sent them. Span ids are derived from content
//     (memo keys, attempt ordinals), never from allocation order, so the
//     tree is byte-stable across runs modulo timestamps.
//   - Flight recorder (flight.go): a bounded lock-free ring of structured
//     job-lifecycle events (admitted, dequeued, dispatched, retried, hedged,
//     completed, failed, drained) served at GET /debug/events and dumped on
//     job failure, so postmortems need no log scraping.
//   - SLO instrumentation (slo.go, promtext.go): stage-level latency
//     histograms (queue wait, dispatch RTT, compute, end-to-end) with
//     exemplar trace ids on slow buckets, plus the target parsing and
//     histogram-quantile evaluation behind `criticctl slo`.
//
// Everything is nil-tolerant: a nil *Observer (or a context without a
// trace) disables the whole layer at the cost of one pointer check per
// instrumentation site.
package obs

import (
	"context"

	"critics/internal/telemetry"
)

// Wire headers propagating trace context on coordinator→worker task posts.
const (
	// TraceHeader carries the trace id (the job id on the coordinator).
	TraceHeader = "X-Critics-Trace"
	// ParentHeader carries the span id the worker's spans hang under.
	ParentHeader = "X-Critics-Parent"
)

// Observer bundles the three pillars for wiring through server and dist.
// A nil *Observer disables all of them.
type Observer struct {
	Rec    *Recorder
	Ring   *Ring
	Stages *Stages
}

// NewObserver builds an enabled observer; reg may be nil (SLO histograms
// are then skipped while tracing and the flight recorder still work).
func NewObserver(reg *telemetry.Registry) *Observer {
	return &Observer{
		Rec:    NewRecorder(0),
		Ring:   NewRing(0),
		Stages: NewStages(reg),
	}
}

// ctxKey keys the trace context value.
type ctxKey struct{}

// ctxVal is the propagated pair: the job's trace and the span id new child
// spans should parent to.
type ctxVal struct {
	t      *Trace
	parent string
}

// ContextWith returns ctx carrying (t, parent) for downstream
// instrumentation sites. A nil t returns ctx unchanged.
func ContextWith(ctx context.Context, t *Trace, parent string) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, ctxVal{t: t, parent: parent})
}

// FromContext extracts the trace and parent span id, or ok=false when ctx
// carries none (including a nil ctx).
func FromContext(ctx context.Context) (t *Trace, parent string, ok bool) {
	if ctx == nil {
		return nil, "", false
	}
	v, ok := ctx.Value(ctxKey{}).(ctxVal)
	return v.t, v.parent, ok
}
