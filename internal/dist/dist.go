// Package dist is the distributed shard execution subsystem: a Coordinator
// that farms an experiment's measurement units out to a fleet of Workers
// over HTTP/JSON, behind the exp.Remote abstraction so the experiment code
// is unchanged between local and distributed runs.
//
// The unit of work is one exp.MeasureRequest — the serializable form of an
// exp.Context.MeasureVariant call, the profile→compile→simulate leaf that
// dominates every experiment's cost. The experiment context runs its shard
// closures on its own sched.Pool, at least Coordinator.Width wide (healthy
// capacity × oversubscription); each closure's measurement cache miss
// dispatches a Task to a worker (Coordinator.MeasureRemote), and the decoded
// TaskResult is written into the same preallocated, index-addressed memo
// slot a local build would have filled. Every wire field is integer- or
// bool-valued plain data, so the JSON round-trip is exact and a distributed
// run is bit-identical to a serial local one — the property
// TestDistributedDeterminism enforces with a mid-run worker failure
// injected.
//
// Robustness model:
//
//   - Registration: workers are added explicitly (AddWorker / the
//     coordinator's POST /dist/v1/register endpoint) and removed on
//     deregistration or operator action.
//   - Health: a heartbeat loop probes every worker's /readyz; FailAfter
//     consecutive failures mark it unhealthy (skipped by dispatch) until a
//     probe succeeds again. A failed task dispatch marks the worker
//     unhealthy immediately — faster than waiting for the next probe.
//   - Retry: a failed attempt is retried with exponential backoff on a
//     different worker (the failing worker is excluded) up to MaxAttempts;
//     4xx task responses are permanent (the request itself is bad) and are
//     not retried.
//   - Hedging: an attempt still outstanding after HedgeDelay is re-dispatched
//     to a second worker; the first result wins and the loser is cancelled,
//     cutting straggler tail latency.
//   - Drain: Coordinator.Drain refuses new dispatches and waits for
//     in-flight ones; Worker.Drain flips /readyz to 503 (heartbeats stop
//     routing to it), refuses new tasks and waits for running ones.
//   - Fallback: when every attempt fails (fleet empty, drained, partitioned),
//     the dispatching exp.Context computes the unit locally, so a degraded
//     fleet degrades throughput, never correctness.
//
// All of it is instrumented: tasks dispatched/retried/hedged/failed
// counters, a task latency histogram, per-worker in-flight gauges and task
// counters, and a healthy-workers gauge (metrics.go; family names are pinned
// by the telemetry exposition golden).
package dist

import (
	"fmt"

	"critics/internal/cpu"
	"critics/internal/exp"
	"critics/internal/obs"
	"critics/internal/scan"
	"critics/internal/trace"
)

// Wire paths. The worker serves TaskPath (plus /healthz and /readyz); the
// coordinator serves the register/deregister/workers endpoints (mounted into
// criticd's mux when distribution is enabled).
const (
	TaskPath       = "/dist/v1/task"
	RegisterPath   = "/dist/v1/register"
	DeregisterPath = "/dist/v1/deregister"
	WorkersPath    = "/dist/v1/workers"
)

// Task is the coordinator→worker unit of work, plus a coordinator-scoped id
// for log correlation: either one measurement request (Req; Scan nil) or one
// scan batch (Scan non-nil, Req zero).
type Task struct {
	ID   int64              `json:"id"`
	Req  exp.MeasureRequest `json:"req"`
	Scan *ScanTask          `json:"scan,omitempty"`
}

// ScanTask is a batch of source-free scan work: score the named trace chunks
// of (image, trace) — both referenced by artifact digest, never inlined —
// under the scanner's fixed criteria, which is why the task carries no
// options. A worker missing either artifact fetches it from the
// coordinator's store by digest and keeps it in its local warm cache, so a
// recycled worker re-warms on first use and later batches hit disk/memory
// locally. A worker without a store refuses the task.
type ScanTask struct {
	ImageDigest string `json:"image_digest"`
	TraceDigest string `json:"trace_digest"`
	Chunks      []int  `json:"chunks"`
}

// label names a task for logs.
func (t Task) label() string {
	if t.Scan != nil {
		return fmt.Sprintf("scan %s [%d chunks]", t.Scan.ImageDigest, len(t.Scan.Chunks))
	}
	return fmt.Sprintf("%s/%s", t.Req.App.Name, t.Req.Kind)
}

// TaskResult is the worker's reply: the measurement in wire form. All of it
// round-trips exactly: the cpu.Result counters, the window aggregates, and
// (for collect=true requests only) the per-instruction records, dynamic
// stream and fanouts. Streamed (collect=false) measurements retain no
// slices, so their replies are a few hundred bytes regardless of window
// length.
type TaskResult struct {
	Res     cpu.Result    `json:"res"`
	Agg     exp.WindowAgg `json:"agg"`
	Dyns    []trace.Dyn   `json:"dyns,omitempty"`
	Fanouts []int32       `json:"fanouts,omitempty"`

	// Scan carries a scan batch's per-chunk results (Task.Scan requests
	// only). Chunk scoring is integer-only and position-independent, so
	// these merge into a report byte-identical to local computation.
	Scan []scan.ChunkResult `json:"scan,omitempty"`

	// Spans are the worker-side trace spans of this task (remote compute
	// plus its memo builds), present only when the request carried the
	// obs trace headers. Timestamps are microseconds in the worker's task
	// clock; the coordinator rebases them into the job trace on merge.
	Spans []obs.Span `json:"spans,omitempty"`
}

// resultOf converts a measurement (plus any recorded spans) to its wire
// form.
func resultOf(m *exp.Measurement, spans []obs.Span) TaskResult {
	return TaskResult{Res: m.Res, Agg: m.Agg, Dyns: m.Dyns, Fanouts: m.Fanouts, Spans: spans}
}

// measurement converts the wire form back.
func (r TaskResult) measurement() *exp.Measurement {
	return &exp.Measurement{Res: r.Res, Agg: r.Agg, Dyns: r.Dyns, Fanouts: r.Fanouts}
}

// registerRequest is the POST /dist/v1/register (and /deregister) body.
type registerRequest struct {
	// URL is the worker's advertised base URL, reachable from the
	// coordinator.
	URL string `json:"url"`

	// Capacity is how many tasks the worker executes concurrently
	// (its admission semaphore size); 0 means 1.
	Capacity int `json:"capacity,omitempty"`
}

// WorkerStatus is one fleet member's state as reported by GET
// /dist/v1/workers and Coordinator.Workers.
type WorkerStatus struct {
	URL       string `json:"url"`
	Healthy   bool   `json:"healthy"`
	Capacity  int    `json:"capacity"`
	Inflight  int    `json:"inflight"`
	TasksDone int64  `json:"tasks_done"`
	Failures  int64  `json:"failures"`
}

// WorkersResponse is the GET /dist/v1/workers body.
type WorkersResponse struct {
	Workers []WorkerStatus `json:"workers"`
}

// errorBody is the JSON body of non-2xx dist responses.
type errorBody struct {
	Error string `json:"error"`
}
