// Package server implements criticd's long-lived profiling-and-optimization
// service: a REST/JSON API over a bounded job queue with admission control,
// per-job deadlines and cancellation, panic isolation, idempotent retries,
// graceful shutdown, and a process-wide shared artifact cache so repeated
// requests are served from memory.
//
// The API surface (all under /v1 except the probes):
//
//	POST   /v1/jobs             submit a job; 202 with the job status,
//	                            429 + Retry-After when the queue is full
//	GET    /v1/jobs             list job statuses (newest first)
//	GET    /v1/jobs/{id}        one job's status
//	GET    /v1/jobs/{id}/result the result document once the job succeeded
//	DELETE /v1/jobs/{id}        cancel a queued or running job
//	POST   /v1/profiles         ingest one device profile sketch (binary wire
//	                            form); 202, 429 + Retry-After under saturation
//	PUT    /v1/artifacts/{digest} chunked, resumable, content-addressed blob
//	                            upload (see artifacts.go for the header
//	                            protocol); 413 beyond the chunk/blob limits
//	GET    /v1/artifacts/{digest} the blob bytes (?stat=1 for metadata)
//	GET    /v1/artifacts        list stored artifacts
//	POST   /v1/artifacts/gc     remove every committed artifact
//	GET    /v1/fleet            per-app fleet consensus + converge status
//	GET    /v1/apps             the workload catalog, by suite
//	GET    /v1/experiments      the experiment ids the daemon can run
//	GET    /healthz             liveness (200 while the process serves)
//	GET    /readyz              readiness (503 while draining)
//	GET    /metrics             Prometheus exposition of the registry
//
// cmd/criticd wraps the server in a daemon; cmd/criticctl and Client are the
// callers.
package server

import (
	"time"

	"critics/internal/fleet"
)

// JobKind selects what a job runs.
type JobKind string

// The supported job kinds.
const (
	KindOptimize   JobKind = "optimize"   // full pipeline on one app (critics.OptimizeApp)
	KindProfile    JobKind = "profile"    // CritIC profile only (critics.BuildProfile)
	KindExperiment JobKind = "experiment" // one table/figure runner (critics.Experiment)
	KindTrace      JobKind = "trace"      // optimize + Chrome trace export (critics.TraceApp)
	KindFleet      JobKind = "fleet"      // fleet converge against the app's consensus (critics.FleetConverge)
	KindScan       JobKind = "scan"       // source-free scan of an uploaded binary image + trace (internal/scan)
)

// SubmitRequest is the POST /v1/jobs body.
type SubmitRequest struct {
	// Kind defaults to "optimize" when an app is given and "experiment"
	// when only an experiment id is.
	Kind JobKind `json:"kind,omitempty"`

	// App names the workload for optimize/profile/trace jobs. Matched
	// case-insensitively against the catalog and canonicalized.
	App string `json:"app,omitempty"`

	// Experiment is the experiment id for experiment jobs (e.g. "fig10a").
	Experiment string `json:"experiment,omitempty"`

	// Quick selects the reduced-scale windows (tests, demos).
	Quick bool `json:"quick,omitempty"`

	// Workers bounds the per-job shard pool; 0 uses the daemon default.
	// Results are identical for every value.
	Workers int `json:"workers,omitempty"`

	// MeasureInstrs overrides the measured window size, in architectural
	// instructions (0 keeps the scale's default).
	MeasureInstrs int `json:"measure_instrs,omitempty"`

	// TimeoutMS caps the job's execution time; 0 uses the daemon default.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`

	// IdempotencyKey makes retries safe: a resubmit bearing a key the
	// daemon has already seen returns the existing job instead of enqueuing
	// a duplicate.
	IdempotencyKey string `json:"idempotency_key,omitempty"`

	// ImageDigest and TraceDigest reference scan-job inputs already in the
	// daemon's artifact store ("sha256:<64 hex>") — large blobs never ride
	// inside a job body; chunk-upload them to PUT /v1/artifacts/{digest}
	// first.
	ImageDigest string `json:"image_digest,omitempty"`
	TraceDigest string `json:"trace_digest,omitempty"`
}

// JobState is a job's position in its lifecycle.
type JobState string

// Job lifecycle states. Terminal states are succeeded, failed and canceled.
const (
	StateQueued    JobState = "queued"
	StateRunning   JobState = "running"
	StateSucceeded JobState = "succeeded"
	StateFailed    JobState = "failed"
	StateCanceled  JobState = "canceled"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == StateSucceeded || s == StateFailed || s == StateCanceled
}

// JobStatus is the wire form of a job's state, returned by submit, status
// and list.
type JobStatus struct {
	ID         string   `json:"id"`
	Kind       JobKind  `json:"kind"`
	App        string   `json:"app,omitempty"`
	Experiment string   `json:"experiment,omitempty"`
	State      JobState `json:"state"`

	// Error describes why a failed/canceled job ended; Retryable marks
	// failures a client may safely resubmit (queue drained at shutdown,
	// deadline exceeded).
	Error     string `json:"error,omitempty"`
	Retryable bool   `json:"retryable,omitempty"`

	CreatedAt  time.Time  `json:"created_at"`
	StartedAt  *time.Time `json:"started_at,omitempty"`
	FinishedAt *time.Time `json:"finished_at,omitempty"`
}

// Duration returns the job's execution time so far (zero before it starts).
func (s JobStatus) Duration() time.Duration {
	if s.StartedAt == nil {
		return 0
	}
	end := time.Now()
	if s.FinishedAt != nil {
		end = *s.FinishedAt
	}
	return end.Sub(*s.StartedAt)
}

// Result is the GET /v1/jobs/{id}/result document of a succeeded job.
// Exactly which fields are set depends on the kind:
//
//	optimize    Text + Report
//	profile     Text + Profile (the criticprof JSON artifact)
//	experiment  Text (the runner's formatted rows)
//	trace       Text + Report + Trace (Chrome trace-event JSON)
//	fleet       Text + Report (the fleet.Report converge document)
//	scan        Text + Report (the scan.Report ranked-opportunity document)
type Result struct {
	Kind       JobKind `json:"kind"`
	App        string  `json:"app,omitempty"`
	Experiment string  `json:"experiment,omitempty"`

	// Text is the human-readable report, identical to what the equivalent
	// one-shot CLI run prints.
	Text string `json:"text"`

	Report  any `json:"report,omitempty"`
	Profile any `json:"profile,omitempty"`
	Trace   any `json:"trace,omitempty"`
}

// ErrorResponse is the body of every non-2xx API response.
type ErrorResponse struct {
	Error string `json:"error"`

	// Retryable marks conditions worth retrying (queue full, draining);
	// 429 responses also carry a Retry-After header.
	Retryable bool `json:"retryable,omitempty"`
}

// ProfileAccepted is the 202 body of POST /v1/profiles: the sketch's app,
// the content digest its wire form was archived under, and "accepted". The
// fields are declared in alphabetical key order, the byte order clients
// receive.
type ProfileAccepted struct {
	App    string `json:"app"`
	Digest string `json:"digest"`
	Status string `json:"status"`
}

// AppsResponse is the GET /v1/apps body: catalog names by suite.
type AppsResponse struct {
	Suites map[string][]string `json:"suites"`
}

// ExperimentsResponse is the GET /v1/experiments body.
type ExperimentsResponse struct {
	Experiments []string `json:"experiments"`
}

// FleetResponse is the GET /v1/fleet body: per-app consensus and converge
// state, sorted by app name.
type FleetResponse struct {
	Apps []fleet.AppStatus `json:"apps"`
}
