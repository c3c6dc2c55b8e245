package server

import (
	"fmt"
	"net/http"
	"time"

	"critics/internal/obs"
)

// ---- job lifecycle instrumentation ---------------------------------------
//
// Every admitted job gets a trace (obs.Recorder) rooted at a "job" span:
//
//	job                    admission → terminal state
//	├── queue              admission → dequeue (stage queue_wait)
//	└── compute            execute() wall time (stage compute)
//	    ├── exp:<id>       experiment jobs: the run, parenting the two below
//	    ├── map:…          shard fan-outs (sched.Pool)
//	    └── b:…            memo builds, each with dispatch/retry legs and
//	        └── …:a1/…     merged worker spans when distribution is on
//
// The SLO stages queue_wait / compute / e2e are observed with the job id as
// the exemplar trace id, and the flight recorder gets one event per
// transition. All of it is keyed off j.trace being non-nil, which is set
// before the job enters the queue.

// admitJob starts the job's trace and records its admission. Called before
// the job is queued so the worker loop always sees the trace.
func (s *Server) admitJob(j *job) {
	j.trace = s.obsv.Rec.Start(j.id)
	s.obsv.Ring.Append(j.id, obs.EvAdmitted,
		fmt.Sprintf("kind=%s app=%s exp=%s", j.req.Kind, j.req.App, j.req.Experiment))
}

// dequeueJob closes the queue-wait phase: the "queue" span spans admission to
// dequeue, and the queue_wait SLO stage observes the same interval.
func (s *Server) dequeueJob(j *job) {
	t := j.trace
	if t == nil {
		return
	}
	wait := t.Now()
	t.Add(obs.Span{ID: "queue", Parent: "job", Name: "queue", StartUS: 0, DurUS: wait})
	s.obsv.Stages.Observe(obs.StageQueueWait, float64(wait)/1e6, j.id)
	s.obsv.Ring.Append(j.id, obs.EvDequeued, fmt.Sprintf("waited %s", (time.Duration(wait)*time.Microsecond).Round(time.Microsecond)))
}

// endJobTrace records the job's root "job" span and its "compute" span
// (computeStart taken just before execute ran) with the terminal state, and
// returns the end time. runJob calls it from finish's accounting callback,
// under the job lock, so a reader that sees the job terminal also finds the
// root span on its trace; it must not take the job lock (no j.Status).
func (s *Server) endJobTrace(j *job, computeStart int64, state JobState) int64 {
	t := j.trace
	if t == nil {
		return 0
	}
	now := t.Now()
	t.Add(obs.Span{
		ID: "compute", Parent: "job", Name: "compute",
		StartUS: computeStart, DurUS: now - computeStart,
	})
	attrs := []obs.Attr{obs.A("kind", string(j.req.Kind)), obs.A("state", string(state))}
	if j.req.App != "" {
		attrs = append(attrs, obs.A("app", j.req.App))
	}
	if j.req.Experiment != "" {
		attrs = append(attrs, obs.A("experiment", j.req.Experiment))
	}
	t.Add(obs.Span{ID: "job", Name: "job", StartUS: 0, DurUS: now, Attrs: attrs})
	return now
}

// finishJob observes a finished job's compute and e2e SLO stages (its trace
// ended at now), appends its terminal flight-recorder event and hands its
// spans to Config.Tracer. A failed job additionally dumps its
// flight-recorder events to the log, so a postmortem starts with the
// sequence of events in hand.
func (s *Server) finishJob(j *job, computeStart, now int64) {
	if j.trace == nil {
		return
	}
	st := j.Status()
	s.obsv.Stages.Observe(obs.StageCompute, float64(now-computeStart)/1e6, j.id)
	s.obsv.Stages.Observe(obs.StageE2E, float64(now)/1e6, j.id)
	if tr := s.cfg.Tracer; tr != nil {
		// The job's clock starts at admission, the tracer's when the daemon
		// started; reading both now gives the shift between them.
		j.trace.EmitChrome(tr, tr.Now()-j.trace.Now())
	}

	ev := obs.EvCompleted
	switch st.State {
	case StateFailed:
		ev = obs.EvFailed
	case StateCanceled:
		ev = obs.EvCanceled
	}
	s.obsv.Ring.Append(j.id, ev, st.Error)

	if st.State == StateFailed {
		// Flight-recorder dump: the job's event sequence in one log record,
		// so a postmortem needs no /debug/events round-trip.
		events := s.obsv.Ring.Snapshot(j.id)
		lines := make([]string, 0, len(events))
		for _, e := range events {
			d := e.Type
			if e.Detail != "" {
				d += ": " + e.Detail
			}
			lines = append(lines, d)
		}
		s.log.Warn("job failed; flight recorder", "id", j.id, "events", lines)
	}
}

// ---- HTTP handlers -------------------------------------------------------

// handleTrace serves GET /v1/jobs/{id}/trace: the job's span tree as JSON, or
// as Chrome trace-event JSON (Perfetto-loadable) with ?format=chrome.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	j := s.jobFor(w, r)
	if j == nil {
		return
	}
	t := s.obsv.Rec.Get(j.id)
	if t == nil {
		writeErr(w, http.StatusNotFound, fmt.Sprintf("no trace retained for job %s", j.id), false)
		return
	}
	if r.URL.Query().Get("format") == "chrome" {
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Disposition", fmt.Sprintf("attachment; filename=%q", j.id+".trace.json"))
		_ = t.WriteChrome(w)
		return
	}
	writeJSON(w, http.StatusOK, t.Tree())
}

// EventsResponse is the GET /debug/events body.
type EventsResponse struct {
	Events []obs.Event `json:"events"`
}

// handleEvents serves GET /debug/events: the flight-recorder ring in sequence
// order, filtered to one job with ?job=<id>.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, EventsResponse{Events: s.obsv.Ring.Snapshot(r.URL.Query().Get("job"))})
}
