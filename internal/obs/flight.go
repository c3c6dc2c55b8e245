package obs

import (
	"sort"
	"sync/atomic"
	"time"
)

// Event is one structured job-lifecycle record in the flight recorder.
type Event struct {
	Seq    uint64    `json:"seq"`
	Time   time.Time `json:"time"`
	Job    string    `json:"job"`
	Type   string    `json:"type"`
	Detail string    `json:"detail,omitempty"`
}

// Event types appended by server and dist. Kept as constants so the tests
// and the docs reference the same vocabulary.
const (
	EvAdmitted   = "admitted"
	EvDequeued   = "dequeued"
	EvDispatched = "dispatched"
	EvRetried    = "retried"
	EvHedged     = "hedged"
	EvFallback   = "local-fallback"
	EvCompleted  = "completed"
	EvFailed     = "failed"
	EvCanceled   = "canceled"
	EvDrained    = "drained"

	// Fleet ingest events (internal/fleet), recorded under the "fleet:<app>"
	// key rather than a job id.
	EvSketchMerged   = "sketch-merged"
	EvSketchRejected = "sketch-rejected"
	EvGeneration     = "generation"
	EvConverged      = "converged"
)

// defaultRingSize is the flight recorder's bound: new events overwrite the
// oldest once full.
const defaultRingSize = 4096

// Ring is a bounded lock-free ring of events. Appenders claim a slot with
// one atomic add and store an immutable event pointer into it; readers load
// the pointers without coordination, so an Append never blocks a job and a
// Snapshot never blocks an appender. A reader racing an appender may miss
// the very newest events — fine for a postmortem recorder.
type Ring struct {
	slots []atomic.Pointer[Event]
	head  atomic.Uint64
}

// NewRing builds a ring with n slots (<= 0 selects the default).
func NewRing(n int) *Ring {
	if n <= 0 {
		n = defaultRingSize
	}
	return &Ring{slots: make([]atomic.Pointer[Event], n)}
}

// Append records one event.
func (r *Ring) Append(job, typ, detail string) {
	seq := r.head.Add(1) - 1
	e := &Event{Seq: seq, Time: time.Now(), Job: job, Type: typ, Detail: detail}
	r.slots[seq%uint64(len(r.slots))].Store(e)
}

// Snapshot returns the retained events in sequence order; job != "" filters
// to one job's events.
func (r *Ring) Snapshot(job string) []Event {
	out := make([]Event, 0, len(r.slots))
	for i := range r.slots {
		e := r.slots[i].Load()
		if e == nil || (job != "" && e.Job != job) {
			continue
		}
		out = append(out, *e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}
