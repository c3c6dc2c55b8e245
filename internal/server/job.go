package server

import (
	"context"
	"sync"
	"time"

	"critics/internal/obs"
)

// job is one unit of queued/executing work. State transitions go through the
// mutex-guarded methods so the HTTP handlers, the worker loop and the
// shutdown drain can race freely:
//
//	queued → running → succeeded | failed
//	queued → canceled            (cancel before a worker picks it up)
//	queued → failed(retryable)   (drained at shutdown)
//	running → canceled           (cancel propagated through the job context)
type job struct {
	id  string
	req SubmitRequest

	// trace is the job's span store, set at admission before the job enters
	// the queue (the channel send orders it before any worker access) and
	// never reassigned; it needs no lock.
	trace *obs.Trace

	mu       sync.Mutex
	state    JobState
	errMsg   string
	retry    bool
	result   []byte // marshaled Result, set on success
	created  time.Time
	started  time.Time
	finished time.Time

	// resultBytes is the result size counted against the table's byte
	// budget; guarded by Server.mu, not mu.
	resultBytes int64

	// cancel aborts the job's run context. Set when the job starts; calling
	// it is how DELETE reaches a running job. requested remembers a cancel
	// that arrived while the job was still queued-to-running racing.
	cancel    context.CancelFunc
	requested bool
}

func newJob(id string, req SubmitRequest) *job {
	return &job{id: id, req: req, state: StateQueued, created: time.Now()}
}

// Status snapshots the job for the wire.
func (j *job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.statusLocked()
}

func (j *job) statusLocked() JobStatus {
	st := JobStatus{
		ID:         j.id,
		Kind:       j.req.Kind,
		App:        j.req.App,
		Experiment: j.req.Experiment,
		State:      j.state,
		Error:      j.errMsg,
		Retryable:  j.retry,
		CreatedAt:  j.created,
	}
	if !j.started.IsZero() {
		t := j.started
		st.StartedAt = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.FinishedAt = &t
	}
	return st
}

// terminal reports whether the job has reached a terminal state.
func (j *job) terminal() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state.Terminal()
}

// tryStart moves queued → running and installs the cancel func. It fails
// when the job was canceled (or otherwise left the queued state) first; the
// worker then skips it.
func (j *job) tryStart(cancel context.CancelFunc) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateQueued || j.requested {
		return false
	}
	j.state = StateRunning
	j.started = time.Now()
	j.cancel = cancel
	return true
}

// requestCancel asks the job to stop: a queued job is canceled outright, a
// running one has its context cancelled (the worker records the terminal
// state). Terminal jobs are left untouched.
func (j *job) requestCancel() {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.requested = true
	switch j.state {
	case StateQueued:
		j.state = StateCanceled
		j.errMsg = "canceled before execution"
		j.finished = time.Now()
	case StateRunning:
		if j.cancel != nil {
			j.cancel()
		}
	}
}

// finish records a terminal state from the worker. A job whose cancellation
// was requested lands in canceled regardless of how execution returned.
// account receives the terminal state while the job lock is still held, so
// a reader that sees the job end also sees what account recorded for it.
func (j *job) finish(result []byte, errMsg string, retryable bool, account func(JobState)) {
	j.mu.Lock()
	defer j.mu.Unlock()
	defer func() { account(j.state) }() // runs before the unlock
	if j.state.Terminal() {
		return
	}
	j.finished = time.Now()
	switch {
	case j.requested:
		j.state = StateCanceled
		if errMsg == "" {
			errMsg = "canceled"
		}
		j.errMsg = errMsg
	case errMsg != "":
		j.state = StateFailed
		j.errMsg = errMsg
		j.retry = retryable
	default:
		j.state = StateSucceeded
		j.result = result
	}
}

// failQueued moves a still-queued job to failed-retryable (the shutdown
// drain). Returns false if the job had already left the queue.
func (j *job) failQueued(msg string) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateQueued {
		return false
	}
	j.state = StateFailed
	j.errMsg = msg
	j.retry = true
	j.finished = time.Now()
	return true
}

// Result snapshots the job's status together with its marshaled result
// document (nil unless the job succeeded), under one lock: a job finishing
// between two separate reads would otherwise look unfinished to the first
// and succeeded to the second.
func (j *job) Result() ([]byte, JobStatus) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result, j.statusLocked()
}
