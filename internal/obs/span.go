package obs

import (
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"critics/internal/telemetry"
)

// Attr is one string key/value annotation on a span. String-valued on
// purpose: the JSON form is deterministic and diff-friendly.
type Attr struct {
	Key   string `json:"k"`
	Value string `json:"v"`
}

// A is shorthand for constructing an Attr.
func A(k, v string) Attr { return Attr{Key: k, Value: v} }

// Span is one timed operation in a job's trace. Ids are content-derived
// strings ("job", "compute", "b:measure acrobat/base#1a2b3c4d",
// "b:…#…:a2" for the second dispatch attempt), never allocation-ordered, so
// the span set of a run is reproducible. StartUS/DurUS are microseconds in
// the owning trace's time domain (Trace.Now); merged worker spans are
// rebased into the coordinator's domain before they are added.
type Span struct {
	ID     string `json:"id"`
	Parent string `json:"parent,omitempty"`
	Name   string `json:"name"`
	// Site is the executing node: "" for the coordinator/daemon itself, the
	// worker's base URL for merged remote spans.
	Site    string `json:"site,omitempty"`
	StartUS int64  `json:"start_us"`
	DurUS   int64  `json:"dur_us"`
	Attrs   []Attr `json:"attrs,omitempty"`
}

// BuildSpanID derives the span id of a memo build from its label and the
// first hex digits of its content key — the same inputs derive the same id
// on every run and on both sides of the wire.
func BuildSpanID(label, key8 string) string { return "b:" + label + "#" + key8 }

// maxSpans bounds a trace's span store; spans beyond it are counted in
// Dropped rather than retained (a runaway job must not hold the daemon's
// memory hostage).
const maxSpans = 4096

// Trace is one job's span store. All methods are safe for concurrent use;
// the zero value is not usable, construct with NewTrace.
type Trace struct {
	id    string
	start time.Time

	mu      sync.Mutex
	spans   []Span
	dropped int
	seqs    map[string]int

	hits   atomic.Int64 // memo hits observed under this trace
	misses atomic.Int64 // memo misses (builds) observed under this trace
}

// NewTrace starts an empty trace. id is the trace id — the job id on the
// coordinator, the propagated header value on a worker.
func NewTrace(id string) *Trace {
	return &Trace{id: id, start: time.Now()}
}

// ID returns the trace id.
func (t *Trace) ID() string { return t.id }

// Now returns microseconds since the trace started — the ts domain of this
// trace's spans.
func (t *Trace) Now() int64 { return time.Since(t.start).Microseconds() }

// Add records one span (bounded; overflow increments the dropped counter).
func (t *Trace) Add(s Span) {
	t.mu.Lock()
	if len(t.spans) >= maxSpans {
		t.dropped++
	} else {
		t.spans = append(t.spans, s)
	}
	t.mu.Unlock()
}

// Seq returns the next ordinal (1-based) for a span id prefix — used for
// sites whose operations are serialized within a job (the shard maps an
// experiment runs one after another), where call order IS deterministic and
// a content key is not available.
func (t *Trace) Seq(prefix string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.seqs == nil {
		t.seqs = map[string]int{}
	}
	t.seqs[prefix]++
	return t.seqs[prefix]
}

// MemoHit / MemoMiss count memo outcomes attributed to this trace.
func (t *Trace) MemoHit()  { t.hits.Add(1) }
func (t *Trace) MemoMiss() { t.misses.Add(1) }

// Snapshot returns a copy of the recorded spans plus the drop counter.
func (t *Trace) Snapshot() (spans []Span, dropped int) {
	t.mu.Lock()
	spans = append([]Span(nil), t.spans...)
	dropped = t.dropped
	t.mu.Unlock()
	return spans, dropped
}

// Node is one span with its children, the tree form of a trace.
type Node struct {
	Span
	Children []*Node `json:"children,omitempty"`
}

// TraceDoc is the GET /v1/jobs/{id}/trace JSON document.
type TraceDoc struct {
	TraceID      string  `json:"trace_id"`
	MemoHits     int64   `json:"memo_hits"`
	MemoMisses   int64   `json:"memo_misses"`
	DroppedSpans int     `json:"dropped_spans,omitempty"`
	Spans        []*Node `json:"spans"`
}

// Tree assembles the span tree: spans sorted by id, children attached to
// their parents (spans whose parent is absent surface as roots), siblings
// in id order. Because ids are content-derived the document is byte-stable
// across runs modulo the timestamp fields.
func (t *Trace) Tree() *TraceDoc {
	spans, dropped := t.Snapshot()
	sort.Slice(spans, func(i, j int) bool { return spans[i].ID < spans[j].ID })
	nodes := make(map[string]*Node, len(spans))
	ids := make([]string, 0, len(spans))
	for i := range spans {
		// Duplicate ids (which the id scheme should prevent) keep the first
		// span and drop the rest rather than corrupting the tree.
		if _, dup := nodes[spans[i].ID]; !dup {
			nodes[spans[i].ID] = &Node{Span: spans[i]}
			ids = append(ids, spans[i].ID)
		}
	}
	doc := &TraceDoc{
		TraceID:      t.id,
		MemoHits:     t.hits.Load(),
		MemoMisses:   t.misses.Load(),
		DroppedSpans: dropped,
	}
	for _, id := range ids {
		n := nodes[id]
		if p := nodes[n.Parent]; p != nil && n.Parent != id {
			p.Children = append(p.Children, n)
		} else {
			doc.Spans = append(doc.Spans, n)
		}
	}
	return doc
}

// WriteChrome writes the trace as a standalone Chrome trace-event JSON
// document, loadable in Perfetto, in the trace's own time domain: one
// process track named after the trace, filled by EmitChrome.
func (t *Trace) WriteChrome(w io.Writer) error {
	tr := telemetry.NewTracer(w)
	tr.MetaProcessName(telemetry.EnginePID, "trace "+t.id)
	t.EmitChrome(tr, 0)
	return tr.Close()
}

// EmitChrome renders the trace's spans into tr as complete events on the
// engine track (telemetry.EnginePID), in start order on auto-assigned
// lanes, each shifted by shiftUS into tr's time domain and carrying its id,
// site, attributes and the trace id as args. When the trace counted memo
// lookups or dropped spans, an instant event on lane 0 at the trace's
// current time carries those counts. It is the one place spans become
// Chrome events: WriteChrome, critics.TraceApp and criticd's -trace-out all
// use it.
func (t *Trace) EmitChrome(tr *telemetry.Tracer, shiftUS int64) {
	spans, dropped := t.Snapshot()
	sort.Slice(spans, func(i, j int) bool {
		if spans[i].StartUS != spans[j].StartUS {
			return spans[i].StartUS < spans[j].StartUS
		}
		return spans[i].ID < spans[j].ID
	})
	for _, s := range spans {
		args := make([]telemetry.Arg, 0, len(s.Attrs)+3)
		args = append(args, telemetry.Str("id", s.ID), telemetry.Str("trace", t.id))
		if s.Site != "" {
			args = append(args, telemetry.Str("site", s.Site))
		}
		for _, a := range s.Attrs {
			args = append(args, telemetry.Str(a.Key, a.Value))
		}
		tr.Span(telemetry.EnginePID, s.Name, "obs", s.StartUS+shiftUS, s.DurUS, args...)
	}
	hits, misses := t.hits.Load(), t.misses.Load()
	if hits+misses+int64(dropped) > 0 {
		tr.Instant(telemetry.EnginePID, 0, "trace "+t.id, "obs", t.Now()+shiftUS, telemetry.Int("memo_hits", hits),
			telemetry.Int("memo_misses", misses), telemetry.Int("dropped_spans", int64(dropped)))
	}
}

// Merge rebases and adds spans recorded in another time domain (a worker's
// trace): each id and non-empty parent is prefixed with prefix+"/", an
// empty parent is replaced by prefix itself (hanging the remote subtree
// under the dispatch span that sent it), timestamps are shifted by baseUS,
// and site is stamped on spans that do not carry one.
func (t *Trace) Merge(prefix, site string, baseUS int64, spans []Span) {
	for _, s := range spans {
		s.ID = prefix + "/" + s.ID
		if s.Parent == "" {
			s.Parent = prefix
		} else {
			s.Parent = prefix + "/" + s.Parent
		}
		s.StartUS += baseUS
		if s.Site == "" {
			s.Site = site
		}
		t.Add(s)
	}
}

// defaultRecorderCap bounds how many job traces the recorder retains.
const defaultRecorderCap = 256

// Recorder holds the traces of recent jobs, evicting the oldest past its
// capacity. Safe for concurrent use.
type Recorder struct {
	mu     sync.Mutex
	traces map[string]*Trace
	order  []string
	cap    int
}

// NewRecorder builds a recorder retaining up to capacity traces (<= 0
// selects the default).
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = defaultRecorderCap
	}
	return &Recorder{traces: map[string]*Trace{}, cap: capacity}
}

// Start begins (or returns the existing) trace for a job id.
func (r *Recorder) Start(jobID string) *Trace {
	r.mu.Lock()
	defer r.mu.Unlock()
	if t := r.traces[jobID]; t != nil {
		return t
	}
	if len(r.order) >= r.cap {
		delete(r.traces, r.order[0])
		r.order = r.order[1:]
	}
	t := NewTrace(jobID)
	r.traces[jobID] = t
	r.order = append(r.order, jobID)
	return t
}

// Get returns a job's trace, or nil when none is retained.
func (r *Recorder) Get(jobID string) *Trace {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.traces[jobID]
}
