package telemetry

import (
	"bufio"
	"encoding/json"
	"io"
	"strconv"
	"sync"
	"time"
)

// EnginePID is the conventional Chrome-trace process id for engine-level
// (wall-clock) tracks: the obs trace spans (experiment runs, shard maps,
// memo builds, job stages) that obs.Trace.EmitChrome renders. Pipeline
// exports (cycle-domain timelines) use their own pids so the two time
// domains never share an axis.
const EnginePID = 1

// Arg is one key/value entry of a trace event's "args" object.
type Arg struct {
	Key  string
	kind byte // 's','i','f','b'
	s    string
	i    int64
	f    float64
	b    bool
}

// Str builds a string arg.
func Str(k, v string) Arg { return Arg{Key: k, kind: 's', s: v} }

// Int builds an integer arg.
func Int(k string, v int64) Arg { return Arg{Key: k, kind: 'i', i: v} }

// Num builds a float arg.
func Num(k string, v float64) Arg { return Arg{Key: k, kind: 'f', f: v} }

// Bool builds a boolean arg.
func Bool(k string, v bool) Arg { return Arg{Key: k, kind: 'b', b: v} }

// Tracer streams Chrome trace-event JSON (the "JSON Object Format" with a
// traceEvents array) to a writer. The output loads in Perfetto and
// chrome://tracing. Events are written in call order with a fixed field
// order, so a single-threaded event sequence is byte-reproducible (the
// golden test relies on this). All methods are safe for concurrent use.
//
// Timestamps are int64 microseconds by Chrome convention; cycle-domain
// exporters pass cycles as ts directly (1 cycle renders as 1µs) on a
// dedicated pid so they never mix with wall-clock tracks.
type Tracer struct {
	mu     sync.Mutex
	bw     *bufio.Writer
	start  time.Time
	events int
	lanes  map[int][]int64 // pid -> per-lane latest span end (for Span)
}

// NewTracer starts a trace stream on w. Call Close to finish the JSON
// document; the caller owns closing w itself.
func NewTracer(w io.Writer) *Tracer {
	t := &Tracer{
		bw:    bufio.NewWriterSize(w, 1<<16),
		start: time.Now(),
		lanes: map[int][]int64{},
	}
	t.bw.WriteString(`{"displayTimeUnit":"ms","traceEvents":[`)
	return t
}

// Now returns microseconds since the tracer started — the wall-clock ts
// domain for engine-level spans.
func (t *Tracer) Now() int64 { return time.Since(t.start).Microseconds() }

// writeString writes s JSON-encoded.
func (t *Tracer) writeString(s string) {
	b, err := json.Marshal(s)
	if err != nil { // unreachable for strings; keep the stream well-formed
		t.bw.WriteString(`""`)
		return
	}
	t.bw.Write(b)
}

// emit writes one event object. dur < 0 omits the field; scope is the "s"
// field for instant events ("" omits).
func (t *Tracer) emit(ph byte, pid, tid int, name, cat string, ts, dur int64, scope string, args []Arg) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.events > 0 {
		t.bw.WriteByte(',')
	}
	t.events++
	t.bw.WriteString("\n{\"name\":")
	t.writeString(name)
	if cat != "" {
		t.bw.WriteString(",\"cat\":")
		t.writeString(cat)
	}
	t.bw.WriteString(",\"ph\":\"")
	t.bw.WriteByte(ph)
	t.bw.WriteString("\",\"pid\":")
	t.bw.WriteString(strconv.Itoa(pid))
	t.bw.WriteString(",\"tid\":")
	t.bw.WriteString(strconv.Itoa(tid))
	t.bw.WriteString(",\"ts\":")
	t.bw.WriteString(strconv.FormatInt(ts, 10))
	if dur >= 0 {
		t.bw.WriteString(",\"dur\":")
		t.bw.WriteString(strconv.FormatInt(dur, 10))
	}
	if scope != "" {
		t.bw.WriteString(",\"s\":")
		t.writeString(scope)
	}
	if len(args) > 0 {
		t.bw.WriteString(",\"args\":{")
		for i, a := range args {
			if i > 0 {
				t.bw.WriteByte(',')
			}
			t.writeString(a.Key)
			t.bw.WriteByte(':')
			switch a.kind {
			case 's':
				t.writeString(a.s)
			case 'i':
				t.bw.WriteString(strconv.FormatInt(a.i, 10))
			case 'f':
				t.bw.WriteString(formatFloat(a.f))
			case 'b':
				t.bw.WriteString(strconv.FormatBool(a.b))
			}
		}
		t.bw.WriteByte('}')
	}
	t.bw.WriteByte('}')
}

// MetaProcessName names a pid in the trace UI.
func (t *Tracer) MetaProcessName(pid int, name string) {
	t.emit('M', pid, 0, "process_name", "__metadata", 0, -1, "", []Arg{Str("name", name)})
}

// MetaThreadName names a (pid, tid) track in the trace UI.
func (t *Tracer) MetaThreadName(pid, tid int, name string) {
	t.emit('M', pid, tid, "thread_name", "__metadata", 0, -1, "", []Arg{Str("name", name)})
}

// Complete writes a complete ("X") duration event on an explicit track.
func (t *Tracer) Complete(pid, tid int, name, cat string, ts, dur int64, args ...Arg) {
	t.emit('X', pid, tid, name, cat, ts, dur, "", args)
}

// Instant writes a thread-scoped instant ("i") marker.
func (t *Tracer) Instant(pid, tid int, name, cat string, ts int64, args ...Arg) {
	t.emit('i', pid, tid, name, cat, ts, -1, "t", args)
}

// Counter writes a counter ("C") sample; each numeric arg is one series of
// the counter track.
func (t *Tracer) Counter(pid int, name string, ts int64, args ...Arg) {
	t.emit('C', pid, 0, name, "", ts, -1, "", args)
}

// Span writes a complete event on an automatically chosen track of pid: the
// first lane whose previous span has ended, so concurrent engine-level spans
// (memo builds on different workers) render side by side instead of nested.
func (t *Tracer) Span(pid int, name, cat string, ts, dur int64, args ...Arg) {
	t.mu.Lock()
	lanes := t.lanes[pid]
	tid := 0
	for i, end := range lanes {
		if end <= ts {
			lanes[i] = ts + dur
			tid = i + 1
			break
		}
	}
	if tid == 0 {
		lanes = append(lanes, ts+dur)
		t.lanes[pid] = lanes
		tid = len(lanes)
	}
	t.mu.Unlock()
	t.emit('X', pid, tid, name, cat, ts, dur, "", args)
}

// Close terminates the JSON document and flushes. The underlying writer is
// not closed.
func (t *Tracer) Close() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.bw.WriteString("\n]}\n")
	return t.bw.Flush()
}
