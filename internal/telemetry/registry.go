// Package telemetry is the zero-external-dependency observability layer of
// the engine: a concurrency-safe metrics registry with Prometheus
// text-format exposition (registry.go) and a Chrome trace-event JSON tracer
// loadable in Perfetto / chrome://tracing (tracer.go).
//
// Design constraints, in order:
//
//  1. Disabled telemetry must be free. Every instrumented package takes a
//     nil-able handle (cpu.Config.Metrics, sched.Pool metrics, the obs
//     trace a run context carries); the hot paths guard on nil and do
//     nothing else.
//  2. Updates are lock-free. Counters, gauges and histogram buckets are
//     atomics; the registry mutex is taken only at registration and scrape
//     time, so a /metrics scrape never stalls simulation workers.
//  3. Exposition is deterministic. Families and series render in sorted
//     order so the output is golden-testable and diff-friendly.
package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one name=value pair attached to a metric series.
type Label struct{ Key, Value string }

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// sample is one registered series of any type.
type sample interface {
	// expose writes the series' exposition lines. name is the family name,
	// labels the pre-rendered (possibly empty) "{k="v",...}" string.
	expose(w *bufio.Writer, name, labels string)
}

// family is one metric family: a name, a type, and its label-keyed series.
type family struct {
	help   string
	typ    string // counter | gauge | histogram
	series map[string]sample
}

// Registry holds metric families and renders them in Prometheus text format.
// It is safe for concurrent registration, updates and scrapes; the zero
// value is not usable, construct with NewRegistry.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

// renderLabels renders a sorted, escaped {k="v",...} string ("" if empty).
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// labelEscaper and helpEscaper are built once: every labelled series
// lookup escapes its label values, and a fresh Replacer costs more than the
// rest of the lookup.
var (
	labelEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`, `"`, `\"`)
	helpEscaper  = strings.NewReplacer(`\`, `\\`, "\n", `\n`)
)

func escapeLabelValue(v string) string { return labelEscaper.Replace(v) }

// register returns the existing series for (name, labels) or installs the
// one built by mk. Registering the same name with a different type panics —
// that is a programming error, not a runtime condition.
func (r *Registry) register(name, help, typ string, labels []Label, mk func() sample) sample {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{help: help, typ: typ, series: map[string]sample{}}
		r.families[name] = f
	} else if f.typ != typ {
		panic(fmt.Sprintf("telemetry: metric %q registered as %s and %s", name, f.typ, typ))
	}
	key := renderLabels(labels)
	s := f.series[key]
	if s == nil {
		s = mk()
		f.series[key] = s
	}
	return s
}

// ---- Counter -------------------------------------------------------------

// Counter is a monotonically increasing int64.
type Counter struct{ v atomic.Int64 }

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n < 0 is a programming error and is ignored).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

func (c *Counter) expose(w *bufio.Writer, name, labels string) {
	fmt.Fprintf(w, "%s%s %d\n", name, labels, c.v.Load())
}

// Counter returns (registering on first use) the counter series for
// name+labels.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	return r.register(name, help, "counter", labels, func() sample { return &Counter{} }).(*Counter)
}

// funcSample exposes a value read from a callback at scrape time — the
// mechanism that folds externally-owned counters (memo caches, pool state)
// into the registry without double bookkeeping.
type funcSample struct{ fn func() float64 }

func (f *funcSample) expose(w *bufio.Writer, name, labels string) {
	fmt.Fprintf(w, "%s%s %s\n", name, labels, formatFloat(f.fn()))
}

// CounterFunc registers a counter series whose value is read from fn at
// scrape time. fn must be monotonic and safe for concurrent calls.
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...Label) {
	r.register(name, help, "counter", labels, func() sample { return &funcSample{fn: fn} })
}

// GaugeFunc registers a gauge series whose value is read from fn at scrape
// time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	r.register(name, help, "gauge", labels, func() sample { return &funcSample{fn: fn} })
}

// ---- Gauge ---------------------------------------------------------------

// Gauge is an int64 that can go up and down.
type Gauge struct{ v atomic.Int64 }

// Set stores n.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adds n (negative allowed).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

func (g *Gauge) expose(w *bufio.Writer, name, labels string) {
	fmt.Fprintf(w, "%s%s %d\n", name, labels, g.v.Load())
}

// Gauge returns (registering on first use) the gauge series for name+labels.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	return r.register(name, help, "gauge", labels, func() sample { return &Gauge{} }).(*Gauge)
}

// ---- Histogram -----------------------------------------------------------

// Histogram is a fixed-bucket histogram with atomic bucket counts. Bounds
// are inclusive upper bounds (Prometheus "le" semantics); an implicit +Inf
// bucket catches the overflow. Each bucket can additionally hold one
// exemplar — a recent observation tagged with a trace id
// (ObserveExemplar), rendered in OpenMetrics style so slow buckets point
// straight at a representative trace.
type Histogram struct {
	bounds    []float64
	counts    []atomic.Int64 // len(bounds)+1; last is the +Inf bucket
	exemplars []atomic.Pointer[Exemplar]
	sum       atomicFloat
}

// Exemplar is one observation tagged with the trace it came from.
type Exemplar struct {
	TraceID string
	Value   float64
}

// Observe records v.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	h.sum.add(v)
}

// ObserveExemplar records v and attaches (v, traceID) as the exemplar of
// the bucket v lands in, replacing that bucket's previous exemplar. An
// empty traceID is a plain Observe.
func (h *Histogram) ObserveExemplar(v float64, traceID string) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.sum.add(v)
	if traceID != "" {
		h.exemplars[i].Store(&Exemplar{TraceID: traceID, Value: v})
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 {
	var n int64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return h.sum.load() }

func (h *Histogram) expose(w *bufio.Writer, name, labels string) {
	var cum int64
	for i, b := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(w, "%s_bucket%s %d%s\n", name,
			labelsWith(labels, `le="`+formatFloat(b)+`"`), cum, exemplarSuffix(h.exemplars[i].Load()))
	}
	cum += h.counts[len(h.bounds)].Load()
	fmt.Fprintf(w, "%s_bucket%s %d%s\n", name,
		labelsWith(labels, `le="+Inf"`), cum, exemplarSuffix(h.exemplars[len(h.bounds)].Load()))
	fmt.Fprintf(w, "%s_sum%s %s\n", name, labels, formatFloat(h.sum.load()))
	fmt.Fprintf(w, "%s_count%s %d\n", name, labels, cum)
}

// exemplarSuffix renders an OpenMetrics-style exemplar annotation
// (` # {trace_id="..."} value`) or "" when e is nil.
func exemplarSuffix(e *Exemplar) string {
	if e == nil {
		return ""
	}
	return ` # {trace_id="` + escapeLabelValue(e.TraceID) + `"} ` + formatFloat(e.Value)
}

// labelsWith appends one pre-rendered pair to a rendered label string.
func labelsWith(labels, pair string) string {
	if labels == "" {
		return "{" + pair + "}"
	}
	return labels[:len(labels)-1] + "," + pair + "}"
}

// Histogram returns (registering on first use) the histogram series for
// name+labels. bounds must be sorted ascending; they are fixed at first
// registration and ignored on later lookups of the same series.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	return r.register(name, help, "histogram", labels, func() sample {
		b := append([]float64(nil), bounds...)
		return &Histogram{
			bounds:    b,
			counts:    make([]atomic.Int64, len(b)+1),
			exemplars: make([]atomic.Pointer[Exemplar], len(b)+1),
		}
	}).(*Histogram)
}

// LinearBuckets returns n bounds start, start+width, ...
func LinearBuckets(start, width float64, n int) []float64 {
	b := make([]float64, n)
	for i := range b {
		b[i] = start + float64(i)*width
	}
	return b
}

// ExpBuckets returns n bounds start, start*factor, ...
func ExpBuckets(start, factor float64, n int) []float64 {
	b := make([]float64, n)
	v := start
	for i := range b {
		b[i] = v
		v *= factor
	}
	return b
}

// atomicFloat is a float64 accumulated with CAS on its bit pattern.
type atomicFloat struct{ bits atomic.Uint64 }

func (a *atomicFloat) add(v float64) {
	for {
		old := a.bits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if a.bits.CompareAndSwap(old, nw) {
			return
		}
	}
}

func (a *atomicFloat) load() float64 { return math.Float64frombits(a.bits.Load()) }

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// ---- Exposition ----------------------------------------------------------

// WritePrometheus renders every family in Prometheus text format (version
// 0.0.4), families and series in sorted order.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	bw := bufio.NewWriter(w)
	names := make([]string, 0, len(r.families))
	for n := range r.families {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		f := r.families[n]
		if f.help != "" {
			fmt.Fprintf(bw, "# HELP %s %s\n", n, helpEscaper.Replace(f.help))
		}
		fmt.Fprintf(bw, "# TYPE %s %s\n", n, f.typ)
		keys := make([]string, 0, len(f.series))
		for k := range f.series {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			f.series[k].expose(bw, n, k)
		}
	}
	return bw.Flush()
}

// ServeHTTP implements http.Handler, serving the registry as a Prometheus
// scrape endpoint.
func (r *Registry) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = r.WritePrometheus(w)
}
