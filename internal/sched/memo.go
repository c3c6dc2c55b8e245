package sched

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Stats are a memo cache's hit/miss counters. Skipped counts values that
// were computed but not retained because the byte budget was exhausted.
type Stats struct {
	Hits    int64
	Misses  int64
	Skipped int64
}

// HitRate returns Hits / (Hits + Misses), or 0 before any lookup.
func (s Stats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// String formats the counters for -cache-stats style reporting.
func (s Stats) String() string {
	return fmt.Sprintf("%d hits, %d misses (%.0f%% hit rate, %d evicted-on-admit)",
		s.Hits, s.Misses, 100*s.HitRate(), s.Skipped)
}

// entry is one in-flight or completed memo slot. done is closed once val is
// final; waiters that arrive during a build block on it (singleflight).
// bad marks a value the builder declared invalid (e.g. built under a
// cancelled context, so internal shards may have been skipped): waiters must
// not use it and instead retry the lookup.
type entry[V any] struct {
	done chan struct{}
	val  V
	bad  bool
}

// Memo is a content-addressed, concurrency-safe memo cache with
// single-flight builds: under a parallel schedule, the first caller of a key
// builds the value while later callers block and share the result, so an
// artifact is computed exactly once no matter how many shards need it.
//
// Builds must be deterministic pure functions of the key (the engine's
// artifacts all are): then caching is invisible to results and only affects
// wall-clock, which is what keeps parallel runs bit-identical to serial
// ones. Cached values are shared across callers and must be treated as
// immutable.
type Memo[V any] struct {
	mu      sync.Mutex
	entries map[Key]*entry[V]

	// budget caps the summed cost of retained values (0 = unlimited).
	// Admission stops when the budget is spent: values built past it are
	// returned to their waiters but not retained, so long sweeps degrade
	// to recomputation instead of unbounded memory growth.
	budget int64
	used   int64

	hits    atomic.Int64
	misses  atomic.Int64
	skipped atomic.Int64
}

// NewMemo returns a memo retaining at most budgetBytes of summed value cost
// (as reported by the cost function passed to GetChecked); budgetBytes <= 0
// means unlimited.
func NewMemo[V any](budgetBytes int64) *Memo[V] {
	if budgetBytes < 0 {
		budgetBytes = 0
	}
	return &Memo[V]{entries: map[Key]*entry[V]{}, budget: budgetBytes}
}

// GetChecked returns the value for k, building it with build on first use,
// and whether the lookup was a hit (a shared single-flight build counts as a
// hit for every caller but the builder). cost reports the retention cost of
// a freshly built value in bytes (nil = 1). Concurrent callers of the same
// key share one build. After build returns, valid() decides whether the
// value may be used and retained. An invalid value
// (valid() == false — e.g. the build ran under a context that was cancelled
// partway, so shards may have been skipped) is discarded: it is not
// retained, it is not handed to single-flight waiters, and both the builder
// and any waiters retry the lookup — typically to fail fast on their own
// cancelled contexts, or to rebuild cleanly on a live one. valid == nil
// accepts every build.
func (m *Memo[V]) GetChecked(k Key, build func() V, cost func(V) int64, valid func() bool) (V, bool) {
	for {
		m.mu.Lock()
		if e, ok := m.entries[k]; ok {
			m.mu.Unlock()
			<-e.done
			if e.bad {
				// The build we waited on was discarded; try again (we may
				// become the next builder).
				continue
			}
			m.hits.Add(1)
			return e.val, true
		}
		e := &entry[V]{done: make(chan struct{})}
		m.entries[k] = e
		m.mu.Unlock()
		m.misses.Add(1)

		e.val = m.runBuild(k, e, build)
		if valid != nil && !valid() {
			e.bad = true
			m.mu.Lock()
			delete(m.entries, k)
			m.mu.Unlock()
			close(e.done)
			var zero V
			return zero, false
		}
		close(e.done)

		var c int64 = 1
		if cost != nil {
			c = cost(e.val)
		}
		m.mu.Lock()
		if m.budget > 0 && m.used+c > m.budget {
			// Over budget: hand the value to current waiters (they hold e)
			// but do not retain it for future lookups.
			delete(m.entries, k)
			m.skipped.Add(1)
		} else {
			m.used += c
		}
		m.mu.Unlock()
		return e.val, false
	}
}

// Peek returns the retained value for k when a completed build is present,
// without blocking on an in-flight build and without ever building. A
// successful peek counts as a hit; an absent or still-building entry counts
// nothing (the caller typically follows up with GetChecked, which does the
// accounting for the build it joins or starts). Batch planners use Peek to
// split a key set into cached and to-be-built subsets before deciding how to
// build the misses.
func (m *Memo[V]) Peek(k Key) (V, bool) {
	v, ok := m.retained(k)
	if ok {
		m.hits.Add(1)
	}
	return v, ok
}

// Cached reports whether a completed value for k is retained, so that a
// lookup of k would hit. Like Peek it never blocks or builds, but it counts
// nothing: schedulers use it to decide where a lookup runs, not to serve it.
func (m *Memo[V]) Cached(k Key) bool {
	_, ok := m.retained(k)
	return ok
}

// retained returns the value of k's completed, valid entry.
func (m *Memo[V]) retained(k Key) (V, bool) {
	m.mu.Lock()
	e, ok := m.entries[k]
	m.mu.Unlock()
	if ok {
		select {
		case <-e.done:
			if !e.bad {
				return e.val, true
			}
		default:
		}
	}
	var zero V
	return zero, false
}

// runBuild executes build for entry e, tearing the entry down (marked bad,
// removed, done closed) if build panics so single-flight waiters retry
// instead of blocking forever; the panic then propagates to the builder's
// caller.
func (m *Memo[V]) runBuild(k Key, e *entry[V], build func() V) V {
	finished := false
	defer func() {
		if finished {
			return
		}
		e.bad = true
		m.mu.Lock()
		delete(m.entries, k)
		m.mu.Unlock()
		close(e.done)
	}()
	v := build()
	finished = true
	return v
}

// Stats returns the current hit/miss counters.
func (m *Memo[V]) Stats() Stats {
	return Stats{
		Hits:    m.hits.Load(),
		Misses:  m.misses.Load(),
		Skipped: m.skipped.Load(),
	}
}

// Len returns the number of retained entries.
func (m *Memo[V]) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.entries)
}

// UsedBytes returns the summed retention cost of the retained entries.
func (m *Memo[V]) UsedBytes() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.used
}
