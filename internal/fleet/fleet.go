// Package fleet closes the paper's profile-guided loop at fleet scale: many
// devices stream bounded profile sketches (internal/sketch) to a criticd
// coordinator, which folds them into one per-app consensus — a lattice
// join, so any arrival order, duplication or re-send yields identical bytes
// — and iteratively re-scores candidate CritIC selection policies against
// that live aggregate through the memoized measurement path (optimizer.go).
//
// The ingest side mirrors criticd's admission-control philosophy: a
// bounded queue accepts decoded sketches with a non-blocking send, a full
// queue refuses with 429 + Retry-After at the HTTP layer, and a single
// merger goroutine folds the queue into the consensus. Requests decode into
// sketches the service owns: Decode takes one from a free list, and the
// merger puts it back after its join, so steady-state ingest allocates no
// sketch. Coordinator memory is bounded by (queue depth + maxFree) × sketch
// size + one consensus sketch per app, plus the requests being decoded,
// regardless of fleet size. Raw traces never cross the wire.
package fleet

import (
	"fmt"
	"io"
	"log/slog"
	"sort"
	"sync"
	"time"

	"critics/internal/obs"
	"critics/internal/sketch"
	"critics/internal/telemetry"
)

// Config tunes the ingest service. The zero value is usable; NewService
// fills defaults.
type Config struct {
	// QueueSize bounds sketches decoded but not yet merged. A full queue
	// makes Offer fail — the HTTP layer answers 429 + Retry-After. Default
	// 256.
	QueueSize int

	// Registry receives the critics_fleet_* metric families; nil disables
	// them.
	Registry *telemetry.Registry

	// Ring, when set, receives sketch-merged / sketch-rejected /
	// generation / converged flight-recorder events under the "fleet:<app>"
	// key.
	Ring *obs.Ring

	// Logger receives structured ingest logs; nil discards them.
	Logger *slog.Logger
}

// appState is one app's consensus and its converge history.
type appState struct {
	consensus *sketch.Sketch
	rev       uint64 // merges that changed the consensus
	sketches  uint64 // sketches merged (changed or not)
	report    *Report

	// The app's merge series, resolved by the merger on its first join.
	sketchesM           *telemetry.Counter
	revisionM, devicesM *telemetry.Gauge
}

// Service is the coordinator-side ingest pipeline: bounded queue in, one
// consensus sketch per app out. Construct with NewService, stop with Drain.
type Service struct {
	cfg Config
	log *slog.Logger
	m   *fleetMetrics

	// queue holds admitted sketches, and free the decoded sketches the
	// merger has finished with, for Decode to reuse. closed marks the queue
	// closed by Drain; an offer holds admit across its send.
	queue  chan queued
	free   chan *sketch.Sketch
	admit  sync.Mutex
	closed bool
	wg     sync.WaitGroup

	mu   sync.Mutex
	apps map[string]*appState
}

// queued is one admitted sketch; recycle marks one from Decode, which goes
// back to the free list after its join.
type queued struct {
	sk      *sketch.Sketch
	recycle bool
}

// Decoded is a sketch that Decode parsed into memory the service owns. Pass
// it to OfferDecoded, or to Release when it is not to be merged; the sketch
// itself stays private, since the service reuses it once merged.
type Decoded struct {
	App string // the sketch's app
	sk  *sketch.Sketch
}

// maxFree bounds the free list, and with it the spare sketches an idle
// coordinator keeps and the garbage collector counts as live. It covers an
// ingest the merger keeps up with; the sketches of a longer backlog are
// allocated, and collected once merged.
const maxFree = 16

// maxRecycledKeys bounds the key-list capacity of a sketch the free list
// keeps: twice what a device builds. A sketch that decoded a larger list (a
// merged sketch re-sent, or a hostile key count) is left to the collector,
// so the free list's memory stays bounded by device-sized sketches.
const maxRecycledKeys = 2 * sketch.MaxTrackedKeys

// NewService builds the service and starts its merger goroutine.
func NewService(cfg Config) *Service {
	if cfg.QueueSize <= 0 {
		cfg.QueueSize = 256
	}
	log := cfg.Logger
	if log == nil {
		log = slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelError + 4}))
	}
	s := &Service{
		cfg:   cfg,
		log:   log,
		m:     newFleetMetrics(cfg.Registry),
		queue: make(chan queued, cfg.QueueSize),
		free:  make(chan *sketch.Sketch, min(cfg.QueueSize, maxFree)),
		apps:  map[string]*appState{},
	}
	s.wg.Add(1)
	go s.merger()
	return s
}

// Decode parses one wire-form sketch into a sketch from the free list, or a
// new one when the list is empty. A sketch that fails to decode goes back
// to the free list.
func (s *Service) Decode(b []byte) (Decoded, error) {
	var sk *sketch.Sketch
	select {
	case sk = <-s.free:
	default:
		sk = new(sketch.Sketch)
	}
	if err := sk.UnmarshalBinary(b); err != nil {
		s.recycle(sk)
		return Decoded{}, err
	}
	return Decoded{App: sk.App, sk: sk}, nil
}

// Release puts back a decoded sketch that will not be offered.
func (s *Service) Release(d Decoded) { s.recycle(d.sk) }

// recycle puts a decoded sketch on the free list, unless the list is full
// or the sketch's key list outgrew maxRecycledKeys.
func (s *Service) recycle(sk *sketch.Sketch) {
	if cap(sk.Keys) > maxRecycledKeys {
		return
	}
	select {
	case s.free <- sk:
	default:
	}
}

// Offer enqueues one caller-built sketch without blocking. The service
// never reuses it: the caller may offer it again or keep reading it. false
// means the queue is full (or the service is draining) and the caller
// should shed load — criticd answers 429 + Retry-After, and the device
// re-sends its (still cumulative) sketch later, losing nothing.
func (s *Service) Offer(sk *sketch.Sketch) bool { return s.offer(queued{sk: sk}) }

// OfferDecoded is Offer for a sketch from Decode. The merger puts the sketch
// back on the free list after its join, and a refused one goes back at once,
// unmerged.
func (s *Service) OfferDecoded(d Decoded) bool {
	return s.offer(queued{sk: d.sk, recycle: true})
}

func (s *Service) offer(q queued) bool {
	s.admit.Lock()
	defer s.admit.Unlock()
	if !s.closed {
		select {
		case s.queue <- q:
			s.m.queueDepth.Add(1)
			return true
		default:
			s.m.rejected.Inc()
			if s.cfg.Ring != nil {
				s.cfg.Ring.Append("fleet:"+q.sk.App, obs.EvSketchRejected, "ingest queue full")
			}
		}
	}
	if q.recycle {
		s.recycle(q.sk)
	}
	return false
}

// merger is the single consumer: it folds queued sketches into the per-app
// consensus. One goroutine suffices — a join is microseconds — and keeps
// the memory bound exact.
func (s *Service) merger() {
	defer s.wg.Done()
	for q := range s.queue {
		s.m.queueDepth.Add(-1)
		start := time.Now()
		app := q.sk.App
		s.mu.Lock()
		st := s.apps[app]
		if st == nil {
			st = &appState{consensus: sketch.New(app)}
			s.apps[app] = st
		}
		changed := st.consensus.Merge(q.sk)
		if changed {
			st.rev++
		}
		st.sketches++
		rev, devices := st.rev, st.consensus.DevicesEstimate()
		keys := len(st.consensus.Keys)
		if st.sketchesM == nil {
			st.sketchesM, st.revisionM, st.devicesM = s.m.sketches(app), s.m.revision(app), s.m.devices(app)
		}
		if q.recycle {
			// A decode may reuse it from here on; recycling before the
			// merge shows in Status means a merged sketch is on the list.
			s.recycle(q.sk)
		}
		s.mu.Unlock()

		s.m.mergeSeconds.Observe(time.Since(start).Seconds())
		st.sketchesM.Inc()
		st.revisionM.Set(int64(rev))
		st.devicesM.Set(int64(devices + 0.5))
		if s.cfg.Ring != nil {
			s.cfg.Ring.Append("fleet:"+app, obs.EvSketchMerged,
				fmt.Sprintf("rev=%d changed=%t keys=%d devices=%.0f", rev, changed, keys, devices))
		}
		s.log.Info("sketch merged", "app", app, "rev", rev, "changed", changed, "keys", keys)
	}
}

// Consensus returns a deep snapshot of one app's consensus and its
// revision. ok is false while no sketch for the app has been merged.
func (s *Service) Consensus(app string) (sk *sketch.Sketch, rev uint64, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.apps[app]
	if st == nil || st.sketches == 0 {
		return nil, 0, false
	}
	return st.consensus.Clone(), st.rev, true
}

// NoteConverge records a finished optimizer run for the app's status and
// metrics (the criticd job runner calls it when a fleet job succeeds).
func (s *Service) NoteConverge(app string, r *Report) {
	s.mu.Lock()
	st := s.apps[app]
	if st == nil {
		st = &appState{consensus: sketch.New(app)}
		s.apps[app] = st
	}
	st.report = r
	s.mu.Unlock()
	s.m.generations(app).Add(int64(len(r.Generations)))
	v := int64(0)
	if r.Converged {
		v = 1
	}
	s.m.converged(app).Set(v)
	if s.cfg.Ring != nil {
		s.cfg.Ring.Append("fleet:"+app, obs.EvConverged,
			fmt.Sprintf("winner=%s generations=%d converged=%t digest=%s",
				r.Winner, len(r.Generations), r.Converged, r.WinnerDigest))
	}
}

// AppStatus is one app's fleet state on the wire (GET /v1/fleet).
type AppStatus struct {
	App      string  `json:"app"`
	Revision uint64  `json:"revision"`         // consensus-changing merges
	Sketches uint64  `json:"sketches"`         // sketches merged in total
	Devices  float64 `json:"devices_estimate"` // KMV distinct-device estimate
	TotalDyn uint64  `json:"total_dyn"`        // max dynamic instructions profiled by one device
	Keys     int     `json:"keys"`             // exact consensus chain keys
	Digest   string  `json:"consensus_digest"` // canonical-encoding digest

	// Last optimizer outcome, when a fleet job has run.
	Converged      bool   `json:"converged,omitempty"`
	Winner         string `json:"winner,omitempty"`
	Generations    int    `json:"generations,omitempty"`
	WinnerDigest   string `json:"winner_digest,omitempty"`
	SelectedChains int    `json:"selected_chains,omitempty"`
}

// Status snapshots every app's fleet state, sorted by app name.
func (s *Service) Status() []AppStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]AppStatus, 0, len(s.apps))
	for app, st := range s.apps {
		as := AppStatus{
			App:      app,
			Revision: st.rev,
			Sketches: st.sketches,
			Devices:  st.consensus.DevicesEstimate(),
			TotalDyn: st.consensus.TotalDyn,
			Keys:     len(st.consensus.Keys),
			Digest:   st.consensus.Digest(),
		}
		if r := st.report; r != nil {
			as.Converged = r.Converged
			as.Winner = r.Winner
			as.Generations = len(r.Generations)
			as.WinnerDigest = r.WinnerDigest
			as.SelectedChains = r.SelectedChains
		}
		out = append(out, as)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].App < out[j].App })
	return out
}

// Drain stops the service: new offers are refused, queued sketches are
// merged, then the merger exits. Safe to call more than once.
func (s *Service) Drain() {
	s.admit.Lock()
	if !s.closed {
		s.closed = true
		close(s.queue)
	}
	s.admit.Unlock()
	s.wg.Wait()
	if s.cfg.Ring != nil {
		s.cfg.Ring.Append("fleet:", obs.EvDrained, "fleet ingest drained")
	}
}
