package fleet

import (
	"bytes"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"critics/internal/sketch"
	"critics/internal/workload"
)

func testApp() workload.App { return workload.MobileApps()[0] }

// deviceSketches builds one round-1 sketch per simulated device.
func deviceSketches(t testing.TB, n int) []*sketch.Sketch {
	t.Helper()
	app := testApp()
	out := make([]*sketch.Sketch, n)
	for i := range out {
		out[i] = BuildDeviceSketch(app, fmt.Sprintf("device-%02d", i), 1)
	}
	return out
}

// waitSketches polls until the app's status reports n merged sketches.
func waitSketches(t *testing.T, s *Service, app string, n uint64) AppStatus {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		for _, as := range s.Status() {
			if as.App == app && as.Sketches >= n {
				return as
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %d sketches of %s", n, app)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestIngestFormsConsensus(t *testing.T) {
	sks := deviceSketches(t, 4)
	s := NewService(Config{})
	defer s.Drain()
	for _, sk := range sks {
		if !s.Offer(sk) {
			t.Fatal("offer refused with an empty queue")
		}
	}
	as := waitSketches(t, s, sks[0].App, uint64(len(sks)))
	if as.Keys == 0 || as.Revision == 0 {
		t.Fatalf("empty consensus: %+v", as)
	}
	if as.Devices < 3.5 || as.Devices > 4.5 {
		t.Errorf("devices estimate %.2f, want ~4", as.Devices)
	}

	// The service's consensus must byte-match a direct fold.
	want := sketch.New(sks[0].App)
	for _, sk := range sks {
		want.Merge(sk)
	}
	got, rev, ok := s.Consensus(sks[0].App)
	if !ok || rev == 0 {
		t.Fatalf("no consensus (ok=%t rev=%d)", ok, rev)
	}
	if !bytes.Equal(got.Encode(), want.Encode()) {
		t.Error("service consensus differs from a direct fold")
	}
}

func TestIngestOrderInvariant(t *testing.T) {
	sks := deviceSketches(t, 6)
	app := sks[0].App
	r := rand.New(rand.NewSource(7))

	digests := map[string]bool{}
	for trial := 0; trial < 3; trial++ {
		s := NewService(Config{})
		perm := r.Perm(len(sks))
		for _, i := range perm {
			if !s.Offer(sks[i]) {
				t.Fatal("offer refused")
			}
			// Duplicate some deliveries: re-sends must be idempotent.
			if i%2 == 0 {
				s.Offer(sks[i])
			}
		}
		s.Drain()
		got, _, ok := s.Consensus(app)
		if !ok {
			t.Fatal("no consensus after drain")
		}
		digests[got.Digest()] = true
	}
	if len(digests) != 1 {
		t.Errorf("arrival order changed the consensus: %v", digests)
	}
}

func TestOfferBackpressure(t *testing.T) {
	// Build the service by hand, without a merger, so the queue genuinely
	// fills: this pins the admission decision itself, not merge speed.
	s := &Service{
		cfg:   Config{QueueSize: 2},
		log:   slog.New(slog.NewTextHandler(io.Discard, nil)),
		m:     newFleetMetrics(nil),
		queue: make(chan queued, 2),
		apps:  map[string]*appState{},
	}
	sk := sketch.New("app")
	if !s.Offer(sk) || !s.Offer(sk) {
		t.Fatal("offers refused below capacity")
	}
	for i := 0; i < 3; i++ {
		if s.Offer(sk) {
			t.Fatal("offer accepted beyond capacity")
		}
	}
}

// TestOfferDuringDrain: offers racing a Drain are queued or refused, never
// sent on the closed queue.
func TestOfferDuringDrain(t *testing.T) {
	sk := sketch.New("app")
	for round := 0; round < 2000; round++ {
		s := NewService(Config{QueueSize: 4})
		var draining atomic.Bool
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for s.Offer(sk) || !draining.Load() {
				}
			}()
		}
		draining.Store(true)
		s.Drain()
		wg.Wait()
	}
}

func TestDrainRefusesAndFlushes(t *testing.T) {
	sks := deviceSketches(t, 2)
	s := NewService(Config{})
	for _, sk := range sks {
		s.Offer(sk)
	}
	s.Drain()
	if s.Offer(sks[0]) {
		t.Error("offer accepted after drain")
	}
	// Everything queued before the drain must have been merged.
	got, _, ok := s.Consensus(sks[0].App)
	if !ok {
		t.Fatal("no consensus after drain")
	}
	if got.TotalDyn == 0 {
		t.Error("queued sketches were dropped by drain")
	}
	s.Drain() // second drain is a no-op, not a panic
}

func TestDeviceSketchDeterministicAndMonotone(t *testing.T) {
	app := testApp()
	a := BuildDeviceSketch(app, "device-00", 1)
	b := BuildDeviceSketch(app, "device-00", 1)
	if !bytes.Equal(a.Encode(), b.Encode()) {
		t.Error("device sketch not deterministic")
	}

	// Round r+1 must dominate round r: merging the older sketch into the
	// newer one changes nothing, so a device re-send supersedes cleanly.
	r2 := BuildDeviceSketch(app, "device-00", 2)
	if r2.TotalDyn <= a.TotalDyn {
		t.Fatalf("round 2 TotalDyn %d not above round 1 %d", r2.TotalDyn, a.TotalDyn)
	}
	before := r2.Encode()
	if r2.Merge(a) {
		t.Error("round-1 sketch changed the round-2 consensus (not monotone)")
	}
	if !bytes.Equal(r2.Encode(), before) {
		t.Error("merge of a dominated sketch altered the bytes")
	}
}

func TestDistinctDevicesDistinctSketches(t *testing.T) {
	app := testApp()
	a := BuildDeviceSketch(app, "device-00", 1)
	b := BuildDeviceSketch(app, "device-01", 1)
	if bytes.Equal(a.Encode(), b.Encode()) {
		t.Error("distinct devices produced identical sketches; seed perturbation broken")
	}
	a.Merge(b)
	if est := a.DevicesEstimate(); est < 1.5 || est > 2.5 {
		t.Errorf("devices estimate %.2f, want ~2", est)
	}
}

// TestDecodedSketchesRecycle: a decoded sketch goes back to the free list
// once merged and the next decode reuses it, while a caller-built sketch
// passed to Offer is merged but never reused.
func TestDecodedSketchesRecycle(t *testing.T) {
	sks := deviceSketches(t, 3)
	app := sks[0].App
	s := NewService(Config{})
	defer s.Drain()

	own := sks[2]
	ownBytes := own.Encode()
	if !s.Offer(own) {
		t.Fatal("offer refused")
	}
	waitSketches(t, s, app, 1)

	d, err := s.Decode(sks[0].Encode())
	if err != nil {
		t.Fatal(err)
	}
	if d.sk == own {
		t.Fatal("Decode reused a caller-built sketch")
	}
	if d.App != app {
		t.Fatalf("decoded app %q, want %q", d.App, app)
	}
	first := d.sk
	if !s.OfferDecoded(d) {
		t.Fatal("offer refused")
	}
	waitSketches(t, s, app, 2)
	d, err = s.Decode(sks[1].Encode())
	if err != nil {
		t.Fatal(err)
	}
	if d.sk != first {
		t.Error("a merged decoded sketch was not reused by the next decode")
	}
	if !bytes.Equal(d.sk.Encode(), sks[1].Encode()) {
		t.Error("decoding into a recycled sketch changed its bytes")
	}
	s.Release(d)
	if !bytes.Equal(own.Encode(), ownBytes) {
		t.Error("a caller-built sketch changed after its merge")
	}

	// A malformed body leaves nothing owned: its sketch is back on the list.
	if _, err := s.Decode([]byte("CSK\x01 truncated")); err == nil {
		t.Fatal("malformed sketch decoded")
	}
	if d, _ := s.Decode(sks[1].Encode()); d.sk != first {
		t.Error("the sketch of a failed decode was not reused")
	}
}

// TestRefusedOfferRecycles: a decoded sketch refused for a full queue, or by
// a draining service, goes back to the free list unmerged.
func TestRefusedOfferRecycles(t *testing.T) {
	sks := deviceSketches(t, 2)
	// No merger: the queue fills and stays full.
	s := &Service{
		cfg:   Config{QueueSize: 1},
		log:   slog.New(slog.NewTextHandler(io.Discard, nil)),
		m:     newFleetMetrics(nil),
		queue: make(chan queued, 1),
		free:  make(chan *sketch.Sketch, 1),
		apps:  map[string]*appState{},
	}
	first, err := s.Decode(sks[0].Encode())
	if err != nil || !s.OfferDecoded(first) {
		t.Fatalf("first offer: %v", err)
	}
	refused, err := s.Decode(sks[1].Encode())
	if err != nil {
		t.Fatal(err)
	}
	if s.OfferDecoded(refused) {
		t.Fatal("offer accepted beyond capacity")
	}
	if len(s.free) != 1 || <-s.free != refused.sk {
		t.Error("the sketch refused for a full queue is not on the free list")
	}

	d := NewService(Config{})
	if !d.Offer(sks[0]) {
		t.Fatal("offer refused")
	}
	d.Drain()
	before, _, _ := d.Consensus(sks[0].App)
	refused, err = d.Decode(sks[1].Encode())
	if err != nil {
		t.Fatal(err)
	}
	if d.OfferDecoded(refused) {
		t.Fatal("offer accepted while draining")
	}
	if len(d.free) != 1 || <-d.free != refused.sk {
		t.Error("the sketch refused while draining is not on the free list")
	}
	after, _, _ := d.Consensus(sks[0].App)
	if after.Digest() != before.Digest() {
		t.Error("a refused sketch reached the consensus")
	}
}

// TestConsensusSnapshotKeepsBytes: a snapshot taken before a later join is
// unaffected by it, although the consensus reuses its key lists.
func TestConsensusSnapshotKeepsBytes(t *testing.T) {
	sks := deviceSketches(t, 3)
	app := sks[0].App
	s := NewService(Config{})
	defer s.Drain()
	for i, sk := range sks[:2] {
		d, err := s.Decode(sk.Encode())
		if err != nil || !s.OfferDecoded(d) {
			t.Fatalf("offer %d: %v", i, err)
		}
	}
	waitSketches(t, s, app, 2)
	snap, rev, _ := s.Consensus(app)
	want := snap.Encode()

	d, err := s.Decode(sks[2].Encode())
	if err != nil || !s.OfferDecoded(d) {
		t.Fatalf("offer: %v", err)
	}
	waitSketches(t, s, app, 3)
	if now, nrev, _ := s.Consensus(app); nrev == rev || now.Digest() == snap.Digest() {
		t.Fatal("the third sketch did not change the consensus")
	}
	if !bytes.Equal(snap.Encode(), want) {
		t.Error("a later join changed an earlier consensus snapshot")
	}
}
