package cache

import (
	"testing"
	"unsafe"

	"critics/internal/dram"
)

func small() *Cache {
	return NewCache(Config{SizeBytes: 1024, Ways: 2, HitLat: 2}) // 8 sets
}

// TestLinePacks pins Line's layout: the 4-, 1- and 1-byte fields share one
// word ahead of the two timestamps.
func TestLinePacks(t *testing.T) {
	if n := unsafe.Sizeof(Line{}); n != 24 {
		t.Errorf("Line is %d bytes, want 24", n)
	}
}

func TestCacheHitMiss(t *testing.T) {
	c := small()
	if hit, _ := c.Access(0x1000, 0); hit {
		t.Fatal("cold cache hit")
	}
	c.Install(0x1000, 10)
	hit, ready := c.Access(0x1000, 20)
	if !hit {
		t.Fatal("installed line missed")
	}
	if ready != 22 {
		t.Fatalf("ready = %d, want now+hitLat = 22", ready)
	}
	// Same line, different offset.
	if hit, _ := c.Access(0x1030, 20); !hit {
		t.Fatal("same-line access missed")
	}
	// Different line, same set region.
	if hit, _ := c.Access(0x2000, 20); hit {
		t.Fatal("different line hit")
	}
}

func TestCacheInFlightFill(t *testing.T) {
	c := small()
	c.Install(0x1000, 100) // fill completes at 100
	hit, ready := c.Access(0x1000, 50)
	if !hit {
		t.Fatal("in-flight line missed")
	}
	if ready != 100 {
		t.Fatalf("ready = %d, want fill completion 100", ready)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := small() // 2 ways, 8 sets; lines mapping to set 0: multiples of 8*64=512
	c.Install(0*512, 0)
	c.Install(1*512, 1)
	c.Access(0, 10) // touch line 0: line 512 is now LRU
	c.Install(2*512, 20)
	if !c.Probe(0) {
		t.Error("MRU line evicted")
	}
	if c.Probe(512) {
		t.Error("LRU line survived")
	}
	if !c.Probe(1024) {
		t.Error("new line absent")
	}
}

func TestMissRate(t *testing.T) {
	c := small()
	c.Access(0, 0)
	c.Install(0, 0)
	c.Access(0, 1)
	if got := c.MissRate(); got != 0.5 {
		t.Errorf("MissRate = %f", got)
	}
}

func TestCLPTDetectsStride(t *testing.T) {
	p := NewCLPT(64)
	pc := uint32(0x400)
	var pf uint32
	addr := uint32(0x10000)
	for i := 0; i < 6; i++ {
		pf = p.Train(pc, addr)
		addr += 64
	}
	if pf == 0 {
		t.Fatal("stride never detected")
	}
	if pf != addr-64+128 {
		t.Errorf("prefetch addr %#x, want two strides ahead %#x", pf, addr-64+128)
	}
	// Random pattern: confidence collapses.
	p2 := NewCLPT(64)
	addrs := []uint32{0x100, 0x9000, 0x44, 0x7700, 0x120, 0x9999}
	for _, a := range addrs {
		if got := p2.Train(pc, a); got != 0 {
			t.Errorf("prefetch issued on random pattern: %#x", got)
		}
	}
}

func TestEFetch(t *testing.T) {
	e := NewEFetch(4)
	if e.Predict(0x500) != 0 {
		t.Error("cold prediction")
	}
	e.Train(0x500, 0x9000)
	if got := e.Predict(0x500); got != 0x9000 {
		t.Errorf("Predict = %#x", got)
	}
	if e.Depth() != 4 {
		t.Error("depth lost")
	}
}

func TestHierarchyLatencyOrdering(t *testing.T) {
	h := NewHierarchy(DefaultHierConfig())
	// First access: full miss to DRAM.
	first := h.Data(0x40, 0x4000_0000, 0)
	if first < 30 {
		t.Errorf("cold miss completed at %d; should include DRAM latency", first)
	}
	// Second access: L1D hit.
	second := h.Data(0x40, 0x4000_0000, 1000)
	if second != 1000+2 {
		t.Errorf("L1D hit ready at %d, want 1002", second)
	}
	// Evicting from L1 but hitting L2 gives intermediate latency: access a
	// new line; then thrash L1D set... simpler: instruction path.
	iready := h.Instr(0x100, 0)
	if iready < 30 {
		t.Errorf("cold instr miss %d too fast", iready)
	}
	if got := h.Instr(0x100, 500); got != 502 {
		t.Errorf("warm instr access ready %d, want 502", got)
	}
}

func TestHierarchyPrefetchHidesLatency(t *testing.T) {
	h := NewHierarchy(DefaultHierConfig())
	h.PrefetchData(0x4000_1000, 0)
	// Demand access later: line should be present (possibly still
	// in flight) — far cheaper than a fresh DRAM round trip.
	ready := h.Data(0x80, 0x4000_1000, 200)
	if ready > 210 {
		t.Errorf("prefetched line still slow: ready %d at access 200", ready)
	}
}

func TestHierarchyInstrPrefetch(t *testing.T) {
	h := NewHierarchy(DefaultHierConfig())
	h.PrefetchInstr(0x2000, 0)
	if got := h.Instr(0x2000, 300); got != 302 {
		t.Errorf("prefetched instr line ready %d, want 302", got)
	}
}

func TestDRAMRowBehaviour(t *testing.T) {
	c := dram.New(dram.DefaultConfig())
	// First access opens a row.
	d1 := c.Access(0, 0) - 0
	// Same row: CAS only, cheaper.
	base := int64(1000)
	d2 := c.Access(64, base) - base
	if d2 >= d1 {
		t.Errorf("row hit %d not cheaper than activate %d", d2, d1)
	}
	// Row conflict in the same bank (different row, same bank index).
	conflictAddr := uint32(4096 * 16) // row 16 -> same bank (16 banks)
	base = 2000
	d3 := c.Access(conflictAddr, base) - base
	if d3 <= d2 {
		t.Errorf("row conflict %d not slower than row hit %d", d3, d2)
	}
	if c.RowHitRate() <= 0 {
		t.Error("no row hits recorded")
	}
}

func TestDRAMQueueing(t *testing.T) {
	c := dram.New(dram.DefaultConfig())
	// Two back-to-back requests to the same bank: the second queues.
	d1 := c.Access(0, 0)
	d2 := c.Access(64, 0)
	if d2 <= d1 {
		t.Errorf("second request (%d) did not queue behind first (%d)", d2, d1)
	}
}
