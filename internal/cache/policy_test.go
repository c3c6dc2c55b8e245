package cache

import (
	"math/rand"
	"testing"
)

func TestConfigValidate(t *testing.T) {
	ok := Config{SizeBytes: 1024, Ways: 2, HitLat: 2}
	cases := []struct {
		name string
		cfg  Config
		want bool // valid
	}{
		{"default-l1i", Config{SizeBytes: 32 << 10, Ways: 2, HitLat: 2}, true},
		{"zero-policy-is-lru", ok, true},
		{"named-lru", Config{SizeBytes: 1024, Ways: 2, HitLat: 2, Policy: PolicyLRU}, true},
		{"srrip", Config{SizeBytes: 1024, Ways: 2, HitLat: 2, Policy: PolicySRRIP}, true},
		{"trrip", Config{SizeBytes: 1024, Ways: 2, HitLat: 2, Policy: PolicyTRRIP}, true},
		{"zero-ways", Config{SizeBytes: 1024, Ways: 0, HitLat: 2}, false},
		{"negative-ways", Config{SizeBytes: 1024, Ways: -2, HitLat: 2}, false},
		{"too-small-for-one-set", Config{SizeBytes: 64, Ways: 2, HitLat: 2}, false},
		{"size-not-multiple", Config{SizeBytes: 1000, Ways: 2, HitLat: 2}, false},
		{"non-pow2-sets", Config{SizeBytes: 3 * 128, Ways: 2, HitLat: 2}, false}, // 3 sets
		{"negative-hitlat", Config{SizeBytes: 1024, Ways: 2, HitLat: -1}, false},
		{"unknown-policy", Config{SizeBytes: 1024, Ways: 2, HitLat: 2, Policy: "plru"}, false},
	}
	for _, tc := range cases {
		err := tc.cfg.Validate()
		if tc.want && err != nil {
			t.Errorf("%s: Validate() = %v, want nil", tc.name, err)
		}
		if !tc.want && err == nil {
			t.Errorf("%s: Validate() = nil, want error", tc.name)
		}
	}
}

func TestHierConfigValidate(t *testing.T) {
	if err := DefaultHierConfig().Validate(); err != nil {
		t.Fatalf("default hierarchy invalid: %v", err)
	}
	bad := DefaultHierConfig()
	bad.L1D.Ways = 0
	err := bad.Validate()
	if err == nil {
		t.Fatal("zero-way L1D accepted")
	}
	if got := err.Error(); got[:4] != "L1D:" {
		t.Errorf("error %q does not name the offending level", got)
	}
	neg := DefaultHierConfig()
	neg.EFetchDepth = -1
	if neg.Validate() == nil {
		t.Error("negative EFetch depth accepted")
	}
}

func TestNewCachePanicsOnInvalidConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewCache accepted a zero-way config")
		}
	}()
	NewCache(Config{SizeBytes: 1024, Ways: 0, HitLat: 2})
}

// refLRU is the pre-seam replacement logic, re-implemented verbatim: hit sets
// LastUse = now; install scans for the first invalid way, else evicts the
// minimum-LastUse way. The policy seam must reproduce it bit for bit.
type refLRU struct {
	sets [][]Line
	mask uint32
}

func newRefLRU(nsets, ways int) *refLRU {
	r := &refLRU{sets: make([][]Line, nsets), mask: uint32(nsets - 1)}
	for i := range r.sets {
		r.sets[i] = make([]Line, ways)
	}
	return r
}

func (r *refLRU) access(addr uint32, now int64) (bool, int64) {
	lineAddr := addr >> 6
	set := lineAddr & r.mask
	for w := range r.sets[set] {
		l := &r.sets[set][w]
		if l.valid && l.tag == lineAddr {
			l.LastUse = now
			ready := now + 2
			if l.readyAt > ready {
				ready = l.readyAt
			}
			return true, ready
		}
	}
	return false, 0
}

func (r *refLRU) install(addr uint32, readyAt int64) {
	lineAddr := addr >> 6
	set := lineAddr & r.mask
	victim := 0
	var oldest int64 = 1<<63 - 1
	for w := range r.sets[set] {
		if !r.sets[set][w].valid {
			victim = w
			break
		}
		if r.sets[set][w].LastUse < oldest {
			oldest = r.sets[set][w].LastUse
			victim = w
		}
	}
	l := &r.sets[set][victim]
	*l = Line{tag: lineAddr, valid: true, readyAt: readyAt, LastUse: readyAt}
}

// TestLRUPolicyPreSeamEquivalence drives the seamed cache and the pre-seam
// reference model with the same pseudo-random access/install stream and
// demands identical hits and ready cycles — the refactor's bit-identity
// contract at the cache level (the measurement-level counterpart is
// exp.TestLRUPolicyMeasureEquivalence).
func TestLRUPolicyPreSeamEquivalence(t *testing.T) {
	c := NewCache(Config{SizeBytes: 1024, Ways: 2, HitLat: 2}) // 8 sets
	r := newRefLRU(8, 2)
	rng := rand.New(rand.NewSource(7))
	for now := int64(0); now < 20000; now++ {
		addr := uint32(rng.Intn(64)) * 64 // 64 lines over 8 sets: heavy conflict
		hit, ready := c.Access(addr, now)
		rhit, rready := r.access(addr, now)
		if hit != rhit || (hit && ready != rready) {
			t.Fatalf("t=%d addr=%#x: seamed (%v,%d) != reference (%v,%d)", now, addr, hit, ready, rhit, rready)
		}
		if !hit {
			fill := now + 1 + int64(rng.Intn(40))
			c.Install(addr, fill)
			r.install(addr, fill)
		}
	}
}

// TestPolicyProperties checks the invariants every replacement policy must
// preserve: policies pick victims, they never change timing. On any hit the
// ready cycle is exactly max(now+HitLat, the line's last fill completion) —
// the pipelined hit latency with the partial-hit wait for in-flight fills —
// and installs always land (the requested line is present after).
func TestPolicyProperties(t *testing.T) {
	for _, pol := range Policies() {
		t.Run(pol, func(t *testing.T) {
			c := NewCache(Config{SizeBytes: 1024, Ways: 2, HitLat: 2, Policy: pol})

			// Partial hit: a line filling at 100 is not ready before 100.
			c.Install(0x1000, 100)
			if hit, ready := c.Access(0x1000, 50); !hit || ready != 100 {
				t.Fatalf("in-flight access = (%v,%d), want (true,100)", hit, ready)
			}

			rng := rand.New(rand.NewSource(11))
			lastFill := map[uint32]int64{0x1000: 100}
			for now := int64(200); now < 20200; now++ {
				addr := uint32(rng.Intn(64)) * 64
				hit, ready := c.Access(addr, now)
				if !hit {
					fill := now + 1 + int64(rng.Intn(40))
					c.Install(addr, fill)
					lastFill[addr] = fill
					if !c.Probe(addr) {
						t.Fatalf("installed line %#x absent", addr)
					}
					continue
				}
				want := now + 2
				if f := lastFill[addr]; f > want {
					want = f
				}
				if ready != want {
					t.Fatalf("t=%d addr=%#x (%s): hit ready %d, want max(now+HitLat, fill) = %d",
						now, addr, pol, ready, want)
				}
			}
		})
	}
}

func TestSRRIPInsertionIsNotMRU(t *testing.T) {
	// 2-way set: A and B resident and both re-referenced (RRPV 0); C is
	// installed and never touched (RRPV 2). The next victim must be C —
	// SRRIP's scan resistance, where LRU would have evicted A or B.
	c := NewCache(Config{SizeBytes: 1024, Ways: 2, HitLat: 2, Policy: PolicySRRIP})
	const stride = 8 * 64 // set 0
	c.Install(0*stride, 0)
	c.Install(1*stride, 1)
	c.Access(0*stride, 10)
	c.Access(1*stride, 11)
	c.Install(2*stride, 20) // evicts one of A/B (both near): way 0 after aging
	if c.Probe(0 * stride) {
		t.Fatal("way-0 line survived the full-set install")
	}
	// B is near (RRPV 0 aged to 1... then both age until distant); the fresh
	// C sits at the long interval, so the *next* conflict evicts C, not B.
	c.Access(1*stride, 30)
	c.Install(3*stride, 40)
	if !c.Probe(1 * stride) {
		t.Fatal("re-referenced line evicted before the scanned-in line")
	}
	if c.Probe(2 * stride) {
		t.Fatal("never-referenced line survived")
	}
}

func TestTRRIPHotSurvivesConflict(t *testing.T) {
	// Hint line 0's address hot and leave line 512 unhinted. Stream both,
	// then force an eviction: the hot line must survive where lru (and
	// srrip, which sees both as near) would evict by recency/way order.
	var temps TempHints
	if !temps.Add(0, 64, TempHot) {
		t.Fatal("Add refused a valid range")
	}
	cfg := HierConfig{
		L1I:  Config{SizeBytes: 1024, Ways: 2, HitLat: 2, Policy: PolicyTRRIP},
		L1D:  Config{SizeBytes: 1024, Ways: 2, HitLat: 2},
		L2:   Config{SizeBytes: 8 << 10, Ways: 2, HitLat: 10},
		DRAM: DefaultHierConfig().DRAM,
	}
	cfg.Temps = &temps
	h := NewHierarchy(cfg)
	const stride = 8 * 64 // both map to set 0
	h.Instr(0, 0)         // hot line installs near
	h.Instr(stride, 100)  // default line installs long
	h.Instr(0, 200)       // promote hot to near
	h.Instr(stride, 300)  // promote default to 1 (one notch shy)
	h.Instr(2*stride, 400)
	if !h.L1I.Probe(0) {
		t.Fatal("hot-hinted line evicted")
	}
	if h.L1I.Probe(stride) {
		t.Fatal("default-temperature line survived instead of the hot one")
	}
}

func TestTRRIPWithoutHintsMatchesSRRIP(t *testing.T) {
	// An empty hint table must make trrip's insertion degrade to srrip's
	// long interval; hit promotion is one notch weaker, so full-stream
	// equality is not required — but insertion RRPVs must agree.
	var none TempHints
	tp := &trripPolicy{temps: &none}
	var l Line
	tp.Install(&l, 0x123, 0)
	if l.RRPV != rrpvLong {
		t.Fatalf("unhinted trrip insertion RRPV = %d, want srrip's %d", l.RRPV, rrpvLong)
	}
}

func TestTempHints(t *testing.T) {
	var h TempHints
	if !h.Add(0, 128, TempHot) || !h.Add(128, 256, TempCold) || !h.Add(512, 640, TempWarm) {
		t.Fatal("Add refused valid ranges")
	}
	if h.Add(600, 700, TempHot) {
		t.Error("Add accepted an overlapping range")
	}
	if h.Add(700, 700, TempHot) {
		t.Error("Add accepted an empty range")
	}
	for _, tc := range []struct {
		addr uint32
		want uint8
	}{{0, TempHot}, {127, TempHot}, {128, TempCold}, {255, TempCold}, {256, TempDefault}, {512, TempWarm}, {639, TempWarm}, {640, TempDefault}, {1 << 30, TempDefault}} {
		if got := h.Temp(tc.addr); got != tc.want {
			t.Errorf("Temp(%d) = %d, want %d", tc.addr, got, tc.want)
		}
	}
	var nilHints *TempHints
	if nilHints.Temp(0) != TempDefault {
		t.Error("nil hints not default")
	}
}

func TestRegisterPolicyRejectsDuplicates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration accepted")
		}
	}()
	RegisterPolicy(PolicyLRU, func(*TempHints) Policy { return lruPolicy{} })
}

// TestEFetchBoundedTable pins the direct-mapped table semantics: conflicting
// call sites overwrite each other deterministically instead of growing the
// (formerly unbounded) map, and a site whose slot was taken over predicts
// nothing rather than the usurper's callee.
func TestEFetchBoundedTable(t *testing.T) {
	e := NewEFetch(2)
	siteA := uint32(0x1000)
	siteB := siteA + EFetchEntries<<1 // same slot, different tag
	e.Train(siteA, 0x9000)
	if got := e.Predict(siteA); got != 0x9000 {
		t.Fatalf("Predict(A) = %#x", got)
	}
	e.Train(siteB, 0xa000)
	if got := e.Predict(siteA); got != 0 {
		t.Fatalf("evicted site still predicts %#x", got)
	}
	if got := e.Predict(siteB); got != 0xa000 {
		t.Fatalf("Predict(B) = %#x", got)
	}
	// Retraining A reclaims the slot; last trainer wins, always.
	e.Train(siteA, 0x9000)
	if e.Predict(siteB) != 0 || e.Predict(siteA) != 0x9000 {
		t.Fatal("slot reclaim not deterministic")
	}
	// Table never grows: hammer many conflicting sites.
	for i := uint32(0); i < 10*EFetchEntries; i++ {
		e.Train(i<<1, 0x4000+i)
	}
	if len(e.table) != EFetchEntries {
		t.Fatalf("table grew to %d entries", len(e.table))
	}
}
