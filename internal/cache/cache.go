// Package cache implements the cache hierarchy of the baseline platform
// (Table I): a 2-way 32KB i-cache and a 64KB d-cache with 2-cycle hit
// latency, an 8-way 2MB L2 with 10-cycle hits, the CLPT data prefetcher
// sitting at the L2, and the EFetch instruction prefetcher (§IV-G) — plus
// the LPDDR3 controller behind them (internal/dram).
//
// Timing model: caches are set-associative with a pluggable replacement
// policy (Config.Policy; LRU by default, see policy.go); each line carries a
// readyAt timestamp so in-flight fills and prefetches give partial hits (an
// access to a line still being filled waits for the fill). The CPU model
// charges only latencies above the pipelined hit time.
package cache

import (
	"fmt"

	"critics/internal/dram"
)

// LineBytes is the line size used throughout the hierarchy.
const LineBytes = 64

// Config describes one cache level. The zero Policy selects lru, keeping
// the zero-config behavior identical to the pre-policy-seam simulator.
type Config struct {
	SizeBytes int
	Ways      int
	HitLat    int64

	// Policy names the replacement policy (policy.go registry): "" or
	// "lru", "srrip", "trrip". Part of measurement cache identity.
	Policy string
}

// Validate rejects degenerate level configurations with a clear error
// instead of the historical silent behavior (Ways <= 0 divided by zero
// sizing the sets; non-power-of-two set counts were rounded down without
// notice, quietly shrinking the cache).
func (cfg Config) Validate() error {
	if cfg.Ways <= 0 {
		return fmt.Errorf("cache: ways must be >= 1 (got %d)", cfg.Ways)
	}
	if cfg.SizeBytes < cfg.Ways*LineBytes {
		return fmt.Errorf("cache: size %dB cannot hold one set of %d %dB ways", cfg.SizeBytes, cfg.Ways, LineBytes)
	}
	if cfg.SizeBytes%(cfg.Ways*LineBytes) != 0 {
		return fmt.Errorf("cache: size %dB is not a multiple of ways*line = %dB", cfg.SizeBytes, cfg.Ways*LineBytes)
	}
	nsets := cfg.SizeBytes / (cfg.Ways * LineBytes)
	if nsets&(nsets-1) != 0 {
		return fmt.Errorf("cache: %dB/%d-way gives %d sets; the indexer needs a power of two (it used to round down silently)", cfg.SizeBytes, cfg.Ways, nsets)
	}
	if cfg.HitLat < 0 {
		return fmt.Errorf("cache: negative hit latency %d", cfg.HitLat)
	}
	if _, err := newPolicy(cfg.Policy, nil); err != nil {
		return err
	}
	return nil
}

// Line is one cache line. Tag matching and fill timing (the unexported
// fields) belong to the Cache; LastUse and RRPV are the replacement state a
// Policy owns. The small fields lead, so a line packs into 24 bytes.
type Line struct {
	tag   uint32
	valid bool
	RRPV  uint8 // 2-bit re-reference prediction value (srrip/trrip)

	readyAt int64
	LastUse int64 // recency timestamp (lru)
}

// Valid reports whether the line holds data.
func (l *Line) Valid() bool { return l.valid }

// Cache is one set-associative cache with a pluggable replacement policy.
type Cache struct {
	cfg   Config
	pol   Policy
	lines []Line // every set's ways, set s at [s*ways, (s+1)*ways)
	ways  uint32
	shift uint
	mask  uint32

	// Stats.
	Accesses int64
	Misses   int64
}

// NewCache builds a cache; sets are derived from size/ways/line. The config
// must pass Validate — levels are sized by experiment code, so a degenerate
// config is a programming error and panics with Validate's message.
// Temperature-hinted policies get no hints here; NewHierarchy threads them.
func NewCache(cfg Config) *Cache { return newCacheHints(cfg, nil) }

func newCacheHints(cfg Config, temps *TempHints) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	pol, err := newPolicy(cfg.Policy, temps)
	if err != nil {
		panic(err)
	}
	nsets := cfg.SizeBytes / (cfg.Ways * LineBytes)
	c := &Cache{cfg: cfg, pol: pol, lines: make([]Line, nsets*cfg.Ways), ways: uint32(cfg.Ways), mask: uint32(nsets - 1)}
	c.shift = 6 // log2(LineBytes)
	return c
}

// set returns the ways of set s, capped so that no append reaches the next
// set.
func (c *Cache) set(s uint32) []Line {
	lo, hi := s*c.ways, (s+1)*c.ways
	return c.lines[lo:hi:hi]
}

// Policy exposes the cache's replacement policy (tests, diagnostics).
func (c *Cache) Policy() Policy { return c.pol }

// lookup finds the line holding addr, or nil.
func (c *Cache) lookup(addr uint32) *Line {
	lineAddr := addr >> c.shift
	tag := lineAddr // full line address as tag: simple and unambiguous
	ways := c.set(lineAddr & c.mask)
	for w := range ways {
		if l := &ways[w]; l.valid && l.tag == tag {
			return l
		}
	}
	return nil
}

// Probe reports whether addr's line is present (no state change, no stats).
func (c *Cache) Probe(addr uint32) bool {
	return c.lookup(addr) != nil
}

// Access looks up addr at cycle now. It returns (hit, readyAt): on a hit,
// readyAt is when the data is available (>= now + HitLat; later if the line
// is still in flight). On a miss the caller must fill the line via Install
// and compute readyAt from the lower level.
func (c *Cache) Access(addr uint32, now int64) (bool, int64) {
	c.Accesses++
	l := c.lookup(addr)
	if l == nil {
		c.Misses++
		return false, 0
	}
	c.pol.Hit(l, now)
	ready := now + c.cfg.HitLat
	if l.readyAt > ready {
		ready = l.readyAt
	}
	return true, ready
}

// Install fills addr's line, available at readyAt. Invalid ways fill first
// (in way order, matching the pre-seam scan); a full set evicts the policy's
// victim.
func (c *Cache) Install(addr uint32, readyAt int64) {
	lineAddr := addr >> c.shift
	ways := c.set(lineAddr & c.mask)
	victim := -1
	for w := range ways {
		if !ways[w].valid {
			victim = w
			break
		}
	}
	if victim < 0 {
		victim = c.pol.Victim(ways)
	}
	l := &ways[victim]
	*l = Line{tag: lineAddr, valid: true, readyAt: readyAt, LastUse: readyAt}
	c.pol.Install(l, lineAddr, readyAt)
}

// MissRate returns misses/accesses.
func (c *Cache) MissRate() float64 {
	if c.Accesses == 0 {
		return 0
	}
	return float64(c.Misses) / float64(c.Accesses)
}

// HitLat exposes the configured hit latency.
func (c *Cache) HitLat() int64 { return c.cfg.HitLat }

// Prefetcher issues prefetches into a cache level.

// CLPT is the stride prefetcher at the L2 of the baseline configuration
// (Table I cites [18]'s table: 1024 x 7-bit entries). It is PC-indexed:
// each entry remembers the last address and stride of a load PC and, on a
// stride match, prefetches the next lines into L2.
type CLPT struct {
	entries []clptEntry
	mask    uint32

	Prefetches int64
}

type clptEntry struct {
	lastAddr uint32
	stride   int32
	conf     uint8
}

// NewCLPT builds the prefetcher with n entries (rounded to a power of two).
func NewCLPT(n int) *CLPT {
	p := 1
	for p < n {
		p <<= 1
	}
	return &CLPT{entries: make([]clptEntry, p), mask: uint32(p - 1)}
}

// Train observes a demand access by the load at pc to addr and returns a
// prefetch address (0 if none).
func (c *CLPT) Train(pc, addr uint32) uint32 {
	e := &c.entries[(pc>>2)&c.mask]
	stride := int32(addr) - int32(e.lastAddr)
	if stride == e.stride && stride != 0 {
		if e.conf < 3 {
			e.conf++
		}
	} else {
		e.stride = stride
		if e.conf > 0 {
			e.conf--
		}
	}
	e.lastAddr = addr
	if e.conf >= 2 && e.stride != 0 {
		c.Prefetches++
		return uint32(int64(addr) + int64(e.stride)*2)
	}
	return 0
}

// EFetch is the call-stack-driven instruction prefetcher of §IV-G ([71]): it
// learns which function a call site transfers to and, when the site is seen
// again, prefetches the first lines of the predicted callee. (The paper's
// version keys on user-event call-stack history with a fixed 39KB table;
// keying on the call-site PC captures the same next-function locality for
// our single-threaded traces.)
//
// The table is a fixed-size direct-mapped array — EFetchEntries tagged
// (site, callee) pairs — matching the paper's fixed hardware budget rather
// than the unbounded map it used to be. A call site whose slot is held by a
// conflicting site simply overwrites it on Train: eviction is deterministic
// (last trainer wins), so simulations stay bit-identical for every worker
// count and batching strategy.
type EFetch struct {
	table []efetchEntry
	mask  uint32
	depth int // lines prefetched per prediction

	Predictions int64
}

type efetchEntry struct {
	site   uint32 // call-site PC tag (full PC: cheap and unambiguous)
	callee uint32 // predicted callee entry address
}

// EFetchEntries is the direct-mapped table size: 4096 8-byte entries (32KB
// of payload — the same order as the paper's 39KB structure once tags and
// valid bits are accounted).
const EFetchEntries = 4096

// NewEFetch builds the prefetcher; depth is the number of 64B lines warmed
// per predicted callee.
func NewEFetch(depth int) *EFetch {
	return &EFetch{table: make([]efetchEntry, EFetchEntries), mask: EFetchEntries - 1, depth: depth}
}

// slot indexes the direct-mapped table (call sites are >= 2-byte aligned).
func (e *EFetch) slot(sitePC uint32) *efetchEntry {
	return &e.table[(sitePC>>1)&e.mask]
}

// Predict returns the predicted callee entry for a call site (0 if unknown
// or if the site's slot was taken over by a conflicting site).
func (e *EFetch) Predict(sitePC uint32) uint32 {
	s := e.slot(sitePC)
	if s.callee == 0 || s.site != sitePC {
		return 0
	}
	e.Predictions++
	return s.callee
}

// Train records the observed callee of a call site, overwriting whatever
// occupied the site's slot.
func (e *EFetch) Train(sitePC, callee uint32) {
	*e.slot(sitePC) = efetchEntry{site: sitePC, callee: callee}
}

// Depth returns the configured prefetch depth in lines.
func (e *EFetch) Depth() int { return e.depth }

// HierConfig configures the full hierarchy.
type HierConfig struct {
	L1I Config
	L1D Config
	L2  Config

	CLPTEntries int // 0 disables the L2 data prefetcher
	EFetchDepth int // 0 disables the instruction prefetcher

	// Temps carries profile-derived code-temperature hints to
	// temperature-aware replacement policies (trrip); nil hints nothing,
	// which degrades trrip to srrip. Like cpu.Config.Metrics it is attached
	// after the memo key is computed: the measurement build derives the
	// hints from the compiled binary, sched.KeyOf rejects a non-nil pointer,
	// and the wire never carries them.
	Temps *TempHints `json:"-"`

	DRAM dram.Config
}

// Validate rejects degenerate hierarchy configurations with an error naming
// the offending level.
func (cfg HierConfig) Validate() error {
	for _, lv := range []struct {
		name string
		c    Config
	}{{"L1I", cfg.L1I}, {"L1D", cfg.L1D}, {"L2", cfg.L2}} {
		if err := lv.c.Validate(); err != nil {
			return fmt.Errorf("%s: %w", lv.name, err)
		}
	}
	if cfg.CLPTEntries < 0 {
		return fmt.Errorf("cache: negative CLPT entry count %d", cfg.CLPTEntries)
	}
	if cfg.EFetchDepth < 0 {
		return fmt.Errorf("cache: negative EFetch depth %d", cfg.EFetchDepth)
	}
	return nil
}

// DefaultHierConfig matches Table I.
func DefaultHierConfig() HierConfig {
	return HierConfig{
		L1I:         Config{SizeBytes: 32 << 10, Ways: 2, HitLat: 2},
		L1D:         Config{SizeBytes: 64 << 10, Ways: 2, HitLat: 2},
		L2:          Config{SizeBytes: 2 << 20, Ways: 8, HitLat: 10},
		CLPTEntries: 1024,
		EFetchDepth: 0,
		DRAM:        dram.DefaultConfig(),
	}
}

// Hierarchy ties L1I/L1D/L2/DRAM and the prefetchers together.
type Hierarchy struct {
	L1I, L1D, L2 *Cache
	DRAM         *dram.Controller
	CLPT         *CLPT
	EFetch       *EFetch
}

// NewHierarchy builds the hierarchy from cfg. Like NewCache, a config that
// fails Validate is a programming error and panics with its message;
// experiment entry points (and the distributed execute path) validate
// upstream and return the error instead.
func NewHierarchy(cfg HierConfig) *Hierarchy {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	h := &Hierarchy{DRAM: dram.New(cfg.DRAM)}
	h.L1I = newCacheHints(cfg.L1I, cfg.Temps)
	h.L1D = newCacheHints(cfg.L1D, cfg.Temps)
	h.L2 = newCacheHints(cfg.L2, cfg.Temps)
	if cfg.CLPTEntries > 0 {
		h.CLPT = NewCLPT(cfg.CLPTEntries)
	}
	if cfg.EFetchDepth > 0 {
		h.EFetch = NewEFetch(cfg.EFetchDepth)
	}
	return h
}

// fillFromL2 resolves a miss below L1: L2 then DRAM. Returns data-ready
// cycle and installs lines on the way up.
func (h *Hierarchy) fillFromL2(addr uint32, now int64) int64 {
	if hit, ready := h.L2.Access(addr, now); hit {
		return ready
	}
	done := h.DRAM.Access(addr, now)
	h.L2.Install(addr, done)
	return done
}

// Instr performs an instruction fetch access for the line containing addr at
// cycle now, returning the cycle the bytes are available.
func (h *Hierarchy) Instr(addr uint32, now int64) int64 {
	if hit, ready := h.L1I.Access(addr, now); hit {
		return ready
	}
	ready := h.fillFromL2(addr, now)
	h.L1I.Install(addr, ready)
	return ready
}

// PrefetchInstr warms the line containing addr into L1I without counting a
// demand access (used by EFetch).
func (h *Hierarchy) PrefetchInstr(addr uint32, now int64) {
	if h.L1I.Probe(addr) {
		return
	}
	ready := h.fillFromL2(addr, now)
	h.L1I.Install(addr, ready)
}

// Data performs a data access by the load/store at pc to addr, returning the
// data-ready cycle. Stores install lines but callers typically ignore their
// latency (store buffering). CLPT trains on L1D misses that reach the L2
// and prefetches into the L2 only — it is the baseline's L2-side prefetcher
// (Table I), hiding DRAM latency behind the 10-cycle L2 hit.
func (h *Hierarchy) Data(pc, addr uint32, now int64) int64 {
	if hit, ready := h.L1D.Access(addr, now); hit {
		return ready
	}
	ready := h.fillFromL2(addr, now)
	h.L1D.Install(addr, ready)
	if h.CLPT != nil {
		if pf := h.CLPT.Train(pc, addr); pf != 0 {
			h.PrefetchL2(pf, now)
		}
	}
	return ready
}

// PrefetchL2 warms the line containing addr into the L2 only (the baseline
// CLPT's insertion level).
func (h *Hierarchy) PrefetchL2(addr uint32, now int64) {
	if h.L2.Probe(addr) {
		return
	}
	done := h.DRAM.Access(addr, now)
	h.L2.Install(addr, done)
}

// PrefetchData warms the line containing addr all the way into the L1D —
// the insertion level of the criticality-directed load prefetcher ([18]),
// which is what saves the L2 hit latency on predicted-critical loads.
func (h *Hierarchy) PrefetchData(addr uint32, now int64) {
	if h.L1D.Probe(addr) {
		return
	}
	ready := h.fillFromL2(addr, now)
	h.L1D.Install(addr, ready)
}
