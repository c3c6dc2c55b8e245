package cache

import (
	"fmt"
	"sort"
)

// Replacement-policy names selectable via Config.Policy. The empty string
// selects PolicyLRU: the zero Config keeps the pre-seam behavior bit for bit.
const (
	PolicyLRU   = "lru"   // least-recently-used (the Table I baseline)
	PolicySRRIP = "srrip" // static re-reference interval prediction, 2-bit RRPV
	PolicyTRRIP = "trrip" // TRRIP-style: insertion RRPV seeded from profile temperature hints
)

// RRPV constants of the 2-bit re-reference interval predictors.
const (
	rrpvNear    = 0 // re-referenced soon: keep
	rrpvLong    = 2 // SRRIP's static insertion point
	rrpvDistant = 3 // evict-next; also the eviction threshold
)

// Policy is one cache level's replacement policy: it owns the per-line
// replacement state (Line.LastUse, Line.RRPV) while the Cache keeps tag
// matching, readyAt in-flight-fill timing and statistics. Implementations
// must be deterministic pure functions of the line states they are shown —
// the simulator's bit-identity contract (serial vs batched vs distributed)
// rides on it.
type Policy interface {
	// Name returns the registry name.
	Name() string
	// Hit promotes line l on a demand hit at cycle now.
	Hit(l *Line, now int64)
	// Install seeds l's replacement state after a fill of lineAddr (the
	// address >> 6) completing at readyAt. The cache has already reset l
	// with LastUse = readyAt; policies overwrite what they care about.
	Install(l *Line, lineAddr uint32, readyAt int64)
	// Victim picks the way to evict from a set whose ways are all valid.
	// It may age the set's replacement state (SRRIP increments RRPVs).
	Victim(set []Line) int
}

// PolicyFactory builds a policy instance for one cache. temps carries the
// hierarchy's profile-derived temperature hints; it is non-nil for caches
// built by NewHierarchy and nil for standalone NewCache, and policies that
// ignore hints ignore it.
type PolicyFactory func(temps *TempHints) Policy

var policyFactories = map[string]PolicyFactory{
	PolicyLRU:   func(*TempHints) Policy { return lruPolicy{} },
	PolicySRRIP: func(*TempHints) Policy { return srripPolicy{} },
	PolicyTRRIP: func(t *TempHints) Policy { return &trripPolicy{temps: t} },
}

// RegisterPolicy adds a replacement policy to the registry so external
// packages can plug their own into Config.Policy. Name collisions panic:
// policy names are part of measurement cache identity, so silently rebinding
// one would alias distinct machines.
func RegisterPolicy(name string, mk PolicyFactory) {
	if name == "" || mk == nil {
		panic("cache: RegisterPolicy needs a name and a factory")
	}
	if _, dup := policyFactories[name]; dup {
		panic("cache: duplicate replacement policy " + name)
	}
	policyFactories[name] = mk
}

// Policies returns the registered replacement-policy names, sorted.
func Policies() []string {
	names := make([]string, 0, len(policyFactories))
	for n := range policyFactories {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// newPolicy resolves a Config.Policy name ("" selects lru).
func newPolicy(name string, temps *TempHints) (Policy, error) {
	if name == "" {
		name = PolicyLRU
	}
	mk, ok := policyFactories[name]
	if !ok {
		return nil, fmt.Errorf("cache: unknown replacement policy %q (registered: %v)", name, Policies())
	}
	return mk(temps), nil
}

// lruPolicy is the baseline least-recently-used policy, bit-identical to the
// replacement logic that was inlined in Access/Install before the seam.
type lruPolicy struct{}

func (lruPolicy) Name() string                 { return PolicyLRU }
func (lruPolicy) Hit(l *Line, now int64)       { l.LastUse = now }
func (lruPolicy) Install(*Line, uint32, int64) {} // LastUse = readyAt, already set
func (lruPolicy) Victim(set []Line) int {
	victim := 0
	var oldest int64 = 1<<63 - 1
	for w := range set {
		if set[w].LastUse < oldest {
			oldest = set[w].LastUse
			victim = w
		}
	}
	return victim
}

// srripPolicy is static RRIP (Jaleel et al.): 2-bit re-reference prediction
// values, insertion at the long interval, promotion to near on hit, victim =
// first way predicted distant (aging the whole set until one is).
type srripPolicy struct{}

func (srripPolicy) Name() string                       { return PolicySRRIP }
func (srripPolicy) Hit(l *Line, _ int64)               { l.RRPV = rrpvNear }
func (srripPolicy) Install(l *Line, _ uint32, _ int64) { l.RRPV = rrpvLong }
func (srripPolicy) Victim(set []Line) int              { return rripVictim(set) }

func rripVictim(set []Line) int {
	for {
		for w := range set {
			if set[w].RRPV >= rrpvDistant {
				return w
			}
		}
		for w := range set {
			set[w].RRPV++
		}
	}
}

// trripPolicy seeds re-reference intervals from profile-derived temperature
// hints (TRRIP-style), on install *and* on hit: lines of hot code insert and
// promote to near (survive like MRU), unhinted code behaves like SRRIP on
// install but promotes one notch shy of near, and cold code inserts distant
// and never promotes past the long interval — so actively-streaming cold
// code still cannot displace hot lines. The hit-side bias is what bites in
// a low-associativity I-cache: sequential fetch promotes every resident
// line within a few cycles of its install, so insertion depth alone almost
// never changes the victim order, while promotion depth does. Victim
// selection is SRRIP's aging scan.
type trripPolicy struct {
	temps *TempHints
}

func (*trripPolicy) Name() string { return PolicyTRRIP }
func (p *trripPolicy) Hit(l *Line, _ int64) {
	l.RRPV = hitRRPV(p.temps.Temp(l.tag << 6))
}
func (p *trripPolicy) Install(l *Line, lineAddr uint32, _ int64) {
	l.RRPV = insertRRPV(p.temps.Temp(lineAddr << 6))
}
func (*trripPolicy) Victim(set []Line) int { return rripVictim(set) }

// insertRRPV maps a temperature to an insertion re-reference interval.
func insertRRPV(temp uint8) uint8 {
	switch {
	case temp >= TempHot:
		return rrpvNear
	case temp == TempWarm:
		return 1
	case temp == TempDefault:
		return rrpvLong
	default: // TempCold
		return rrpvDistant
	}
}

// hitRRPV maps a temperature to a promotion re-reference interval.
func hitRRPV(temp uint8) uint8 {
	switch {
	case temp >= TempWarm:
		return rrpvNear
	case temp == TempDefault:
		return 1
	default: // TempCold
		return rrpvLong
	}
}

// Temperature buckets for TempRange.Temp. Addresses outside every hinted
// range default to TempDefault, which TRRIP inserts exactly like SRRIP — so
// an empty hint table degrades trrip to srrip rather than to noise.
const (
	TempCold    = 0 // profiled never-hot code: evict-next insertion
	TempDefault = 1 // no information: SRRIP's static long interval
	TempWarm    = 2
	TempHot     = 3 // top of the profile's dynamic-instruction mass: keep
)

// TempRange marks [Start, End) of the laid-out code image with a
// temperature.
type TempRange struct {
	Start uint32
	End   uint32
	Temp  uint8
}

// TempHints is an address-sorted temperature map derived from a CritIC
// profile over a laid-out program (layout.Temperatures). It describes the
// compiled binary, not the machine, so it reaches a hierarchy only through
// HierConfig.Temps, which no memo key or wire form carries.
type TempHints struct {
	Ranges []TempRange
}

// Add appends a range. Ranges must arrive in ascending, non-overlapping
// address order (Temp does a binary search); empty and out-of-order
// appends are refused.
func (t *TempHints) Add(start, end uint32, temp uint8) bool {
	if start >= end {
		return false
	}
	if n := len(t.Ranges); n > 0 && start < t.Ranges[n-1].End {
		return false
	}
	t.Ranges = append(t.Ranges, TempRange{Start: start, End: end, Temp: temp})
	return true
}

// Len returns the number of ranges.
func (t *TempHints) Len() int { return len(t.Ranges) }

// Temp returns the temperature of addr (TempDefault outside every range).
func (t *TempHints) Temp(addr uint32) uint8 {
	if t == nil {
		return TempDefault
	}
	// Binary search for the last range starting at or before addr.
	lo, hi := 0, len(t.Ranges)
	for lo < hi {
		mid := (lo + hi) / 2
		if t.Ranges[mid].Start <= addr {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == 0 {
		return TempDefault
	}
	if r := &t.Ranges[lo-1]; addr < r.End {
		return r.Temp
	}
	return TempDefault
}
