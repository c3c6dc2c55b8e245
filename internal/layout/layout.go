// Package layout is the profile-guided code-placement half of the front-end
// co-optimization subsystem: it reorders the functions of a laid-out program
// to cut L1I conflict and fetch-discontinuity misses, and derives the code
// "temperature" hints the trrip replacement policy seeds its re-reference
// intervals from.
//
// The orderings never touch program structure — prog.Program.LayoutOrder
// reassigns addresses while the Funcs slice (and every function/block/
// instruction id, and every instruction UID) stays put. Trace generation
// keys its randomness on UIDs, so a relayout replays the exact same dynamic
// instruction stream at different addresses: the only simulated difference
// is instruction-cache behavior, which is the point.
package layout

import (
	"fmt"
	"sort"

	"critics/internal/cache"
	"critics/internal/core"
	"critics/internal/prog"
)

// Layout pass names, selectable as experiment sweep axes and via the
// criticsim -code-layout flag.
const (
	// KindNone keeps the generator's program order (the seed layout).
	KindNone = "none"
	// KindC3 greedily clusters call-affine functions (callee appended
	// after its hottest caller chain, C³/Pettis-Hansen style) and emits
	// clusters hottest-first.
	KindC3 = "c3"
	// KindHot sorts functions by profiled heat, hottest first — the
	// classic straw-man placement C³ is usually compared against.
	KindHot = "hot"
)

// Kinds lists the layout passes in presentation order.
func Kinds() []string { return []string{KindNone, KindC3, KindHot} }

// mergeCapBytes caps a C³ cluster at a page: merging past it stops helping
// (the affinity being exploited is line- and page-grained) and risks one
// giant cluster that pins ordering to the call graph's largest component.
const mergeCapBytes = 4096

// FuncHeat sums the profile's per-chain dynamic instruction counts by
// function: heat[f] is how many profiled dynamic instructions ran in
// criticality-candidate chains of function f. Every candidate contributes
// (not just the selected subset) — placement wants the full execution-mass
// picture, not the 16-bit-representability filter. A nil profile yields all
// zeros, which every consumer treats as "no information".
func FuncHeat(p *prog.Program, prof *core.Profile) []int64 {
	heat := make([]int64, len(p.Funcs))
	if prof == nil {
		return heat
	}
	for i := range prof.Entries {
		e := &prof.Entries[i]
		if int(e.Key.Func) < len(heat) {
			heat[e.Key.Func] += e.DynInstrs()
		}
	}
	return heat
}

// Order computes the function emission order for one layout kind. The
// result is a permutation of function ids suitable for
// prog.Program.LayoutOrder; KindNone (and "") returns nil, the identity.
func Order(p *prog.Program, prof *core.Profile, kind string) ([]int, error) {
	switch kind {
	case "", KindNone:
		return nil, nil
	case KindHot:
		return hotOrder(p, prof), nil
	case KindC3:
		return c3Order(p, prof), nil
	default:
		return nil, fmt.Errorf("layout: unknown layout kind %q (known: %v)", kind, Kinds())
	}
}

// hotOrder sorts functions by heat descending, program order breaking ties —
// deterministic for every profile.
func hotOrder(p *prog.Program, prof *core.Profile) []int {
	heat := FuncHeat(p, prof)
	order := make([]int, len(p.Funcs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return heat[order[a]] > heat[order[b]]
	})
	return order
}

// callEdge is one static caller→callee relation weighted by the caller's
// profiled heat (the closest stand-in for call frequency the profile
// carries; +1 keeps unprofiled edges ordered deterministically too).
type callEdge struct {
	caller, callee int
	weight         int64
}

// c3Order is greedy call-affinity clustering: process call edges by weight,
// and when the callee still heads its own cluster, splice that cluster
// directly after the caller's — so a hot call site's target lands in the
// fall-through path of its caller. Clusters are then emitted hottest-first.
func c3Order(p *prog.Program, prof *core.Profile) []int {
	heat := FuncHeat(p, prof)

	// Collect caller→callee edges, folding duplicate sites.
	wsum := make(map[[2]int]int64)
	for fi, f := range p.Funcs {
		for _, b := range f.Blocks {
			if b.End == prog.EndCall && b.Callee != fi {
				wsum[[2]int{fi, b.Callee}] += heat[fi] + 1
			}
		}
	}
	edges := make([]callEdge, 0, len(wsum))
	for k, w := range wsum {
		edges = append(edges, callEdge{caller: k[0], callee: k[1], weight: w})
	}
	sort.Slice(edges, func(a, b int) bool {
		if edges[a].weight != edges[b].weight {
			return edges[a].weight > edges[b].weight
		}
		if edges[a].caller != edges[b].caller {
			return edges[a].caller < edges[b].caller
		}
		return edges[a].callee < edges[b].callee
	})

	// Singleton clusters, merged greedily under the byte cap.
	clusterOf := make([]int, len(p.Funcs))
	clusters := make([][]int, len(p.Funcs))
	bytes := make([]int64, len(p.Funcs))
	for i := range p.Funcs {
		clusterOf[i] = i
		clusters[i] = []int{i}
		bytes[i] = funcBytes(p.Funcs[i])
	}
	for _, e := range edges {
		cu, cv := clusterOf[e.caller], clusterOf[e.callee]
		if cu == cv || clusters[cv][0] != e.callee {
			continue // same cluster, or the callee is already glued behind someone
		}
		if bytes[cu]+bytes[cv] > mergeCapBytes {
			continue
		}
		for _, fi := range clusters[cv] {
			clusterOf[fi] = cu
		}
		clusters[cu] = append(clusters[cu], clusters[cv]...)
		bytes[cu] += bytes[cv]
		clusters[cv] = nil
	}

	// Emit clusters hottest-first (peak member heat; min function id ties).
	type ranked struct {
		id   int
		heat int64
	}
	var order []int
	var rank []ranked
	for id, c := range clusters {
		if c == nil {
			continue
		}
		var peak int64
		for _, fi := range c {
			if heat[fi] > peak {
				peak = heat[fi]
			}
		}
		rank = append(rank, ranked{id: id, heat: peak})
	}
	sort.Slice(rank, func(a, b int) bool {
		if rank[a].heat != rank[b].heat {
			return rank[a].heat > rank[b].heat
		}
		return rank[a].id < rank[b].id
	})
	for _, r := range rank {
		order = append(order, clusters[r.id]...)
	}
	return order
}

// funcBytes is a function's code size, order-independent (summed instruction
// sizes plus the 64-byte alignment pad bound).
func funcBytes(f *prog.Func) int64 {
	var n int64
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			n += int64(b.Instrs[i].Size())
		}
	}
	return n + 63
}

// Apply re-lays a program's addresses in the given emission order on a clone
// (the input — typically a shared memoized variant — is never mutated) and
// verifies the structural invariants still hold.
func Apply(p *prog.Program, order []int) (*prog.Program, error) {
	if order != nil {
		if len(order) != len(p.Funcs) {
			return nil, fmt.Errorf("layout: order has %d entries for %d functions", len(order), len(p.Funcs))
		}
		seen := make([]bool, len(p.Funcs))
		for _, fi := range order {
			if fi < 0 || fi >= len(p.Funcs) || seen[fi] {
				return nil, fmt.Errorf("layout: order is not a permutation (function %d)", fi)
			}
			seen[fi] = true
		}
	}
	q := p.Clone()
	q.LayoutOrder(order)
	if err := q.Validate(); err != nil {
		return nil, fmt.Errorf("layout: relaid program invalid: %w", err)
	}
	return q, nil
}

// ApplyKind is Order + Apply: the laid-out clone of p under one named pass.
func ApplyKind(p *prog.Program, prof *core.Profile, kind string) (*prog.Program, error) {
	order, err := Order(p, prof, kind)
	if err != nil {
		return nil, err
	}
	return Apply(p, order)
}

// Temperatures derives the trrip policy's cache.TempHints from a profile
// over a laid-out program: functions are bucketed by their share of the
// profiled dynamic-instruction mass — the hot set covering the first half,
// a warm set to 85%, cold for functions the profile never saw — and each
// non-default bucket becomes one address range over the function's laid-out
// extent (default-temperature functions are omitted; trrip treats unhinted
// addresses as TempDefault anyway). Adjacent same-temperature ranges merge.
func Temperatures(p *prog.Program, prof *core.Profile) cache.TempHints {
	heat := FuncHeat(p, prof)
	var total int64
	for _, h := range heat {
		total += h
	}
	if total == 0 {
		// No profile mass: no information. An empty table (everything
		// TempDefault) degrades trrip to srrip; calling everything cold
		// here would instead have trrip evict the whole image eagerly.
		return cache.TempHints{}
	}

	temp := make([]uint8, len(p.Funcs))
	for i := range temp {
		temp[i] = TempOf(heat[i], rankCoverage(heat, i, total))
	}

	// One candidate range per function over its laid-out extent, address
	// order, line-rounded ends (the hints are consumed at line granularity).
	type span struct {
		start, end uint32
		temp       uint8
	}
	var spans []span
	for fi, f := range p.Funcs {
		if temp[fi] == cache.TempDefault {
			continue
		}
		start, end, ok := funcExtent(f)
		if !ok {
			continue
		}
		spans = append(spans, span{start: start, end: roundLine(end), temp: temp[fi]})
	}
	sort.Slice(spans, func(a, b int) bool { return spans[a].start < spans[b].start })

	var hints cache.TempHints
	for _, s := range spans {
		// Merge into the previous range when contiguous and same-temp.
		if n := hints.Len(); n > 0 && hints.Ranges[n-1].End >= s.start && hints.Ranges[n-1].Temp == s.temp {
			if s.end > hints.Ranges[n-1].End {
				hints.Ranges[n-1].End = s.end
			}
			continue
		}
		// Functions start line-aligned (prog.Program.LayoutOrder), so
		// line-rounded extents never overlap and Add takes every range.
		hints.Add(s.start, s.end, s.temp)
	}
	return hints
}

// TempOf buckets one function: zero heat is cold, functions inside the
// profile's densest half are hot, inside 85% cumulative coverage warm, the
// long tail default.
func TempOf(h int64, cumFrac float64) uint8 {
	switch {
	case h == 0:
		return cache.TempCold
	case cumFrac <= 0.50:
		return cache.TempHot
	case cumFrac <= 0.85:
		return cache.TempWarm
	default:
		return cache.TempDefault
	}
}

// rankCoverage returns the cumulative heat fraction up to and including
// function fi when functions are ranked by heat descending (ties by id) —
// the "how deep into the profile's mass does this function sit" number
// TempOf buckets on. Zero total (empty profile) reports 1: everything lands
// default/cold.
func rankCoverage(heat []int64, fi int, total int64) float64 {
	if total == 0 || heat[fi] == 0 {
		return 1
	}
	var cum int64
	for j, h := range heat {
		if h > heat[fi] || (h == heat[fi] && j <= fi) {
			cum += h
		}
	}
	return float64(cum) / float64(total)
}

// funcExtent returns the [min, max) laid-out address range of a function.
func funcExtent(f *prog.Func) (start, end uint32, ok bool) {
	start = ^uint32(0)
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if in.Addr < start {
				start = in.Addr
			}
			if e := in.Addr + uint32(in.Size()); e > end {
				end = e
			}
		}
	}
	return start, end, end > start
}

// roundLine rounds an end address up to the next cache-line boundary.
func roundLine(a uint32) uint32 {
	return (a + cache.LineBytes - 1) &^ uint32(cache.LineBytes-1)
}
