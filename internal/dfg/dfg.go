// Package dfg builds data-flow information over dynamic instruction windows:
// per-instruction fanout (the criticality signal the paper uses), extraction
// of Instruction Chains — self-contained, independently schedulable acyclic
// DFG paths (§III-A) — and the dependence-structure metrics behind the
// paper's motivation figures (Fig. 1b, Fig. 5a).
//
// Terminology from the paper:
//
//   - fanout: number of dependent instructions in flight (we count consumers
//     within a ROB-sized forward window, matching "fanout across ROB
//     entries", §III-C);
//   - an Instruction Chain (IC) is a path i1 -> i2 -> ... -> ik where each
//     i_{j+1} consumes i_j and has no other in-flight producer — so the
//     chain is executable as an atomic unit once i1's inputs are ready;
//   - a chain's criticality is its members' average fanout.
package dfg

import (
	"critics/internal/stats"
	"critics/internal/trace"
)

// Options controls chain extraction.
type Options struct {
	// ChunkSize is the analysis window in dynamic instructions: producers
	// and consumers are linked only within a chunk. SPEC-like chains need
	// large chunks (they spread over thousands of instructions); mobile
	// chains fit in hundreds.
	ChunkSize int

	// FanoutWindow is the forward window (in dynamic instructions) for
	// fanout counting; the paper counts dependants across ROB entries, so
	// the ROB size (128) is the natural value.
	FanoutWindow int

	// HighFanout is the threshold above which an instruction counts as
	// individually critical.
	HighFanout int32

	// SameBlock restricts chains to a single basic-block instance, the
	// constraint under which the compiler can hoist them. Measurement-only
	// callers (Fig. 5a) leave it false.
	SameBlock bool

	// MaxLen caps chain length (0 = unlimited). The CritIC pass uses 5.
	MaxLen int

	// MinLen is the minimum members for a chain to be reported.
	MinLen int
}

// DefaultOptions returns measurement defaults (unrestricted chains).
func DefaultOptions() Options {
	return Options{
		ChunkSize:    1024,
		FanoutWindow: 128,
		HighFanout:   8,
		MinLen:       2,
	}
}

// Chain is one extracted instruction chain. Members are indices into the
// analyzed dyn slice, in dependence (and program) order.
type Chain struct {
	Members   []int32
	SumFanout int64
}

// Len returns the number of member instructions.
func (c *Chain) Len() int { return len(c.Members) }

// AvgFanout is the chain criticality metric: average fanout per member.
func (c *Chain) AvgFanout() float64 {
	if len(c.Members) == 0 {
		return 0
	}
	return float64(c.SumFanout) / float64(len(c.Members))
}

// Spread returns the dynamic distance (in instructions) the chain covers,
// from first to last member inclusive.
func (c *Chain) Spread() int {
	if len(c.Members) == 0 {
		return 0
	}
	return int(c.Members[len(c.Members)-1]-c.Members[0]) + 1
}

// Fanouts returns, for every instruction in dyns, the number of consumers
// within the following window instructions. CDP commands and branches have
// no dataflow destinations and always get fanout 0.
func Fanouts(dyns []trace.Dyn, window int) []int32 {
	fan := make([]int32, len(dyns))
	if len(dyns) == 0 {
		return fan
	}
	base := dyns[0].Seq
	for i := range dyns {
		d := &dyns[i]
		for k := uint8(0); k < d.NProd; k++ {
			p := d.Prod[k] - base
			if p < 0 {
				continue
			}
			pi := int(p)
			if i-pi <= window {
				fan[pi]++
			}
		}
	}
	return fan
}

// sameBlockInstance reports whether two dynamic instructions belong to the
// same execution instance of the same basic block. Within one thread a block
// executes its instructions consecutively, so membership is exact:
// identical (func, block) and matching seq/index deltas.
func sameBlockInstance(a, b *trace.Dyn) bool {
	return a.ID.Func == b.ID.Func &&
		a.ID.Block == b.ID.Block &&
		b.Seq-a.Seq == int64(b.ID.Index-a.ID.Index)
}

// Extract returns the instruction chains of dyns under opt. Chains are
// disjoint (each instruction joins at most one chain): extraction walks the
// stream head-first and greedily extends each chain along the
// highest-fanout eligible consumer edge, mirroring how the paper's profiler
// dumps independently schedulable ICs and keeps the top ones.
//
// Edge eligibility u -> v requires: v consumes u, v's only in-chunk producer
// is u (self-containment: v needs nothing else in flight), and — when
// opt.SameBlock is set — u and v belong to the same basic-block instance.
func Extract(dyns []trace.Dyn, opt Options) []Chain {
	if opt.ChunkSize <= 0 {
		opt.ChunkSize = 1024
	}
	if opt.FanoutWindow <= 0 {
		opt.FanoutWindow = 128
	}
	if opt.MinLen <= 0 {
		opt.MinLen = 2
	}
	var chains []Chain
	for start := 0; start < len(dyns); start += opt.ChunkSize {
		end := start + opt.ChunkSize
		if end > len(dyns) {
			end = len(dyns)
		}
		chains = extractChunk(dyns[start:end], start, opt, chains)
	}
	return chains
}

// extractChunk runs chain extraction over one chunk. base is the chunk's
// offset within the full slice; reported member indices are absolute.
func extractChunk(chunk []trace.Dyn, base int, opt Options, out []Chain) []Chain {
	n := len(chunk)
	if n == 0 {
		return out
	}
	fan := Fanouts(chunk, opt.FanoutWindow)
	seqBase := chunk[0].Seq

	// In-chunk producer bookkeeping: distinct-producer count and the single
	// producer (valid when the count is exactly 1). A consumer reading two
	// outputs of the same producer (e.g. CC + register) has one producer.
	prodCount := make([]uint8, n)
	singleProd := make([]int32, n)
	for i := 0; i < n; i++ {
		d := &chunk[i]
		seen := [4]int64{-1, -1, -1, -1}
		for k := uint8(0); k < d.NProd; k++ {
			p := d.Prod[k] - seqBase
			if p < 0 || p >= int64(n) {
				continue
			}
			dup := false
			for _, s := range seen {
				if s == p {
					dup = true
					break
				}
			}
			if dup {
				continue
			}
			seen[k] = p
			prodCount[i]++
			singleProd[i] = int32(p)
		}
	}
	// Consumer adjacency (linked lists), restricted to *eligible* edges:
	// consumers whose only in-chunk producer is the list owner. A consumer
	// with several in-flight producers cannot join any chain mid-path, so
	// it never needs to appear in an adjacency list.
	consHead := make([]int32, n)
	consNext := make([]int32, n)
	for i := range consHead {
		consHead[i] = -1
		consNext[i] = -1
	}
	for i := 0; i < n; i++ {
		if prodCount[i] != 1 {
			continue
		}
		pi := singleProd[i]
		consNext[i] = consHead[pi]
		consHead[pi] = int32(i)
	}

	used := make([]bool, n)
	var members []int32 // scratch: a kept chain is copied out below
	for h := 0; h < n; h++ {
		if used[h] || chunk[h].IsCDP {
			continue
		}
		// Build the best chain headed at h.
		var sum int64
		cur := int32(h)
		members = append(members[:0], cur)
		sum += int64(fan[cur])
		used[cur] = true
		for opt.MaxLen == 0 || len(members) < opt.MaxLen {
			best := int32(-1)
			var bestFan int32 = -1
			for v := consHead[cur]; v != -1; v = consNext[v] {
				if used[v] || chunk[v].IsCDP {
					continue
				}
				if opt.SameBlock && !sameBlockInstance(&chunk[cur], &chunk[v]) {
					continue
				}
				if fan[v] > bestFan {
					bestFan = fan[v]
					best = v
				}
			}
			if best == -1 {
				break
			}
			members = append(members, best)
			sum += int64(fan[best])
			used[best] = true
			cur = best
		}
		if len(members) < opt.MinLen {
			// Release members shorter than the minimum so they can
			// join later chains as consumers.
			for _, m := range members {
				used[m] = false
			}
			used[h] = true // heads stay consumed to guarantee progress
			continue
		}
		abs := make([]int32, len(members))
		for i, m := range members {
			abs[i] = m + int32(base)
		}
		out = append(out, Chain{Members: abs, SumFanout: sum})
	}
	return out
}

// GapResult is the Fig. 1b measurement: for each high-fanout instruction in
// a chain, the number of low-fanout instructions before the next high-fanout
// instruction downstream in the same chain — or "none" when the chain has no
// further high-fanout member.
type GapResult struct {
	Gaps *stats.Histogram // bucket k = k low-fanout instructions between
	None int64            // high-fanout instructions with no dependent high-fanout successor
}

// FracNone returns the fraction of high-fanout chain members with no
// dependent high-fanout successor (the "SPEC-like" bucket of Fig. 1b).
func (g GapResult) FracNone() float64 {
	total := g.None + g.Gaps.Total
	if total == 0 {
		return 0
	}
	return float64(g.None) / float64(total)
}

// AddChain folds one chain into the result. fanOf resolves a chain member
// (absolute index) to its whole-window fanout; streamed extraction passes
// the lookup StreamChains provides, the materialized path an indexed slice.
func (g *GapResult) AddChain(c *Chain, fanOf func(int32) int32, threshold int32) {
	lastHigh := -1
	gap := 0
	for _, m := range c.Members {
		if fanOf(m) >= threshold {
			if lastHigh >= 0 {
				g.Gaps.Add(gap)
			}
			lastHigh = int(m)
			gap = 0
		} else if lastHigh >= 0 {
			gap++
		}
	}
	if lastHigh >= 0 {
		g.None++
	}
}

// HighFanoutGaps measures the dependence-chain structure of Fig. 1b over
// extracted chains. fan must come from Fanouts over the same dyns slice.
func HighFanoutGaps(chains []Chain, fan []int32, threshold int32, maxGap int) GapResult {
	res := GapResult{Gaps: stats.NewHistogram(maxGap)}
	for i := range chains {
		res.AddChain(&chains[i], func(m int32) int32 { return fan[m] }, threshold)
	}
	return res
}

// LengthSpread summarizes chain length and dynamic spread distributions
// (Fig. 5a).
type LengthSpread struct {
	MaxLen    int
	MaxSpread int
	P99Len    float64
	P99Spread float64
	MeanLen   float64
}

// LengthSpreadAcc accumulates chain length/spread samples incrementally, so
// streamed extraction can fold chains in without retaining them. Add/Merge
// order must match chain order where bit-identical summaries matter: the
// mean is an ordered float sum.
type LengthSpreadAcc struct {
	Lens, Spreads []float64
	MaxLen        int
	MaxSpread     int
}

// Add folds one chain into the accumulator.
func (a *LengthSpreadAcc) Add(c *Chain) {
	l, s := c.Len(), c.Spread()
	if l > a.MaxLen {
		a.MaxLen = l
	}
	if s > a.MaxSpread {
		a.MaxSpread = s
	}
	a.Lens = append(a.Lens, float64(l))
	a.Spreads = append(a.Spreads, float64(s))
}

// Merge appends o's samples after a's.
func (a *LengthSpreadAcc) Merge(o *LengthSpreadAcc) {
	if o.MaxLen > a.MaxLen {
		a.MaxLen = o.MaxLen
	}
	if o.MaxSpread > a.MaxSpread {
		a.MaxSpread = o.MaxSpread
	}
	a.Lens = append(a.Lens, o.Lens...)
	a.Spreads = append(a.Spreads, o.Spreads...)
}

// Summary computes the Fig. 5a summary over the accumulated chains.
func (a *LengthSpreadAcc) Summary() LengthSpread {
	return LengthSpread{
		MaxLen:    a.MaxLen,
		MaxSpread: a.MaxSpread,
		P99Len:    stats.Percentile(a.Lens, 99),
		P99Spread: stats.Percentile(a.Spreads, 99),
		MeanLen:   stats.Mean(a.Lens),
	}
}

// MeasureLengthSpread computes the Fig. 5a summary over chains.
func MeasureLengthSpread(chains []Chain) LengthSpread {
	acc := LengthSpreadAcc{
		Lens:    make([]float64, 0, len(chains)),
		Spreads: make([]float64, 0, len(chains)),
	}
	for i := range chains {
		acc.Add(&chains[i])
	}
	return acc.Summary()
}

// CriticalFraction returns the fraction of dynamic instructions whose fanout
// meets the threshold (the right axis of Fig. 1a).
func CriticalFraction(fan []int32, threshold int32) float64 {
	if len(fan) == 0 {
		return 0
	}
	crit := 0
	for _, f := range fan {
		if f >= threshold {
			crit++
		}
	}
	return float64(crit) / float64(len(fan))
}
