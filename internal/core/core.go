// Package core implements the paper's primary contribution: identification
// of Critical Instruction Chains (CritICs) from profiled execution.
//
// The pipeline mirrors §III of the paper:
//
//  1. Sampled dynamic windows (internal/trace) are analyzed for
//     self-contained instruction chains (internal/dfg) restricted to single
//     basic-block instances, the form the compiler can hoist.
//  2. Each dynamic chain is mapped to its *static* identity — the (function,
//     block, member positions) tuple — and occurrence counts are aggregated
//     (the paper used a Spark PairRDD job for this step at 100s-of-GB trace
//     scale; in-process maps suffice here).
//  3. Chains whose average fanout per instruction meets the criticality
//     threshold (8) become CritIC candidates; candidates are ranked by
//     dynamic coverage and selected greedily, skipping chains that overlap
//     already-selected static instructions and (optionally) chains that
//     fail the all-or-nothing 16-bit representability rule.
//
// The resulting Profile is what the compiler pass (internal/compiler)
// consumes.
package core

import (
	"encoding/json"
	"fmt"
	"sort"

	"critics/internal/dfg"
	"critics/internal/encoding"
	"critics/internal/prog"
	"critics/internal/stats"
	"critics/internal/trace"
)

// MaxChainLen is the longest chain the profile records; the CDP run-length
// encoding supports up to isa.CDPMaxRun, and the paper finds length 5
// optimal (§IV-H).
const MaxChainLen = 8

// Config controls profiling and CritIC selection.
type Config struct {
	// AvgFanoutThreshold is the chain criticality cutoff (paper: 8).
	AvgFanoutThreshold float64

	// MaxLen caps selected chain length (paper: 5; up to MaxChainLen).
	MaxLen int

	// MinLen is the shortest chain worth optimizing (2).
	MinLen int

	// FanoutWindow for fanout counting (ROB size).
	FanoutWindow int

	// ChunkSize for chain extraction.
	ChunkSize int

	// CoverageTarget stops selection once this fraction of the profiled
	// dynamic stream is covered (paper: ~30% of dynamic coverage from a
	// ~10KB profile). 0 means no limit.
	CoverageTarget float64

	// MaxEntries caps the number of selected chains (profile size). 0
	// means no limit.
	MaxEntries int

	// RequireThumb drops chains that fail the all-or-nothing 16-bit rule
	// during *selection*. The CritIC.Ideal configuration keeps them
	// (hypothetically converting everything, Fig. 5b / §IV-D).
	RequireThumb bool
}

// DefaultConfig returns the paper's operating point.
func DefaultConfig() Config {
	return Config{
		AvgFanoutThreshold: 8,
		MaxLen:             5,
		MinLen:             2,
		FanoutWindow:       128,
		ChunkSize:          1024,
		CoverageTarget:     0.5,
		MaxEntries:         4096,
		RequireThumb:       true,
	}
}

// ChainKey names a static chain: a block plus the member positions within
// it. It is comparable and compact (supports blocks up to 256 instructions
// and chains up to MaxChainLen members).
type ChainKey struct {
	Func  uint16
	Block uint16
	N     uint8
	Idx   [MaxChainLen]uint8
}

// String implements fmt.Stringer for ChainKey.
func (k ChainKey) String() string {
	s := fmt.Sprintf("f%d.b%d[", k.Func, k.Block)
	for i := uint8(0); i < k.N; i++ {
		if i > 0 {
			s += ","
		}
		s += fmt.Sprintf("%d", k.Idx[i])
	}
	return s + "]"
}

// Entry is one profiled chain.
type Entry struct {
	Key       ChainKey
	Length    int
	DynCount  int64   // dynamic occurrences observed
	AvgFanout float64 // occurrence-weighted mean of the chain criticality metric
	ThumbOK   bool    // all members pass the all-or-nothing 16-bit test
	Selected  bool    // chosen as a CritIC for optimization
}

// DynInstrs returns the number of dynamic instructions the chain accounted
// for in the profiled stream.
func (e *Entry) DynInstrs() int64 { return e.DynCount * int64(e.Length) }

// Profile is the CritIC profile for one program: every chain candidate that
// met the criticality threshold, with the selected subset marked.
type Profile struct {
	App      string
	TotalDyn int64 // dynamic instructions profiled
	Entries  []Entry

	// SelectedCoverage is the fraction of the profiled stream covered by
	// selected chains.
	SelectedCoverage float64
}

// Selected returns the selected entries in rank order.
func (p *Profile) Selected() []Entry {
	out := make([]Entry, 0, len(p.Entries))
	for _, e := range p.Entries {
		if e.Selected {
			out = append(out, e)
		}
	}
	return out
}

// NumSelected counts the selected entries without copying them.
func (p *Profile) NumSelected() int {
	n := 0
	for i := range p.Entries {
		if p.Entries[i].Selected {
			n++
		}
	}
	return n
}

// BuildProfile profiles program pr over the windows plan samples from its
// execution under seed and returns the CritIC profile under cfg. Each window
// streams through chain extraction one cfg.ChunkSize chunk at a time as it is
// generated, so memory is O(chunk) whatever the plan; chunks are extracted
// and aggregated serially in stream order, which fixes the float
// accumulation order of every fanout sum.
func BuildProfile(pr *prog.Program, seed int64, plan trace.SamplePlan, cfg Config) *Profile {
	if cfg.MaxLen <= 0 || cfg.MaxLen > MaxChainLen {
		cfg.MaxLen = MaxChainLen
	}
	if cfg.MinLen < 2 {
		cfg.MinLen = 2
	}
	if cfg.ChunkSize <= 0 {
		cfg.ChunkSize = dfg.DefaultOptions().ChunkSize
	}
	type acc struct {
		count     int64
		fanoutSum float64
	}
	agg := make(map[ChainKey]*acc)
	var totalDyn int64

	opt := dfg.Options{
		ChunkSize:    cfg.ChunkSize,
		FanoutWindow: cfg.FanoutWindow,
		SameBlock:    true,
		MaxLen:       cfg.MaxLen,
		MinLen:       cfg.MinLen,
	}
	// Source chunks are exactly cfg.ChunkSize long, so each one is a single
	// extraction chunk: the boundaries Extract would cut a whole window at.
	trace.Sample(pr, seed, plan, cfg.ChunkSize, func(src trace.Source) {
		for dyns := src.NextChunk(); len(dyns) > 0; dyns = src.NextChunk() {
			totalDyn += int64(len(dyns))
			chains := dfg.Extract(dyns, opt)
			for i := range chains {
				c := &chains[i]
				if c.AvgFanout() < cfg.AvgFanoutThreshold {
					continue
				}
				key, ok := keyOf(dyns, c)
				if !ok {
					continue
				}
				a := agg[key]
				if a == nil {
					a = &acc{}
					agg[key] = a
				}
				a.count++
				a.fanoutSum += c.AvgFanout()
			}
		}
	})

	p := &Profile{App: pr.Name, TotalDyn: totalDyn}
	for key, a := range agg {
		e := Entry{
			Key:       key,
			Length:    int(key.N),
			DynCount:  a.count,
			AvgFanout: a.fanoutSum / float64(a.count),
			ThumbOK:   ChainThumbOK(pr, key),
		}
		p.Entries = append(p.Entries, e)
	}
	p.Rank()
	selectEntries(p, cfg)
	return p
}

// Rank sorts the entries by dynamic coverage, ties broken deterministically
// by key — the order selection walks. BuildProfile ranks automatically;
// callers assembling a Profile from external data (e.g. a fleet consensus
// sketch) rank before Select.
func (p *Profile) Rank() {
	sort.Slice(p.Entries, func(i, j int) bool {
		a, b := &p.Entries[i], &p.Entries[j]
		if ai, bi := a.DynInstrs(), b.DynInstrs(); ai != bi {
			return ai > bi
		}
		return LessKey(a.Key, b.Key)
	})
}

// Select re-runs CritIC selection over already-ranked entries under cfg,
// clearing any previous selection first. BuildProfile selects automatically;
// this entry point lets callers re-select an existing profile under a
// different policy (candidate generations of the fleet optimizer).
func (p *Profile) Select(cfg Config) {
	for i := range p.Entries {
		p.Entries[i].Selected = false
	}
	p.SelectedCoverage = 0
	selectEntries(p, cfg)
}

// keyOf maps a dynamic chain to its static key. Returns ok=false if the
// chain exceeds the key capacity (block index or position out of range).
func keyOf(dyns []trace.Dyn, c *dfg.Chain) (ChainKey, bool) {
	first := dyns[c.Members[0]]
	var k ChainKey
	if first.ID.Func > 0xFFFF || first.ID.Block > 0xFFFF {
		return k, false
	}
	k.Func = uint16(first.ID.Func)
	k.Block = uint16(first.ID.Block)
	if len(c.Members) > MaxChainLen {
		return k, false
	}
	k.N = uint8(len(c.Members))
	for i, m := range c.Members {
		idx := dyns[m].ID.Index
		if idx > 255 {
			return k, false
		}
		k.Idx[i] = uint8(idx)
	}
	return k, true
}

// LessKey is a deterministic total order on keys — the canonical order of
// every serialized key list (profile JSON entries keep rank order; sketch
// wire forms sort by it).
func LessKey(a, b ChainKey) bool {
	if a.Func != b.Func {
		return a.Func < b.Func
	}
	if a.Block != b.Block {
		return a.Block < b.Block
	}
	if a.N != b.N {
		return a.N < b.N
	}
	for i := uint8(0); i < a.N; i++ {
		if a.Idx[i] != b.Idx[i] {
			return a.Idx[i] < b.Idx[i]
		}
	}
	return false
}

// ChainThumbOK applies the all-or-nothing rule: every member must be
// emittable as a single T16 halfword (footnote 1 of the paper).
func ChainThumbOK(pr *prog.Program, k ChainKey) bool {
	for i := uint8(0); i < k.N; i++ {
		in := pr.At(prog.InstID{Func: int(k.Func), Block: int(k.Block), Index: int(k.Idx[i])})
		if !encoding.Representable(in.Inst) {
			return false
		}
	}
	return true
}

// selectEntries marks the selected subset: greedy by rank, skipping chains
// that share static instructions with already-selected chains (the compiler
// can hoist each instruction into at most one chain), honoring the coverage
// target, entry cap and the all-or-nothing rule when required.
func selectEntries(p *Profile, cfg Config) {
	used := make(map[[3]uint16]bool) // (func, block, index)
	var covered int64
	selected := 0
	for i := range p.Entries {
		e := &p.Entries[i]
		if cfg.RequireThumb && !e.ThumbOK {
			continue
		}
		if cfg.MaxEntries > 0 && selected >= cfg.MaxEntries {
			break
		}
		if cfg.CoverageTarget > 0 && p.TotalDyn > 0 &&
			float64(covered)/float64(p.TotalDyn) >= cfg.CoverageTarget {
			break
		}
		overlap := false
		for j := uint8(0); j < e.Key.N; j++ {
			if used[[3]uint16{e.Key.Func, e.Key.Block, uint16(e.Key.Idx[j])}] {
				overlap = true
				break
			}
		}
		if overlap {
			continue
		}
		for j := uint8(0); j < e.Key.N; j++ {
			used[[3]uint16{e.Key.Func, e.Key.Block, uint16(e.Key.Idx[j])}] = true
		}
		e.Selected = true
		selected++
		covered += e.DynInstrs()
	}
	if p.TotalDyn > 0 {
		p.SelectedCoverage = float64(covered) / float64(p.TotalDyn)
	}
}

// CoverageCDF returns the Fig. 5b curves: cumulative dynamic coverage as a
// function of the number of unique chains, over all candidates and over the
// 16-bit-representable subset. Entries must already be ranked (BuildProfile
// ranks them).
func (p *Profile) CoverageCDF() (all, thumbOnly *stats.CDF) {
	all, thumbOnly = &stats.CDF{}, &stats.CDF{}
	rankAll, rankThumb := 0, 0
	for i := range p.Entries {
		e := &p.Entries[i]
		w := float64(e.DynInstrs())
		rankAll++
		all.Add(float64(rankAll), w)
		if e.ThumbOK {
			rankThumb++
			thumbOnly.Add(float64(rankThumb), w)
		}
	}
	return all, thumbOnly
}

// ThumbRepresentableFrac returns the fraction of candidate chains passing
// the all-or-nothing rule (paper: ~95.5% of unique CritIC sequences).
func (p *Profile) ThumbRepresentableFrac() float64 {
	if len(p.Entries) == 0 {
		return 0
	}
	ok := 0
	for i := range p.Entries {
		if p.Entries[i].ThumbOK {
			ok++
		}
	}
	return float64(ok) / float64(len(p.Entries))
}

// UniqueChains returns the number of distinct chain candidates (Fig. 5b's
// x-axis scale observation: large, ruling out per-chain ISA mnemonics).
func (p *Profile) UniqueChains() int { return len(p.Entries) }

// MarshalJSON/UnmarshalJSON give the profile a stable on-disk format for
// cmd/criticprof.
type profileJSON struct {
	App              string      `json:"app"`
	TotalDyn         int64       `json:"total_dyn"`
	SelectedCoverage float64     `json:"selected_coverage"`
	Entries          []entryJSON `json:"entries"`
}

type entryJSON struct {
	Func      uint16  `json:"func"`
	Block     uint16  `json:"block"`
	Idx       []uint8 `json:"idx"`
	DynCount  int64   `json:"dyn_count"`
	AvgFanout float64 `json:"avg_fanout"`
	ThumbOK   bool    `json:"thumb_ok"`
	Selected  bool    `json:"selected"`
}

// MarshalJSON implements json.Marshaler.
func (p *Profile) MarshalJSON() ([]byte, error) {
	out := profileJSON{App: p.App, TotalDyn: p.TotalDyn, SelectedCoverage: p.SelectedCoverage}
	for i := range p.Entries {
		e := &p.Entries[i]
		out.Entries = append(out.Entries, entryJSON{
			Func:      e.Key.Func,
			Block:     e.Key.Block,
			Idx:       append([]uint8(nil), e.Key.Idx[:e.Key.N]...),
			DynCount:  e.DynCount,
			AvgFanout: e.AvgFanout,
			ThumbOK:   e.ThumbOK,
			Selected:  e.Selected,
		})
	}
	return json.Marshal(out)
}

// UnmarshalJSON implements json.Unmarshaler.
func (p *Profile) UnmarshalJSON(data []byte) error {
	var in profileJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return err
	}
	p.App = in.App
	p.TotalDyn = in.TotalDyn
	p.SelectedCoverage = in.SelectedCoverage
	p.Entries = p.Entries[:0]
	for _, ej := range in.Entries {
		if len(ej.Idx) > MaxChainLen {
			return fmt.Errorf("core: chain longer than %d in profile", MaxChainLen)
		}
		e := Entry{
			Key:       ChainKey{Func: ej.Func, Block: ej.Block, N: uint8(len(ej.Idx))},
			Length:    len(ej.Idx),
			DynCount:  ej.DynCount,
			AvgFanout: ej.AvgFanout,
			ThumbOK:   ej.ThumbOK,
			Selected:  ej.Selected,
		}
		copy(e.Key.Idx[:], ej.Idx)
		p.Entries = append(p.Entries, e)
	}
	return nil
}
