// Package scan is the source-free binary scanning service: it scores missed
// CritIC opportunities directly from an uploaded binary image plus an
// address trace, with no access to the program that produced them — the
// setting of the compiler-optimization impact-analysis line of PAPERS.md.
//
// Pipeline: the image streams through binimg's format-state-machine decoder
// into a dense address index (BuildIndex): one slot per image halfword,
// allocated once from the image size at 10 bytes per image byte, while the
// image itself is never buffered. An index is a pure function of the image
// bytes, which the image digest names, so an IndexCache builds it once per
// digest — criticd's coordinator and its dist workers each keep one. The
// trace is a chunked delta-varint address stream (tracefile.go); each trace
// chunk is scored independently (ScoreChunk) by synthesizing a dynamic
// dependence stream from the static operands — last-writer-per-register
// (and CC) tracking, reset at chunk boundaries — and running the same dfg
// fanout/chain extraction, under the same criteria (dfg.DefaultOptions), the
// source-level profiler uses, with chains capped at the CritIC pass's
// length of 5. Chains that are high-fanout, entirely 32-bit and
// Thumb-representable are missed CritICs: opportunities the CritIC pass
// would have converted had it seen the source. A scan has no knobs, so its
// estimate can be compared with the profiler's selection.
//
// Determinism contract: chunk scoring depends only on (image, chunk
// addresses) — producer tracking resets per chunk, matching dfg's
// in-chunk-only linking — and the merged report orders and scores with
// integer-only arithmetic. A scan dispatched chunk-wise across a fleet is
// therefore byte-identical to the same scan computed locally, which CI
// asserts.
package scan

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"sort"
	"unsafe"

	"critics/internal/binimg"
	"critics/internal/core"
	"critics/internal/dfg"
	"critics/internal/isa"
	"critics/internal/trace"
)

// DefaultChunk is the trace chunk length in dynamic instructions, the dfg
// default analysis window: the unit of trace chunking, of chunk scoring and
// of fleet dispatch.
const DefaultChunk = 1024

// ent is one statically decoded instruction. The zero ent (size 0) is an
// index slot no instruction starts at.
type ent struct {
	inst  isa.Inst
	size  uint8
	thumb bool
	isCDP bool
	cdpN  uint8
}

// Index is the address-indexed static view of a decoded image: one slot per
// image halfword, slot addr>>1, since every instruction and CDP command
// starts on a halfword boundary. A 20-byte slot per halfword makes the index
// 10 bytes per image byte, allocated once from the image size.
type Index struct {
	ents []ent

	// Instrs counts decoded instructions (CDP commands included);
	// ThumbInstrs and CDPs break that down.
	Instrs      int
	ThumbInstrs int
	CDPs        int
}

// lookup returns the instruction starting at addr. Odd addresses, slots no
// instruction starts at (padding, the second halfword of an A32 word) and
// addresses at or past the image end are unknown.
func (idx *Index) lookup(addr uint32) (ent, bool) {
	i := int(addr >> 1)
	if addr&1 != 0 || i >= len(idx.ents) {
		return ent{}, false
	}
	e := idx.ents[i]
	return e, e.size != 0
}

// footprint is the index's memory size: its retention cost in an
// IndexCache.
func (idx *Index) footprint() int64 {
	return int64(len(idx.ents)) * int64(unsafe.Sizeof(ent{}))
}

// BuildIndex streams an image of size bytes through the binary decoder into
// an address-indexed instruction table. The image is consumed, never
// buffered; the table is allocated once, from size. An image that streams
// more than size bytes is a decode error, one that streams fewer leaves its
// missing tail unknown.
func BuildIndex(img io.Reader, size int64) (*Index, error) {
	if size < 0 || size >= math.MaxUint32 {
		return nil, fmt.Errorf("scan: image size %d outside [0, 4 GiB)", size)
	}
	idx := &Index{ents: make([]ent, (size+1)/2)}
	// One byte past size is enough to tell an overlong stream; the limit
	// keeps every decoded address inside the table.
	dec := binimg.NewDecoder(io.LimitReader(img, size+1))
	for {
		d, err := dec.Next()
		if err == io.EOF {
			if int64(dec.Offset()) > size {
				return nil, fmt.Errorf("scan: decoding image: longer than its declared %d bytes", size)
			}
			return idx, nil
		}
		if err != nil {
			return nil, fmt.Errorf("scan: decoding image: %w", err)
		}
		width := uint8(4)
		if d.Thumb {
			width = 2
		}
		idx.ents[d.Addr>>1] = ent{inst: d.Inst, size: width, thumb: d.Thumb, isCDP: d.IsCDP, cdpN: uint8(d.CDPCount)}
		idx.Instrs++
		if d.Thumb {
			idx.ThumbInstrs++
		}
		if d.IsCDP {
			idx.CDPs++
		}
	}
}

// ccReg is the condition-flags slot in the last-writer table.
const ccReg = int(isa.ThumbMaxReg) + 7 // one past the architectural registers

// ScoreChunk scores one trace chunk against the image index: it synthesizes
// the chunk's dynamic dependence stream, extracts chains with the profiler's
// dfg machinery and criteria (dfg.DefaultOptions: fanout over a 128-
// instruction window, average fanout of at least 8, chains of two or more)
// over the chunk as one window, caps them at the CritIC pass's length
// (core.DefaultConfig's 5), and keeps the chains a CritIC conversion would
// have paid off on.
func ScoreChunk(idx *Index, chunkIndex int, addrs []uint32) ChunkResult {
	res := ChunkResult{Chunk: chunkIndex}
	dyns, insts, statics := synthesize(idx, addrs, &res)
	res.Instrs = len(dyns)
	if len(dyns) == 0 {
		return res
	}

	opt := dfg.DefaultOptions()
	opt.ChunkSize = len(dyns) // one extraction window: the trace chunk
	opt.MaxLen = core.DefaultConfig().MaxLen
	chains := dfg.Extract(dyns, opt)
	for ci := range chains {
		c := &chains[ci]
		if op, ok := qualify(c, dyns, insts, statics, opt.HighFanout); ok {
			op.Chunk = chunkIndex
			res.Opportunities = append(res.Opportunities, op)
		}
	}
	return res
}

// synthesize decodes a trace chunk into dynamic instructions whose
// producers are the last in-chunk writers of their source registers and
// flags (a BL writes LR). An address the static decode never produced (JIT
// region, desynced trace, adversarial input) is counted and skipped.
func synthesize(idx *Index, addrs []uint32, res *ChunkResult) (dyns []trace.Dyn, insts []isa.Inst, statics []ent) {
	dyns = make([]trace.Dyn, 0, len(addrs))
	insts = make([]isa.Inst, 0, len(addrs))
	statics = make([]ent, 0, len(addrs))

	// last[r] is the synthesized Seq of register r's last writer (-1 = no
	// in-chunk writer); last[ccReg] tracks the condition flags.
	var last [ccReg + 1]int64
	for i := range last {
		last[i] = -1
	}
	var srcBuf [4]isa.Reg

	for _, a := range addrs {
		e, ok := idx.lookup(a)
		if !ok {
			res.Unknown++
			continue
		}
		seq := int64(len(dyns))
		d := trace.Dyn{
			Seq:   seq,
			Addr:  a,
			Op:    e.inst.Op,
			Class: e.inst.Op.ClassOf(),
			Size:  e.size,
			Thumb: e.thumb,
			IsCDP: e.isCDP,
		}
		res.FetchBytes += int64(e.size)
		if e.isCDP {
			d.CDPCount = e.cdpN
		} else {
			for _, r := range e.inst.Sources(srcBuf[:0]) {
				if p := last[int(r)]; p >= 0 && d.NProd < 4 {
					d.Prod[d.NProd] = p
					d.NProd++
				}
			}
			if e.inst.ReadsCC() {
				if p := last[ccReg]; p >= 0 && d.NProd < 4 {
					d.Prod[d.NProd] = p
					d.NProd++
				}
			}
			if rd := e.inst.Dest(); rd != isa.NoReg {
				last[int(rd)] = seq
			}
			if e.inst.Op == isa.OpBL {
				last[isa.LR] = seq
			}
			if e.inst.WritesCC() {
				last[ccReg] = seq
			}
		}
		dyns = append(dyns, d)
		insts = append(insts, e.inst)
		statics = append(statics, e)
	}
	return dyns, insts, statics
}

// qualify decides whether a chain is a missed CritIC and scores it. A chain
// qualifies when its average fanout meets the threshold and every member is
// a 32-bit, non-control, Thumb-representable instruction — the all-or-
// nothing condition under which the CritIC pass could have hoisted it behind
// one CDP-covered 16-bit run. (Without source we cannot check basic-block
// membership; chain locality under the length cap approximates it, which
// the report labels an estimate.)
func qualify(c *dfg.Chain, dyns []trace.Dyn, insts []isa.Inst, statics []ent, highFanout int32) (Opportunity, bool) {
	n := int64(len(c.Members))
	if n == 0 {
		return Opportunity{}, false
	}
	avgMilli := c.SumFanout * 1000 / n
	if avgMilli < int64(highFanout)*1000 {
		return Opportunity{}, false
	}
	for _, m := range c.Members {
		e, in := statics[m], insts[m]
		if e.thumb || e.isCDP || in.Op.IsControl() || !in.ThumbRepresentable() {
			return Opportunity{}, false
		}
	}
	// Converting n A32 members to T16 saves 2 bytes each, minus one 2-byte
	// CDP command per covered run of CDPMaxRun.
	cdps := (n + isa.CDPMaxRun - 1) / isa.CDPMaxRun
	saved := 2*n - 2*cdps
	if saved <= 0 {
		return Opportunity{}, false
	}
	return Opportunity{
		HeadAddr:       dyns[c.Members[0]].Addr,
		Len:            int(n),
		AvgFanoutMilli: avgMilli,
		SumFanout:      c.SumFanout,
		SavedBytes:     saved,
	}, true
}

// Run scores a whole scan in process: index the image, then score every
// trace chunk in order and merge — criticctl's -local mode. criticd instead
// takes the index from its IndexCache and scores chunk batches with
// ScoreSelected, locally or on the fleet; both paths score each chunk with
// ScoreChunk and merge with Merge, so their reports are byte-identical.
func Run(img []byte, trc io.Reader, imageDigest, traceDigest string) (*Report, error) {
	idx, err := BuildIndex(bytes.NewReader(img), int64(len(img)))
	if err != nil {
		return nil, err
	}
	tr, err := NewTraceReader(trc)
	if err != nil {
		return nil, err
	}
	var results []ChunkResult
	for {
		ci, addrs, err := tr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		results = append(results, ScoreChunk(idx, ci, addrs))
	}
	return Merge(imageDigest, traceDigest, idx, results), nil
}

// ScoreSelected scores only the named trace chunks against an already-built
// index — the batch primitive behind distributed scans (a dist worker scores
// its batch, the coordinator-side fallback scores a failed batch) — and
// returns them ordered by chunk index. Chunk scoring is position-independent,
// so the union of any partition of chunks merges into the same report Run
// produces.
func ScoreSelected(idx *Index, trc io.Reader, chunks []int) ([]ChunkResult, error) {
	want := make(map[int]bool, len(chunks))
	for _, c := range chunks {
		want[c] = true
	}
	tr, err := NewTraceReader(trc)
	if err != nil {
		return nil, err
	}
	results := make([]ChunkResult, 0, len(want))
	for len(results) < len(want) {
		ci, addrs, err := tr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		if !want[ci] {
			continue
		}
		results = append(results, ScoreChunk(idx, ci, addrs))
	}
	sort.Slice(results, func(i, j int) bool { return results[i].Chunk < results[j].Chunk })
	return results, nil
}
