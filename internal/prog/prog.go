// Package prog defines the static program representation the rest of the
// system operates on: functions made of basic blocks made of instructions,
// with control-flow annotations rich enough to drive trace generation
// (branch biases, call targets) and layout annotations rich enough to drive
// the fetch model (byte addresses, 32-bit vs 16-bit emission, CDP prefixes).
//
// The compiler passes in internal/compiler transform Programs; the trace
// layer in internal/trace executes them; the profiler in internal/core maps
// dynamic chains back onto InstIDs defined here.
package prog

import (
	"fmt"

	"critics/internal/encoding"
	"critics/internal/isa"
)

// BlockEnd describes how control leaves a basic block.
type BlockEnd uint8

// Block terminator kinds.
const (
	EndFallthrough BlockEnd = iota // continue to Next
	EndJump                        // unconditional branch to Taken
	EndCondBranch                  // conditional branch: Taken with TakenProb, else Next
	EndCall                        // call Callee, then continue to Next
	EndReturn                      // return to caller
)

// String implements fmt.Stringer for BlockEnd.
func (e BlockEnd) String() string {
	switch e {
	case EndFallthrough:
		return "fallthrough"
	case EndJump:
		return "jump"
	case EndCondBranch:
		return "cond-branch"
	case EndCall:
		return "call"
	case EndReturn:
		return "return"
	default:
		return "unknown"
	}
}

// Instr is one static instruction plus the layout and behavioural metadata
// the simulator and trace generator need.
type Instr struct {
	isa.Inst

	// Layout, assigned by Program.Layout.
	Addr uint32 // byte address of the encoding
	// Emission mode, set by compiler passes.
	Thumb    bool // emitted in the 16-bit format
	Expanded bool // Thumb emission needs two halfwords (OPP16/Compress only)
	CDPCount int  // for OpCDP: how many following T16 instructions it covers

	// Memory behaviour for loads/stores, consumed by the trace layer.
	MemRegion int   // data region index within the program
	MemStride int32 // address stride per dynamic execution (0 = random in region)

	// ChainID tags instructions that belong to a hoisted CritIC; 0 means
	// none. Set by the compiler for bookkeeping and assertions.
	ChainID int

	// UID is a program-wide stable identity assigned at generation time
	// and preserved by compiler transforms (clones copy it; inserted
	// CDP/switch instructions carry UID 0). The trace layer keys its
	// per-instruction random draws by UID, so baseline and transformed
	// programs see identical control flow and addresses for corresponding
	// instructions.
	UID uint32

	// ModeSwitch marks the always-taken-to-next-instruction branches the
	// "Approach 1" format switch inserts around a converted chain
	// (§IV-A). They are architecturally branches (they occupy fetch and
	// execute resources and end fetch groups) but never change the CFG,
	// so they may appear mid-block.
	ModeSwitch bool
}

// Size returns the encoded size of the instruction in bytes.
func (in *Instr) Size() int {
	if !in.Thumb {
		return encoding.SizeA32
	}
	if in.Expanded {
		return 2 * encoding.SizeT16
	}
	return encoding.SizeT16
}

// InstID names a static instruction position within a program.
type InstID struct {
	Func  int
	Block int
	Index int
}

// String implements fmt.Stringer for InstID.
func (id InstID) String() string {
	return fmt.Sprintf("f%d.b%d.i%d", id.Func, id.Block, id.Index)
}

// Block is a basic block: straight-line instructions plus a terminator
// annotation. The terminating control instruction (branch/call/return), when
// present, is the last element of Instrs.
type Block struct {
	ID     int // index within the function
	Instrs []Instr

	End       BlockEnd
	Next      int     // fallthrough successor block id (EndFallthrough, EndCondBranch, EndCall)
	Taken     int     // branch target block id (EndJump, EndCondBranch)
	Callee    int     // callee function id (EndCall)
	TakenProb float64 // probability the conditional branch is taken
}

// Func is a function: blocks[0] is the entry block.
type Func struct {
	ID     int
	Name   string
	Blocks []*Block
}

// Program is a whole static program.
type Program struct {
	Name  string
	Funcs []*Func

	// Entry is the function id execution starts at.
	Entry int

	// NumMemRegions is the number of distinct data regions instructions
	// refer to via Instr.MemRegion; the trace layer sizes its address
	// space from this and RegionBytes.
	NumMemRegions int
	// RegionBytes[i] is the size of data region i in bytes.
	RegionBytes []uint32

	// CodeBytes is the total laid-out code size; valid after Layout.
	CodeBytes uint32
	laidOut   bool
	// maxUID is the largest instruction UID, recorded by Layout (which
	// walks every instruction anyway) and AssignUIDs, so MaxUID need not
	// walk them again.
	maxUID uint32
}

// At returns the instruction named by id.
func (p *Program) At(id InstID) *Instr {
	return &p.Funcs[id.Func].Blocks[id.Block].Instrs[id.Index]
}

// MaxUID returns the largest instruction UID in the program: the value
// Layout recorded once the program is laid out, a fresh walk otherwise.
func (p *Program) MaxUID() uint32 {
	if p.laidOut {
		return p.maxUID
	}
	var m uint32
	for _, f := range p.Funcs {
		for _, b := range f.Blocks {
			for i := range b.Instrs {
				if b.Instrs[i].UID > m {
					m = b.Instrs[i].UID
				}
			}
		}
	}
	return m
}

// AssignUIDs gives every instruction a distinct UID (1-based) in program
// order. Generators call it once, before any transform.
func (p *Program) AssignUIDs() {
	var next uint32 = 1
	for _, f := range p.Funcs {
		for _, b := range f.Blocks {
			for i := range b.Instrs {
				b.Instrs[i].UID = next
				next++
			}
		}
	}
	p.maxUID = next - 1
}

// NumInstrs returns the static instruction count.
func (p *Program) NumInstrs() int {
	n := 0
	for _, f := range p.Funcs {
		for _, b := range f.Blocks {
			n += len(b.Instrs)
		}
	}
	return n
}

// Clone returns a deep copy of the program. Compiler passes transform clones
// so the baseline program remains intact for A/B experiments.
func (p *Program) Clone() *Program {
	q := &Program{
		Name:          p.Name,
		Entry:         p.Entry,
		NumMemRegions: p.NumMemRegions,
		RegionBytes:   append([]uint32(nil), p.RegionBytes...),
		CodeBytes:     p.CodeBytes,
		laidOut:       p.laidOut,
		maxUID:        p.maxUID,
	}
	q.Funcs = make([]*Func, len(p.Funcs))
	for i, f := range p.Funcs {
		nf := &Func{ID: f.ID, Name: f.Name}
		nf.Blocks = make([]*Block, len(f.Blocks))
		for j, b := range f.Blocks {
			nb := *b
			nb.Instrs = append([]Instr(nil), b.Instrs...)
			nf.Blocks[j] = &nb
		}
		q.Funcs[i] = nf
	}
	return q
}

// Layout assigns byte addresses to every instruction and computes CodeBytes.
//
// Rules (mirroring the paper's Fig. 9 layout): 32-bit instructions are
// 4-byte aligned. A CDP command occupies the first halfword of a 32-bit
// word; the T16 instructions it covers follow back-to-back. When a Thumb run
// ends at a halfword boundary, a 2-byte pad keeps the following 32-bit
// instruction aligned (the pad is dead bytes the fetch stage still brings
// in, so Thumb only pays off for runs long enough — exactly the trade-off
// the paper discusses for short chains).
func (p *Program) Layout() { p.LayoutOrder(nil) }

// LayoutOrder is Layout with an explicit function emission order: order is a
// permutation of function ids, and addresses are assigned walking functions
// in that sequence. The Funcs slice itself never moves (Validate pins
// Func.ID == index, and profiles key chains by function index), so a
// layout pass changes only where code lands, not what executes — trace
// randomness keys on instruction UIDs, which relayout preserves. nil means
// program order, which is exactly Layout. A malformed order (wrong length,
// repeated id) is a programming error and panics; internal/layout validates
// and returns errors upstream.
func (p *Program) LayoutOrder(order []int) {
	if order != nil {
		if len(order) != len(p.Funcs) {
			panic(fmt.Sprintf("prog: layout order has %d entries for %d functions", len(order), len(p.Funcs)))
		}
		seen := make([]bool, len(p.Funcs))
		for _, fi := range order {
			if fi < 0 || fi >= len(p.Funcs) || seen[fi] {
				panic(fmt.Sprintf("prog: layout order is not a permutation (function %d)", fi))
			}
			seen[fi] = true
		}
	}
	var addr, maxUID uint32
	for i := range p.Funcs {
		f := p.Funcs[i]
		if order != nil {
			f = p.Funcs[order[i]]
		}
		// Functions start 64-byte aligned (cache-line aligned), which
		// models the ART compiler's method alignment and gives the
		// i-cache deterministic line populations.
		addr = align(addr, 64)
		for _, b := range f.Blocks {
			for i := range b.Instrs {
				in := &b.Instrs[i]
				if !in.Thumb {
					addr = align(addr, 4)
				}
				in.Addr = addr
				addr += uint32(in.Size())
				maxUID = max(maxUID, in.UID)
			}
		}
	}
	p.CodeBytes = align(addr, 64)
	p.maxUID = maxUID
	p.laidOut = true
}

// LaidOut reports whether Layout has run since the last structural change
// the caller knows about. (Callers are expected to call Layout after
// transforming a program.)
func (p *Program) LaidOut() bool { return p.laidOut }

func align(a, to uint32) uint32 {
	rem := a % to
	if rem == 0 {
		return a
	}
	return a + to - rem
}

// Validate checks structural invariants and returns the first violation. It
// is used by tests and by the compiler's post-pass verifier.
func (p *Program) Validate() error {
	if len(p.Funcs) == 0 {
		return fmt.Errorf("prog: no functions")
	}
	if p.Entry < 0 || p.Entry >= len(p.Funcs) {
		return fmt.Errorf("prog: entry %d out of range", p.Entry)
	}
	if len(p.RegionBytes) != p.NumMemRegions {
		return fmt.Errorf("prog: RegionBytes has %d entries for %d regions", len(p.RegionBytes), p.NumMemRegions)
	}
	for fi, f := range p.Funcs {
		if f.ID != fi {
			return fmt.Errorf("prog: func %d has ID %d", fi, f.ID)
		}
		if len(f.Blocks) == 0 {
			return fmt.Errorf("prog: func %s has no blocks", f.Name)
		}
		for bi, b := range f.Blocks {
			if b.ID != bi {
				return fmt.Errorf("prog: %s block %d has ID %d", f.Name, bi, b.ID)
			}
			if err := p.validateBlock(f, b); err != nil {
				return err
			}
		}
	}
	return nil
}

func (p *Program) validateBlock(f *Func, b *Block) error {
	where := fmt.Sprintf("prog: %s.b%d", f.Name, b.ID)
	switch b.End {
	case EndFallthrough:
		if b.Next < 0 || b.Next >= len(f.Blocks) {
			return fmt.Errorf("%s: fallthrough to bad block %d", where, b.Next)
		}
	case EndJump:
		if b.Taken < 0 || b.Taken >= len(f.Blocks) {
			return fmt.Errorf("%s: jump to bad block %d", where, b.Taken)
		}
	case EndCondBranch:
		if b.Taken < 0 || b.Taken >= len(f.Blocks) || b.Next < 0 || b.Next >= len(f.Blocks) {
			return fmt.Errorf("%s: cond branch targets out of range", where)
		}
		if b.TakenProb < 0 || b.TakenProb > 1 {
			return fmt.Errorf("%s: taken probability %f out of range", where, b.TakenProb)
		}
	case EndCall:
		if b.Callee < 0 || b.Callee >= len(p.Funcs) {
			return fmt.Errorf("%s: call to bad function %d", where, b.Callee)
		}
		if b.Next < 0 || b.Next >= len(f.Blocks) {
			return fmt.Errorf("%s: call continuation block %d out of range", where, b.Next)
		}
	case EndReturn:
	default:
		return fmt.Errorf("%s: unknown terminator %d", where, b.End)
	}
	// Terminator instruction consistency.
	n := len(b.Instrs)
	if n > 0 {
		last := b.Instrs[n-1]
		switch b.End {
		case EndJump, EndCondBranch:
			if last.Op != isa.OpB {
				return fmt.Errorf("%s: %v terminator but last instr is %v", where, b.End, last.Op)
			}
			if b.End == EndCondBranch && last.Cond == isa.CondAL {
				return fmt.Errorf("%s: conditional terminator with unconditional branch", where)
			}
		case EndCall:
			if last.Op != isa.OpBL {
				return fmt.Errorf("%s: call terminator but last instr is %v", where, last.Op)
			}
		case EndReturn:
			if last.Op != isa.OpBX {
				return fmt.Errorf("%s: return terminator but last instr is %v", where, last.Op)
			}
		}
	}
	for i := range b.Instrs {
		in := &b.Instrs[i]
		if in.Op.IsControl() && i != n-1 && !in.ModeSwitch {
			return fmt.Errorf("%s: control instruction %v at non-terminal position %d", where, in.Op, i)
		}
		if in.ModeSwitch && in.Op != isa.OpB {
			return fmt.Errorf("%s.i%d: mode-switch marker on %v", where, i, in.Op)
		}
		if in.Op.IsMem() {
			if in.MemRegion < 0 || in.MemRegion >= p.NumMemRegions {
				return fmt.Errorf("%s.i%d: memory region %d out of range", where, i, in.MemRegion)
			}
		}
		if in.Op == isa.OpCDP && (in.CDPCount < 1 || in.CDPCount > isa.CDPMaxRun) {
			return fmt.Errorf("%s.i%d: CDP count %d out of range", where, i, in.CDPCount)
		}
	}
	return nil
}

// ccReg is the pseudo-register index used for condition flags in dependence
// analysis. Register indices 0..15 are architected; 16 is CC.
const ccReg = int(isa.NumRegs)

// numDepRegs is the size of the dependence-tracking register space.
const numDepRegs = ccReg + 1

// depSets returns the registers read and written by an instruction in the
// dependence-tracking space (architected registers + CC).
func depSets(in *Instr) (reads, writes []int) {
	var srcs [4]isa.Reg
	for _, r := range in.Sources(srcs[:0]) {
		if r < isa.NumRegs {
			reads = append(reads, int(r))
		}
	}
	if in.ReadsCC() {
		reads = append(reads, ccReg)
	}
	if d := in.Dest(); d != isa.NoReg && d < isa.NumRegs {
		writes = append(writes, int(d))
	}
	if in.WritesCC() {
		writes = append(writes, ccReg)
	}
	return reads, writes
}

// ReorderLegal reports whether reordering the instructions of b according to
// perm (perm[i] = original index of the instruction now at position i)
// preserves all dependences:
//
//   - true (read-after-write), anti (write-after-read) and output
//     (write-after-write) register and CC dependences,
//   - program order among memory operations that may alias (conservatively:
//     any store orders against all other memory ops in the same region;
//     loads may reorder freely with loads),
//   - the terminator stays terminal.
//
// The CritIC hoisting pass uses this as its legality oracle.
func ReorderLegal(b *Block, perm []int) bool {
	n := len(b.Instrs)
	if len(perm) != n {
		return false
	}
	seen := make([]bool, n)
	for _, o := range perm {
		if o < 0 || o >= n || seen[o] {
			return false
		}
		seen[o] = true
	}
	// Terminator must remain last.
	if n > 0 && b.Instrs[n-1].Op.IsControl() && perm[n-1] != n-1 {
		return false
	}
	// newPos[original index] = new position.
	newPos := make([]int, n)
	for np, o := range perm {
		newPos[o] = np
	}
	// Pairwise dependence check: for every ordered pair (i, j) with i < j
	// in the original program that carries a dependence, require
	// newPos[i] < newPos[j]. O(n^2) on block sizes (tens) is fine.
	for j := 1; j < n; j++ {
		rj, wj := depSets(&b.Instrs[j])
		for i := 0; i < j; i++ {
			ri, wi := depSets(&b.Instrs[i])
			if dependsRegs(ri, wi, rj, wj) || dependsMem(&b.Instrs[i], &b.Instrs[j]) {
				if newPos[i] >= newPos[j] {
					return false
				}
			}
		}
	}
	return true
}

// dependsRegs reports a RAW, WAR or WAW register dependence between an
// earlier instruction (reads ri, writes wi) and a later one (rj, wj).
func dependsRegs(ri, wi, rj, wj []int) bool {
	for _, w := range wi {
		for _, r := range rj {
			if w == r {
				return true // RAW
			}
		}
		for _, w2 := range wj {
			if w == w2 {
				return true // WAW
			}
		}
	}
	for _, r := range ri {
		for _, w := range wj {
			if r == w {
				return true // WAR
			}
		}
	}
	return false
}

// dependsMem conservatively orders memory operations: a store orders against
// every other memory operation in the same region; loads commute.
func dependsMem(a, b *Instr) bool {
	if !a.Op.IsMem() || !b.Op.IsMem() {
		return false
	}
	aStore := !a.Op.HasDst()
	bStore := !b.Op.HasDst()
	if !aStore && !bStore {
		return false
	}
	return a.MemRegion == b.MemRegion
}

// ApplyReorder permutes b.Instrs according to perm (perm[i] = original index
// of the instruction now at position i). Callers should have checked
// ReorderLegal first.
func ApplyReorder(b *Block, perm []int) {
	out := make([]Instr, len(perm))
	for np, o := range perm {
		out[np] = b.Instrs[o]
	}
	b.Instrs = out
}

// Stats summarizes a program for reports and tests.
type Stats struct {
	Funcs        int
	Blocks       int
	Instrs       int
	ThumbInstrs  int
	CDPs         int
	CodeBytes    uint32
	ThumbPercent float64
}

// ComputeStats returns summary statistics; Layout must have run.
func (p *Program) ComputeStats() Stats {
	var s Stats
	s.Funcs = len(p.Funcs)
	for _, f := range p.Funcs {
		s.Blocks += len(f.Blocks)
		for _, b := range f.Blocks {
			for i := range b.Instrs {
				in := &b.Instrs[i]
				s.Instrs++
				if in.Op == isa.OpCDP {
					s.CDPs++
				} else if in.Thumb {
					s.ThumbInstrs++
				}
			}
		}
	}
	s.CodeBytes = p.CodeBytes
	if s.Instrs > 0 {
		s.ThumbPercent = 100 * float64(s.ThumbInstrs) / float64(s.Instrs)
	}
	return s
}
