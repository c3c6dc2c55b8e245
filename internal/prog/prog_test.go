package prog

import (
	"math/rand"
	"testing"

	"critics/internal/isa"
)

// twoFuncProgram builds a small valid program:
//
//	main: b0 (alu, call f1) -> b1 (loop body, cond back edge) -> b2 (ret)
//	f1:   b0 (alu, ret)
func twoFuncProgram() *Program {
	alu := func(op isa.Op, rd, rn, rm isa.Reg) Instr {
		return Instr{Inst: isa.Inst{Op: op, Rd: rd, Rn: rn, Rm: rm}}
	}
	load := func(rd, rn isa.Reg, region int) Instr {
		return Instr{Inst: isa.Inst{Op: isa.OpLDR, Rd: rd, Rn: rn, Rm: isa.NoReg, HasImm: true, Imm: 8}, MemRegion: region}
	}
	store := func(rm, rn isa.Reg, region int) Instr {
		return Instr{Inst: isa.Inst{Op: isa.OpSTR, Rd: isa.NoReg, Rn: rn, Rm: rm, HasImm: true, Imm: 4}, MemRegion: region}
	}
	branch := func(cond isa.Cond) Instr {
		return Instr{Inst: isa.Inst{Op: isa.OpB, Cond: cond, Rd: isa.NoReg, Rn: isa.NoReg, Rm: isa.NoReg}}
	}
	call := func() Instr {
		return Instr{Inst: isa.Inst{Op: isa.OpBL, Rd: isa.NoReg, Rn: isa.NoReg, Rm: isa.NoReg}}
	}
	ret := func() Instr {
		return Instr{Inst: isa.Inst{Op: isa.OpBX, Rd: isa.NoReg, Rn: isa.LR, Rm: isa.NoReg}}
	}

	main := &Func{ID: 0, Name: "main"}
	main.Blocks = []*Block{
		{ID: 0, Instrs: []Instr{
			alu(isa.OpMOV, isa.R0, isa.R1, isa.NoReg),
			alu(isa.OpADD, isa.R2, isa.R0, isa.R1),
			call(),
		}, End: EndCall, Callee: 1, Next: 1},
		{ID: 1, Instrs: []Instr{
			load(isa.R3, isa.R2, 0),
			alu(isa.OpADD, isa.R4, isa.R3, isa.R2),
			store(isa.R4, isa.R2, 0),
			Instr{Inst: isa.Inst{Op: isa.OpCMP, Rd: isa.NoReg, Rn: isa.R4, Rm: isa.NoReg, HasImm: true, Imm: 100}},
			branch(isa.CondNE),
		}, End: EndCondBranch, Taken: 1, Next: 2, TakenProb: 0.9},
		{ID: 2, Instrs: []Instr{ret()}, End: EndReturn},
	}
	f1 := &Func{ID: 1, Name: "helper"}
	f1.Blocks = []*Block{
		{ID: 0, Instrs: []Instr{
			alu(isa.OpSUB, isa.R5, isa.R0, isa.R1),
			ret(),
		}, End: EndReturn},
	}
	return &Program{
		Name:          "test",
		Funcs:         []*Func{main, f1},
		Entry:         0,
		NumMemRegions: 1,
		RegionBytes:   []uint32{4096},
	}
}

func TestValidateOK(t *testing.T) {
	p := twoFuncProgram()
	if err := p.Validate(); err != nil {
		t.Fatalf("valid program rejected: %v", err)
	}
}

func TestValidateCatchesBadCFG(t *testing.T) {
	p := twoFuncProgram()
	p.Funcs[0].Blocks[1].Taken = 99
	if err := p.Validate(); err == nil {
		t.Error("bad branch target not caught")
	}

	p = twoFuncProgram()
	p.Funcs[0].Blocks[0].Callee = 7
	if err := p.Validate(); err == nil {
		t.Error("bad callee not caught")
	}

	p = twoFuncProgram()
	p.Funcs[0].Blocks[1].TakenProb = 1.5
	if err := p.Validate(); err == nil {
		t.Error("bad probability not caught")
	}

	p = twoFuncProgram()
	p.Funcs[0].Blocks[1].Instrs[0].MemRegion = 3
	if err := p.Validate(); err == nil {
		t.Error("bad memory region not caught")
	}

	p = twoFuncProgram()
	// Control instruction in the middle of a block.
	b := p.Funcs[0].Blocks[1]
	b.Instrs[1] = Instr{Inst: isa.Inst{Op: isa.OpB, Rd: isa.NoReg, Rn: isa.NoReg, Rm: isa.NoReg}}
	if err := p.Validate(); err == nil {
		t.Error("mid-block control instruction not caught")
	}
}

func TestLayoutA32(t *testing.T) {
	p := twoFuncProgram()
	p.Layout()
	if !p.LaidOut() {
		t.Fatal("LaidOut false after Layout")
	}
	// All A32: every address must be 4-aligned and consecutive within a
	// block; functions 64-aligned.
	for _, f := range p.Funcs {
		if a := f.Blocks[0].Instrs[0].Addr; a%64 != 0 {
			t.Errorf("func %s starts at %d, not 64-aligned", f.Name, a)
		}
		for _, b := range f.Blocks {
			for i := range b.Instrs {
				if b.Instrs[i].Addr%4 != 0 {
					t.Errorf("A32 instr at %d not aligned", b.Instrs[i].Addr)
				}
			}
		}
	}
	if p.CodeBytes == 0 || p.CodeBytes%64 != 0 {
		t.Errorf("CodeBytes = %d", p.CodeBytes)
	}
}

func TestLayoutThumbPacking(t *testing.T) {
	p := twoFuncProgram()
	// Convert block 1's first three instructions to Thumb with a CDP
	// prefix inserted before them.
	b := p.Funcs[0].Blocks[1]
	cdp := Instr{Inst: isa.Inst{Op: isa.OpCDP, Rd: isa.NoReg, Rn: isa.NoReg, Rm: isa.NoReg}, Thumb: true, CDPCount: 3}
	rest := append([]Instr(nil), b.Instrs...)
	for i := 0; i < 3; i++ {
		rest[i].Thumb = true
	}
	b.Instrs = append([]Instr{cdp}, rest...)
	p.Layout()

	// CDP + 3 thumb = 8 bytes: the following A32 CMP must sit exactly 8
	// bytes after the CDP (no padding needed).
	instrs := b.Instrs
	if d := instrs[4].Addr - instrs[0].Addr; d != 8 {
		t.Errorf("A32 after even-length thumb run at offset %d, want 8", d)
	}
	// Thumb instructions are 2 bytes apart.
	for i := 1; i <= 3; i++ {
		if d := instrs[i].Addr - instrs[i-1].Addr; d != 2 {
			t.Errorf("thumb spacing %d at %d", d, i)
		}
	}
	// Now an odd-length run: CDP + 2 thumb = 6 bytes -> next A32 pads to 8.
	p2 := twoFuncProgram()
	b2 := p2.Funcs[0].Blocks[1]
	cdp2 := Instr{Inst: isa.Inst{Op: isa.OpCDP, Rd: isa.NoReg, Rn: isa.NoReg, Rm: isa.NoReg}, Thumb: true, CDPCount: 2}
	rest2 := append([]Instr(nil), b2.Instrs...)
	rest2[0].Thumb = true
	rest2[1].Thumb = true
	b2.Instrs = append([]Instr{cdp2}, rest2...)
	p2.Layout()
	instrs2 := b2.Instrs
	if d := instrs2[3].Addr - instrs2[0].Addr; d != 8 {
		t.Errorf("A32 after odd-length thumb run at offset %d, want 8 (6 + 2 pad)", d)
	}
}

func TestCloneIsDeep(t *testing.T) {
	p := twoFuncProgram()
	q := p.Clone()
	q.Funcs[0].Blocks[0].Instrs[0].Rd = isa.R9
	if p.Funcs[0].Blocks[0].Instrs[0].Rd == isa.R9 {
		t.Error("clone shares instruction storage")
	}
	q.Funcs[0].Blocks[0].End = EndReturn
	if p.Funcs[0].Blocks[0].End == EndReturn {
		t.Error("clone shares block storage")
	}
}

func TestReorderLegalIdentity(t *testing.T) {
	p := twoFuncProgram()
	b := p.Funcs[0].Blocks[1]
	perm := []int{0, 1, 2, 3, 4}
	if !ReorderLegal(b, perm) {
		t.Error("identity permutation rejected")
	}
}

func TestReorderIllegalRAW(t *testing.T) {
	p := twoFuncProgram()
	b := p.Funcs[0].Blocks[1]
	// Swap the load (produces r3) with its consumer ADD.
	perm := []int{1, 0, 2, 3, 4}
	if ReorderLegal(b, perm) {
		t.Error("RAW violation accepted")
	}
}

func TestReorderIllegalTerminator(t *testing.T) {
	p := twoFuncProgram()
	b := p.Funcs[0].Blocks[1]
	perm := []int{0, 1, 2, 4, 3}
	if ReorderLegal(b, perm) {
		t.Error("terminator displacement accepted")
	}
}

func TestReorderMemOrdering(t *testing.T) {
	// load r3,[r2]; store r4,[r2]; load r5,[r2] — same region: the loads
	// must not cross the store.
	b := &Block{ID: 0, End: EndReturn, Instrs: []Instr{
		{Inst: isa.Inst{Op: isa.OpLDR, Rd: isa.R3, Rn: isa.R2, Rm: isa.NoReg, HasImm: true, Imm: 0}, MemRegion: 0},
		{Inst: isa.Inst{Op: isa.OpSTR, Rd: isa.NoReg, Rn: isa.R2, Rm: isa.R4, HasImm: true, Imm: 0}, MemRegion: 0},
		{Inst: isa.Inst{Op: isa.OpLDR, Rd: isa.R5, Rn: isa.R2, Rm: isa.NoReg, HasImm: true, Imm: 4}, MemRegion: 0},
		{Inst: isa.Inst{Op: isa.OpBX, Rd: isa.NoReg, Rn: isa.LR, Rm: isa.NoReg}},
	}}
	if ReorderLegal(b, []int{2, 1, 0, 3}) {
		t.Error("loads crossed a same-region store")
	}
	// Different regions commute.
	b.Instrs[1].MemRegion = 0
	b.Instrs[0].MemRegion = 1
	b.Instrs[2].MemRegion = 1
	if !ReorderLegal(b, []int{2, 0, 1, 3}) {
		t.Error("independent-region reorder rejected (r5 load before store, load r3 kept before)")
	}
}

func TestReorderWARWAW(t *testing.T) {
	// i0: add r1 = r2+r3 ; i1: add r2 = r4+r5 (WAR on r2) ; i2: add r1 = r6+r7 (WAW on r1)
	b := &Block{ID: 0, End: EndFallthrough, Next: 0, Instrs: []Instr{
		{Inst: isa.Inst{Op: isa.OpADD, Rd: isa.R1, Rn: isa.R2, Rm: isa.R3}},
		{Inst: isa.Inst{Op: isa.OpADD, Rd: isa.R2, Rn: isa.R4, Rm: isa.R5}},
		{Inst: isa.Inst{Op: isa.OpADD, Rd: isa.R1, Rn: isa.R6, Rm: isa.R7}},
	}}
	if ReorderLegal(b, []int{1, 0, 2}) {
		t.Error("WAR violation accepted")
	}
	if ReorderLegal(b, []int{2, 1, 0}) {
		t.Error("WAW violation accepted")
	}
}

func TestReorderCCDependence(t *testing.T) {
	// cmp r1,r2 ; addne r3 = r4+r5: predicated consumer must not move
	// before the cmp.
	b := &Block{ID: 0, End: EndFallthrough, Next: 0, Instrs: []Instr{
		{Inst: isa.Inst{Op: isa.OpCMP, Rd: isa.NoReg, Rn: isa.R1, Rm: isa.R2}},
		{Inst: isa.Inst{Op: isa.OpADD, Cond: isa.CondNE, Rd: isa.R3, Rn: isa.R4, Rm: isa.R5}},
	}}
	if ReorderLegal(b, []int{1, 0}) {
		t.Error("CC dependence violated")
	}
}

func TestApplyReorder(t *testing.T) {
	b := &Block{ID: 0, End: EndFallthrough, Next: 0, Instrs: []Instr{
		{Inst: isa.Inst{Op: isa.OpADD, Rd: isa.R1, Rn: isa.R2, Rm: isa.R3}},
		{Inst: isa.Inst{Op: isa.OpSUB, Rd: isa.R4, Rn: isa.R5, Rm: isa.R6}},
		{Inst: isa.Inst{Op: isa.OpEOR, Rd: isa.R7, Rn: isa.R8, Rm: isa.R9}},
	}}
	perm := []int{2, 0, 1}
	if !ReorderLegal(b, perm) {
		t.Fatal("independent reorder rejected")
	}
	ApplyReorder(b, perm)
	if b.Instrs[0].Op != isa.OpEOR || b.Instrs[1].Op != isa.OpADD || b.Instrs[2].Op != isa.OpSUB {
		t.Errorf("ApplyReorder produced %v %v %v", b.Instrs[0].Op, b.Instrs[1].Op, b.Instrs[2].Op)
	}
}

// Property: a random legal permutation applied twice (perm then its inverse)
// restores the block.
func TestReorderRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := 3 + r.Intn(6)
		b := &Block{ID: 0, End: EndFallthrough, Next: 0}
		for i := 0; i < n; i++ {
			// Independent instructions: disjoint registers via modular spacing.
			rd := isa.Reg(i % 11)
			b.Instrs = append(b.Instrs, Instr{Inst: isa.Inst{Op: isa.OpMOV, Rd: rd, Rn: rd, Rm: isa.NoReg}})
		}
		perm := r.Perm(n)
		orig := append([]Instr(nil), b.Instrs...)
		ApplyReorder(b, perm)
		inv := make([]int, n)
		for np, o := range perm {
			inv[o] = np
		}
		ApplyReorder(b, inv)
		for i := range orig {
			if b.Instrs[i] != orig[i] {
				t.Fatalf("round trip failed at %d", i)
			}
		}
	}
}

func TestComputeStats(t *testing.T) {
	p := twoFuncProgram()
	p.Layout()
	s := p.ComputeStats()
	if s.Funcs != 2 || s.Blocks != 4 || s.Instrs != 11 {
		t.Errorf("stats = %+v", s)
	}
	if s.ThumbInstrs != 0 || s.CDPs != 0 {
		t.Errorf("unexpected thumb stats: %+v", s)
	}
	if s.CodeBytes != p.CodeBytes {
		t.Error("CodeBytes mismatch")
	}
}

func TestAtAndNumInstrs(t *testing.T) {
	p := twoFuncProgram()
	if n := p.NumInstrs(); n != 11 {
		t.Errorf("NumInstrs = %d, want 11", n)
	}
	in := p.At(InstID{Func: 0, Block: 1, Index: 1})
	if in.Op != isa.OpADD {
		t.Errorf("At returned %v", in.Op)
	}
	if got := (InstID{Func: 1, Block: 2, Index: 3}).String(); got != "f1.b2.i3" {
		t.Errorf("InstID.String() = %q", got)
	}
}

// TestMaxUIDRecordedByLayout: the value Layout records matches a walk of
// the instructions, survives Clone and a relayout in another order, and an
// inserted instruction with a larger UID shows after the next Layout.
func TestMaxUIDRecordedByLayout(t *testing.T) {
	p := twoFuncProgram()
	p.AssignUIDs()
	walk := func(p *Program) uint32 {
		var m uint32
		for _, f := range p.Funcs {
			for _, b := range f.Blocks {
				for i := range b.Instrs {
					m = max(m, b.Instrs[i].UID)
				}
			}
		}
		return m
	}
	if got, want := p.MaxUID(), walk(p); got != want || want != 11 {
		t.Fatalf("MaxUID before Layout = %d, walk = %d, want 11", got, want)
	}
	p.Layout()
	q := p.Clone()
	q.LayoutOrder([]int{1, 0})
	if got := p.MaxUID(); got != 11 {
		t.Errorf("laid out: MaxUID = %d, want 11", got)
	}
	if got := q.MaxUID(); got != 11 {
		t.Errorf("clone relaid out: MaxUID = %d, want 11", got)
	}
	b := q.Funcs[1].Blocks[0]
	b.Instrs = append([]Instr{{Inst: isa.Inst{Op: isa.OpNOP, Rd: isa.NoReg, Rn: isa.NoReg, Rm: isa.NoReg}, UID: 40}}, b.Instrs...)
	q.Layout()
	if got := q.MaxUID(); got != 40 {
		t.Errorf("after inserting UID 40 and relayout: MaxUID = %d, want 40", got)
	}
	if got := p.MaxUID(); got != 11 {
		t.Errorf("original after the clone's insert: MaxUID = %d, want 11", got)
	}
}

func TestLayoutOrderPermutes(t *testing.T) {
	p := twoFuncProgram()
	p.Layout()
	identityBytes := p.CodeBytes
	mainEntry := p.Funcs[0].Blocks[0].Instrs[0].Addr

	q := p.Clone()
	q.LayoutOrder([]int{1, 0}) // f1 first, main second
	if q.CodeBytes != identityBytes {
		t.Errorf("CodeBytes %d -> %d under a permutation", identityBytes, q.CodeBytes)
	}
	if got := q.Funcs[1].Blocks[0].Instrs[0].Addr; got != 0 {
		t.Errorf("first-emitted function starts at %d, want 0", got)
	}
	if got := q.Funcs[0].Blocks[0].Instrs[0].Addr; got == mainEntry && mainEntry == 0 {
		t.Error("second-emitted function still at address 0")
	}
	// Structure untouched: ids still index-aligned, program still valid.
	for i, f := range q.Funcs {
		if f.ID != i {
			t.Fatalf("func %d has id %d after LayoutOrder", i, f.ID)
		}
	}
	if err := q.Validate(); err != nil {
		t.Fatalf("reordered program invalid: %v", err)
	}
	// Nil order is the identity layout.
	r := p.Clone()
	r.LayoutOrder(nil)
	if r.Funcs[0].Blocks[0].Instrs[0].Addr != mainEntry {
		t.Error("nil order moved the entry function")
	}
}

func TestLayoutOrderRejectsBadOrder(t *testing.T) {
	for _, order := range [][]int{{0}, {0, 0}, {0, 5}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("LayoutOrder(%v) accepted", order)
				}
			}()
			p := twoFuncProgram()
			p.LayoutOrder(order)
		}()
	}
}
