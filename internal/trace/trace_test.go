package trace

import (
	"testing"

	"critics/internal/isa"
	"critics/internal/prog"
)

// loopProgram builds: main calls helper, then loops a body block ~10 times,
// then returns (restarting the event loop).
func loopProgram() *prog.Program {
	ins := func(op isa.Op, rd, rn, rm isa.Reg) prog.Instr {
		return prog.Instr{Inst: isa.Inst{Op: op, Rd: rd, Rn: rn, Rm: rm}}
	}
	main := &prog.Func{ID: 0, Name: "main"}
	main.Blocks = []*prog.Block{
		{ID: 0, Instrs: []prog.Instr{
			ins(isa.OpMOV, isa.R0, isa.R1, isa.NoReg),
			{Inst: isa.Inst{Op: isa.OpBL, Rd: isa.NoReg, Rn: isa.NoReg, Rm: isa.NoReg}},
		}, End: prog.EndCall, Callee: 1, Next: 1},
		{ID: 1, Instrs: []prog.Instr{
			{Inst: isa.Inst{Op: isa.OpLDR, Rd: isa.R2, Rn: isa.R0, Rm: isa.NoReg, HasImm: true, Imm: 4}, MemRegion: 0, MemStride: 4},
			ins(isa.OpADD, isa.R3, isa.R2, isa.R0),
			{Inst: isa.Inst{Op: isa.OpCMP, Rd: isa.NoReg, Rn: isa.R3, Rm: isa.NoReg, HasImm: true, Imm: 10}},
			{Inst: isa.Inst{Op: isa.OpB, Cond: isa.CondNE, Rd: isa.NoReg, Rn: isa.NoReg, Rm: isa.NoReg}},
		}, End: prog.EndCondBranch, Taken: 1, Next: 2, TakenProb: 0.9},
		{ID: 2, Instrs: []prog.Instr{
			{Inst: isa.Inst{Op: isa.OpBX, Rd: isa.NoReg, Rn: isa.LR, Rm: isa.NoReg}},
		}, End: prog.EndReturn},
	}
	helper := &prog.Func{ID: 1, Name: "helper"}
	helper.Blocks = []*prog.Block{
		{ID: 0, Instrs: []prog.Instr{
			ins(isa.OpSUB, isa.R4, isa.R0, isa.R0),
			{Inst: isa.Inst{Op: isa.OpBX, Rd: isa.NoReg, Rn: isa.LR, Rm: isa.NoReg}},
		}, End: prog.EndReturn},
	}
	p := &prog.Program{
		Name:          "loop",
		Funcs:         []*prog.Func{main, helper},
		Entry:         0,
		NumMemRegions: 1,
		RegionBytes:   []uint32{4096},
	}
	p.Layout()
	if err := p.Validate(); err != nil {
		panic(err)
	}
	return p
}

func TestGenerateDeterministic(t *testing.T) {
	p := loopProgram()
	a := NewGenerator(p, 42).Generate(nil, 1000)
	b := NewGenerator(p, 42).Generate(nil, 1000)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("streams diverge at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
	c := NewGenerator(p, 43).Generate(nil, 1000)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical streams")
	}
}

func TestSequenceNumbersAndProducers(t *testing.T) {
	p := loopProgram()
	dyns := NewGenerator(p, 1).Generate(nil, 5000)
	for i, d := range dyns {
		if d.Seq != int64(i) {
			t.Fatalf("Seq %d at index %d", d.Seq, i)
		}
		for k := uint8(0); k < d.NProd; k++ {
			if d.Prod[k] >= d.Seq {
				t.Fatalf("instr %d has producer %d >= itself", d.Seq, d.Prod[k])
			}
		}
	}
}

func TestProducerLinksMatchRegisters(t *testing.T) {
	p := loopProgram()
	dyns := NewGenerator(p, 1).Generate(nil, 200)
	// The ADD r3 = r2 + r0 in the loop body must name the immediately
	// preceding load (producer of r2) among its producers.
	for i := 1; i < len(dyns); i++ {
		d := dyns[i]
		if d.Op == isa.OpADD && d.ID.Block == 1 {
			prev := dyns[i-1]
			if prev.Op != isa.OpLDR {
				continue
			}
			found := false
			for k := uint8(0); k < d.NProd; k++ {
				if d.Prod[k] == prev.Seq {
					found = true
				}
			}
			if !found {
				t.Fatalf("ADD at seq %d missing load producer %d (prods %v)", d.Seq, prev.Seq, d.Prod[:d.NProd])
			}
		}
	}
}

func TestBranchOutcomesFollowBias(t *testing.T) {
	p := loopProgram()
	dyns := NewGenerator(p, 9).Generate(nil, 100_000)
	taken, total := 0, 0
	for _, d := range dyns {
		if d.IsCond {
			total++
			if d.Taken {
				taken++
			}
		}
	}
	if total == 0 {
		t.Fatal("no conditional branches executed")
	}
	frac := float64(taken) / float64(total)
	if frac < 0.85 || frac > 0.95 {
		t.Errorf("taken fraction %.3f, want ~0.9", frac)
	}
}

func TestCallReturnTargets(t *testing.T) {
	p := loopProgram()
	dyns := NewGenerator(p, 3).Generate(nil, 1000)
	helperEntry := p.Funcs[1].Blocks[0].Instrs[0].Addr
	for i, d := range dyns {
		if d.Op == isa.OpBL {
			if d.Target != helperEntry {
				t.Fatalf("call target %#x, want %#x", d.Target, helperEntry)
			}
			if i+1 < len(dyns) && dyns[i+1].Addr != helperEntry {
				t.Fatalf("instruction after call at %#x, want callee entry %#x", dyns[i+1].Addr, helperEntry)
			}
		}
		if d.Op == isa.OpBX && i+1 < len(dyns) {
			if d.Target != dyns[i+1].Addr {
				t.Fatalf("return target %#x but next instr at %#x", d.Target, dyns[i+1].Addr)
			}
		}
	}
}

func TestMemAddressesInRegion(t *testing.T) {
	p := loopProgram()
	dyns := NewGenerator(p, 5).Generate(nil, 10_000)
	loads := 0
	for _, d := range dyns {
		if !d.IsLoad && !d.IsStore {
			continue
		}
		loads++
		if d.MemAddr < DataBase || d.MemAddr >= DataBase+4096 {
			t.Fatalf("memory address %#x outside region", d.MemAddr)
		}
		if d.MemAddr%4 != 0 {
			t.Fatalf("unaligned memory address %#x", d.MemAddr)
		}
	}
	if loads == 0 {
		t.Fatal("no memory operations executed")
	}
}

func TestStridedAddressesAdvance(t *testing.T) {
	p := loopProgram()
	dyns := NewGenerator(p, 5).Generate(nil, 100)
	var prev uint32
	seen := 0
	for _, d := range dyns {
		if d.Op != isa.OpLDR {
			continue
		}
		if seen > 0 && d.MemAddr != prev+4 && d.MemAddr >= prev {
			// Strided by 4 with wraparound; consecutive loads of the
			// same static instruction must advance by the stride.
			t.Fatalf("stride violated: %#x after %#x", d.MemAddr, prev)
		}
		prev = d.MemAddr
		seen++
	}
	if seen < 2 {
		t.Fatal("not enough loads to check striding")
	}
}

func TestEventLoopRestart(t *testing.T) {
	p := loopProgram()
	g := NewGenerator(p, 2)
	g.Generate(nil, 50_000)
	if g.Iterations == 0 {
		t.Error("entry function never completed; event loop not modeled")
	}
}

func TestSkipEquivalence(t *testing.T) {
	p := loopProgram()
	g1 := NewGenerator(p, 11)
	g1.Skip(500)
	a := g1.Generate(nil, 100)

	g2 := NewGenerator(p, 11)
	all := g2.Generate(nil, 600)
	b := all[500:]
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("Skip changes execution at %d", i)
		}
	}
}

// TestSamplePlan: Sample streams each window of the plan, in order and in
// chunks of the requested size, exactly as one generator skipping the
// warm-up and the gaps would materialize it; a window the callback leaves
// half-read does not shift the windows after it.
func TestSamplePlan(t *testing.T) {
	p := loopProgram()
	plan := SamplePlan{Samples: 4, Length: 250, Gap: 100, Warmup: 50}
	g := NewGenerator(p, 17)
	g.Skip(plan.Warmup)
	var want [][]Dyn
	for s := 0; s < plan.Samples; s++ {
		want = append(want, g.Generate(nil, plan.Length))
		g.Skip(plan.Gap)
	}

	var got [][]Dyn
	Sample(p, 17, plan, 64, func(src Source) {
		var w []Dyn
		for c := src.NextChunk(); len(c) > 0; c = src.NextChunk() {
			if len(c) > 64 {
				t.Fatalf("chunk of %d, want at most 64", len(c))
			}
			w = append(w, c...)
		}
		got = append(got, w)
	})
	if len(got) != plan.Samples {
		t.Fatalf("got %d windows, want %d", len(got), plan.Samples)
	}
	for s := range want {
		if len(got[s]) != plan.Length {
			t.Fatalf("window %d length %d", s, len(got[s]))
		}
		for i := range want[s] {
			if got[s][i] != want[s][i] {
				t.Fatalf("window %d differs at %d", s, i)
			}
		}
	}

	// Reading only the first chunk of each window leaves the later windows
	// where the plan puts them.
	s := 0
	Sample(p, 17, plan, 64, func(src Source) {
		if c := src.NextChunk(); c[0] != want[s][0] {
			t.Errorf("window %d starts at seq %d after a partial read, want %d", s, c[0].Seq, want[s][0].Seq)
		}
		s++
	})
}

func TestThumbSizesInStream(t *testing.T) {
	p := loopProgram()
	// Thumb-convert the loop body ADD with a CDP prefix.
	b := p.Funcs[0].Blocks[1]
	cdp := prog.Instr{Inst: isa.Inst{Op: isa.OpCDP, Rd: isa.NoReg, Rn: isa.NoReg, Rm: isa.NoReg}, Thumb: true, CDPCount: 1}
	body := append([]prog.Instr(nil), b.Instrs...)
	body[1].Thumb = true
	b.Instrs = append(body[:1:1], append([]prog.Instr{cdp, body[1]}, body[2:]...)...)
	p.Layout()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	dyns := NewGenerator(p, 4).Generate(nil, 100)
	sawCDP, sawThumb := false, false
	for _, d := range dyns {
		if d.IsCDP {
			sawCDP = true
			if d.CDPCount != 1 || d.Size != 2 {
				t.Fatalf("bad CDP dyn: %+v", d)
			}
		}
		if d.Thumb && !d.IsCDP {
			sawThumb = true
			if d.Size != 2 {
				t.Fatalf("thumb dyn with size %d", d.Size)
			}
		}
	}
	if !sawCDP || !sawThumb {
		t.Error("CDP/thumb instructions missing from stream")
	}
}
