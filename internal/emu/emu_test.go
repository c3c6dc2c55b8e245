package emu

import (
	"testing"

	"critics/internal/compiler"
	"critics/internal/core"
	"critics/internal/isa"
	"critics/internal/prog"
	"critics/internal/trace"
	"critics/internal/workload"
)

func exec(t *testing.T, s *State, in isa.Inst) {
	t.Helper()
	if err := Exec(s, &in, 0); err != nil {
		t.Fatal(err)
	}
}

func TestALUSemantics(t *testing.T) {
	s := NewState()
	s.Regs[1] = 10
	s.Regs[2] = 3
	cases := []struct {
		in   isa.Inst
		want uint32
	}{
		{isa.Inst{Op: isa.OpADD, Rd: isa.R0, Rn: isa.R1, Rm: isa.R2}, 13},
		{isa.Inst{Op: isa.OpSUB, Rd: isa.R0, Rn: isa.R1, Rm: isa.R2}, 7},
		{isa.Inst{Op: isa.OpRSB, Rd: isa.R0, Rn: isa.R1, Rm: isa.R2}, ^uint32(6)}, // 3 - 10 = -7
		{isa.Inst{Op: isa.OpAND, Rd: isa.R0, Rn: isa.R1, Rm: isa.R2}, 10 & 3},
		{isa.Inst{Op: isa.OpORR, Rd: isa.R0, Rn: isa.R1, Rm: isa.R2}, 10 | 3},
		{isa.Inst{Op: isa.OpEOR, Rd: isa.R0, Rn: isa.R1, Rm: isa.R2}, 10 ^ 3},
		{isa.Inst{Op: isa.OpBIC, Rd: isa.R0, Rn: isa.R1, Rm: isa.R2}, 10 &^ 3},
		{isa.Inst{Op: isa.OpMUL, Rd: isa.R0, Rn: isa.R1, Rm: isa.R2}, 30},
		{isa.Inst{Op: isa.OpLSL, Rd: isa.R0, Rn: isa.R1, Rm: isa.R2}, 80},
		{isa.Inst{Op: isa.OpLSR, Rd: isa.R0, Rn: isa.R1, Rm: isa.R2}, 1},
		{isa.Inst{Op: isa.OpADD, Rd: isa.R0, Rn: isa.R1, HasImm: true, Imm: 90}, 100},
		{isa.Inst{Op: isa.OpMOV, Rd: isa.R0, HasImm: true, Imm: 42}, 42},
		{isa.Inst{Op: isa.OpMVN, Rd: isa.R0, Rn: isa.R1}, ^uint32(10)},
		{isa.Inst{Op: isa.OpSDIV, Rd: isa.R0, Rn: isa.R1, Rm: isa.R2}, 3},
		{isa.Inst{Op: isa.OpUDIV, Rd: isa.R0, Rn: isa.R1, Rm: isa.R2}, 3},
	}
	for _, c := range cases {
		exec(t, s, c.in)
		if s.Regs[0] != c.want {
			t.Errorf("%v: r0 = %d, want %d", c.in, s.Regs[0], c.want)
		}
	}
}

func TestDivByZero(t *testing.T) {
	s := NewState()
	s.Regs[1] = 7
	exec(t, s, isa.Inst{Op: isa.OpSDIV, Rd: isa.R0, Rn: isa.R1, Rm: isa.R2}) // r2 = 0
	if s.Regs[0] != 0 {
		t.Errorf("sdiv by zero = %d", s.Regs[0])
	}
}

func TestMemorySemantics(t *testing.T) {
	s := NewState()
	s.Regs[1] = 0x100
	s.Regs[2] = 0xDEADBEEF
	exec(t, s, isa.Inst{Op: isa.OpSTR, Rn: isa.R1, Rm: isa.R2, HasImm: true, Imm: 8, Rd: isa.NoReg})
	exec(t, s, isa.Inst{Op: isa.OpLDR, Rd: isa.R3, Rn: isa.R1, HasImm: true, Imm: 8, Rm: isa.NoReg})
	if s.Regs[3] != 0xDEADBEEF {
		t.Errorf("load after store = %#x", s.Regs[3])
	}
	exec(t, s, isa.Inst{Op: isa.OpLDRB, Rd: isa.R4, Rn: isa.R1, HasImm: true, Imm: 8, Rm: isa.NoReg})
	if s.Regs[4] != 0xEF {
		t.Errorf("ldrb = %#x", s.Regs[4])
	}
	exec(t, s, isa.Inst{Op: isa.OpLDRH, Rd: isa.R5, Rn: isa.R1, HasImm: true, Imm: 8, Rm: isa.NoReg})
	if s.Regs[5] != 0xBEEF {
		t.Errorf("ldrh = %#x", s.Regs[5])
	}
	// Partial stores.
	exec(t, s, isa.Inst{Op: isa.OpSTRB, Rn: isa.R1, Rm: isa.R6, HasImm: true, Imm: 8, Rd: isa.NoReg}) // r6 = 0
	exec(t, s, isa.Inst{Op: isa.OpLDR, Rd: isa.R7, Rn: isa.R1, HasImm: true, Imm: 8, Rm: isa.NoReg})
	if s.Regs[7] != 0xDEADBE00 {
		t.Errorf("after strb: %#x", s.Regs[7])
	}
}

func TestMemBiasSeparatesRegions(t *testing.T) {
	s := NewState()
	s.Regs[1] = 0x40
	s.Regs[2] = 111
	s.Regs[3] = 222
	st := isa.Inst{Op: isa.OpSTR, Rn: isa.R1, Rm: isa.R2, HasImm: true, Imm: 0, Rd: isa.NoReg}
	if err := Exec(s, &st, 0); err != nil {
		t.Fatal(err)
	}
	st2 := isa.Inst{Op: isa.OpSTR, Rn: isa.R1, Rm: isa.R3, HasImm: true, Imm: 0, Rd: isa.NoReg}
	if err := Exec(s, &st2, 1<<20); err != nil {
		t.Fatal(err)
	}
	ld := isa.Inst{Op: isa.OpLDR, Rd: isa.R4, Rn: isa.R1, HasImm: true, Imm: 0, Rm: isa.NoReg}
	if err := Exec(s, &ld, 0); err != nil {
		t.Fatal(err)
	}
	if s.Regs[4] != 111 {
		t.Errorf("region 0 value clobbered: %d", s.Regs[4])
	}
}

func TestPredication(t *testing.T) {
	s := NewState()
	s.Regs[1] = 5
	exec(t, s, isa.Inst{Op: isa.OpCMP, Rn: isa.R1, HasImm: true, Imm: 5, Rd: isa.NoReg})
	exec(t, s, isa.Inst{Op: isa.OpMOV, Cond: isa.CondEQ, Rd: isa.R2, HasImm: true, Imm: 7})
	if s.Regs[2] != 7 {
		t.Error("EQ predicate should have fired")
	}
	exec(t, s, isa.Inst{Op: isa.OpMOV, Cond: isa.CondNE, Rd: isa.R3, HasImm: true, Imm: 9})
	if s.Regs[3] != 0 {
		t.Error("NE predicate should have been squashed")
	}
	exec(t, s, isa.Inst{Op: isa.OpCMP, Rn: isa.R1, HasImm: true, Imm: 9, Rd: isa.NoReg})
	exec(t, s, isa.Inst{Op: isa.OpMOV, Cond: isa.CondLT, Rd: isa.R4, HasImm: true, Imm: 3})
	if s.Regs[4] != 3 {
		t.Error("LT predicate should have fired (5 < 9)")
	}
}

func TestUndefinedFlagsSquashPredicates(t *testing.T) {
	s := NewState()
	exec(t, s, isa.Inst{Op: isa.OpMOV, Cond: isa.CondEQ, Rd: isa.R1, HasImm: true, Imm: 1})
	if s.Regs[1] != 0 {
		t.Error("predicate fired with undefined flags")
	}
}

func TestStateEqualAndDiff(t *testing.T) {
	a := RandomState(1)
	b := a.Clone()
	if !a.Equal(b) || a.Diff(b) != "" {
		t.Fatal("clone not equal")
	}
	b.Regs[3]++
	if a.Equal(b) || a.Diff(b) == "" {
		t.Fatal("difference not detected")
	}
}

func TestRandomStateDeterministic(t *testing.T) {
	if !RandomState(7).Equal(RandomState(7)) {
		t.Error("RandomState not deterministic")
	}
	if RandomState(7).Equal(RandomState(8)) {
		t.Error("different seeds equal")
	}
}

// equivalentBlocks builds a block and a legally reordered version.
func TestBlockEquivalenceDetectsReorderBug(t *testing.T) {
	orig := &prog.Block{End: prog.EndFallthrough, Next: 0, Instrs: []prog.Instr{
		{Inst: isa.Inst{Op: isa.OpMOV, Rd: isa.R0, HasImm: true, Imm: 5}},
		{Inst: isa.Inst{Op: isa.OpADD, Rd: isa.R1, Rn: isa.R0, HasImm: true, Imm: 2}},
	}}
	// Legal-looking but wrong swap (violates RAW).
	bad := &prog.Block{End: prog.EndFallthrough, Next: 0, Instrs: []prog.Instr{
		orig.Instrs[1], orig.Instrs[0],
	}}
	init := RandomState(3)
	if err := CheckBlockEquivalence(init, orig, orig); err != nil {
		t.Fatalf("identical blocks reported different: %v", err)
	}
	if err := CheckBlockEquivalence(init, orig, bad); err == nil {
		t.Fatal("RAW-violating reorder not detected")
	}
}

func TestCDPAndModeSwitchIgnored(t *testing.T) {
	plain := &prog.Block{End: prog.EndFallthrough, Next: 0, Instrs: []prog.Instr{
		{Inst: isa.Inst{Op: isa.OpMOV, Rd: isa.R0, HasImm: true, Imm: 9}},
	}}
	decorated := &prog.Block{End: prog.EndFallthrough, Next: 0, Instrs: []prog.Instr{
		{Inst: isa.Inst{Op: isa.OpB, Rd: isa.NoReg, Rn: isa.NoReg, Rm: isa.NoReg}, ModeSwitch: true},
		{Inst: isa.Inst{Op: isa.OpCDP, Rd: isa.NoReg, Rn: isa.NoReg, Rm: isa.NoReg}, Thumb: true, CDPCount: 1},
		{Inst: isa.Inst{Op: isa.OpMOV, Rd: isa.R0, HasImm: true, Imm: 9}, Thumb: true},
	}}
	if err := CheckBlockEquivalence(RandomState(4), plain, decorated); err != nil {
		t.Fatalf("encoding artifacts changed semantics: %v", err)
	}
}

// The headline verification: the CritIC pass (hoist + convert) preserves the
// semantics of every block of every transformed mobile app.
func TestCritICPassPreservesSemantics(t *testing.T) {
	for _, name := range []string{"acrobat", "maps", "music"} {
		a, _ := workload.FindApp(name)
		p := workload.Generate(a.Params)
		prof := core.BuildProfile(p, a.Params.Seed, trace.SamplePlan{Samples: 4, Length: 10_000, Gap: 3000, Warmup: 5000}, core.DefaultConfig())
		for _, opt := range []compiler.Options{
			{MaxLen: 5, Switch: compiler.SwitchCDP},
			{MaxLen: 5, Switch: compiler.SwitchBranch},
			{MaxLen: 5, HoistOnly: true},
		} {
			q, _, err := compiler.ApplyCritIC(p, prof, opt)
			if err != nil {
				t.Fatal(err)
			}
			if err := VerifyProgramEquivalence(p, q, 3); err != nil {
				t.Errorf("%s (opt %+v): %v", name, opt, err)
			}
		}
	}
}

// The opportunistic passes do not reorder, but expansion and CDP insertion
// must also leave semantics intact.
func TestOpportunisticPassesPreserveSemantics(t *testing.T) {
	a, _ := workload.FindApp("email")
	p := workload.Generate(a.Params)
	opp, _, err := compiler.ApplyOPP16(p, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyProgramEquivalence(p, opp, 2); err != nil {
		t.Errorf("OPP16: %v", err)
	}
	cmp, _, err := compiler.ApplyCompress(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyProgramEquivalence(p, cmp, 2); err != nil {
		t.Errorf("Compress: %v", err)
	}
}
