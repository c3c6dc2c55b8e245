package compiler

import (
	"testing"

	"critics/internal/core"
	"critics/internal/cpu"
	"critics/internal/dfg"
	"critics/internal/isa"
	"critics/internal/prog"
	"critics/internal/trace"
	"critics/internal/workload"
)

// appPlan is the sampling plan the compiler tests profile apps under.
var appPlan = trace.SamplePlan{Samples: 10, Length: 25_000, Gap: 5000, Warmup: 5000}

// profiledApp generates an app, samples it, and builds its profile.
func profiledApp(t *testing.T, name string) (*prog.Program, *core.Profile) {
	t.Helper()
	a, ok := workload.FindApp(name)
	if !ok {
		t.Fatalf("no app %s", name)
	}
	p := workload.Generate(a.Params)
	prof := core.BuildProfile(p, a.Params.Seed, appPlan, core.DefaultConfig())
	if len(prof.Selected()) == 0 {
		t.Fatal("profile selected no chains")
	}
	return p, prof
}

func TestCritICPassTransforms(t *testing.T) {
	p, prof := profiledApp(t, "acrobat")
	q, st, err := ApplyCritIC(p, prof, Options{MaxLen: 5, Switch: SwitchCDP})
	if err != nil {
		t.Fatal(err)
	}
	if st.ChainsHoisted == 0 {
		t.Fatalf("no chains hoisted: %v", st)
	}
	if st.ChainsConverted == 0 {
		t.Fatalf("no chains converted: %v", st)
	}
	if st.CDPsInserted == 0 {
		t.Fatal("no CDPs inserted")
	}
	if frac := float64(st.ChainsHoisted) / float64(st.ChainsAttempted); frac < 0.5 {
		t.Errorf("only %.2f of chains hoistable; generator/legality mismatch", frac)
	}
	// Transformed program is smaller (Thumb shrinks code).
	if q.CodeBytes >= p.CodeBytes {
		t.Errorf("code did not shrink: %d -> %d", p.CodeBytes, q.CodeBytes)
	}
	// Original program untouched.
	if s := p.ComputeStats(); s.ThumbInstrs != 0 || s.CDPs != 0 {
		t.Error("input program was mutated")
	}
}

func TestCritICChainsContiguousAndTagged(t *testing.T) {
	p, prof := profiledApp(t, "maps")
	q, _, err := ApplyCritIC(p, prof, Options{MaxLen: 5, Switch: SwitchCDP})
	if err != nil {
		t.Fatal(err)
	}
	found := 0
	for _, f := range q.Funcs {
		for _, b := range f.Blocks {
			for i := 0; i < len(b.Instrs); i++ {
				in := &b.Instrs[i]
				if in.Op != isa.OpCDP {
					continue
				}
				found++
				// The CDPCount following instructions must be Thumb and
				// belong to one chain.
				if i+in.CDPCount >= len(b.Instrs) {
					t.Fatalf("CDP at %s.b%d.%d overruns block", f.Name, b.ID, i)
				}
				chain := b.Instrs[i+1].ChainID
				for k := 1; k <= in.CDPCount; k++ {
					m := &b.Instrs[i+k]
					if !m.Thumb {
						t.Fatalf("instruction %d after CDP not Thumb", k)
					}
					if m.ChainID != chain {
						t.Fatalf("CDP covers members of different chains")
					}
				}
			}
		}
	}
	if found == 0 {
		t.Fatal("no CDP-covered chains found")
	}
}

func TestCritICPreservesDependences(t *testing.T) {
	// The trace generator derives producers from register def-use, so if
	// hoisting broke a dependence the consumer would read a different
	// producer. We verify a weaker but meaningful invariant: per block,
	// the multiset of instructions is preserved.
	p, prof := profiledApp(t, "office")
	q, _, err := ApplyCritIC(p, prof, Options{MaxLen: 5, Switch: SwitchCDP})
	if err != nil {
		t.Fatal(err)
	}
	for fi, f := range p.Funcs {
		for bi, b := range f.Blocks {
			orig := map[isa.Inst]int{}
			for i := range b.Instrs {
				orig[b.Instrs[i].Inst]++
			}
			for i := range q.Funcs[fi].Blocks[bi].Instrs {
				in := q.Funcs[fi].Blocks[bi].Instrs[i]
				if in.Op == isa.OpCDP || in.ModeSwitch {
					continue
				}
				orig[in.Inst]--
			}
			for inst, n := range orig {
				if n != 0 {
					t.Fatalf("f%d.b%d: instruction %v count off by %d", fi, bi, inst, n)
				}
			}
		}
	}
}

func TestHoistOnlyKeepsA32(t *testing.T) {
	p, prof := profiledApp(t, "email")
	q, st, err := ApplyCritIC(p, prof, Options{MaxLen: 5, HoistOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if st.ChainsHoisted == 0 {
		t.Fatal("nothing hoisted")
	}
	s := q.ComputeStats()
	if s.ThumbInstrs != 0 || s.CDPs != 0 {
		t.Errorf("HoistOnly emitted Thumb: %+v", s)
	}
}

func TestBranchSwitchInsertsBranches(t *testing.T) {
	p, prof := profiledApp(t, "browser")
	q, st, err := ApplyCritIC(p, prof, Options{MaxLen: 5, Switch: SwitchBranch})
	if err != nil {
		t.Fatal(err)
	}
	if st.BranchesInserted == 0 || st.BranchesInserted != 2*st.ChainsConverted {
		t.Fatalf("branch accounting off: %v", st)
	}
	if st.CDPsInserted != 0 {
		t.Error("CDPs inserted under branch switching")
	}
	// The branch-pair overhead makes the binary larger than CDP switching.
	qc, _, err := ApplyCritIC(p, prof, Options{MaxLen: 5, Switch: SwitchCDP})
	if err != nil {
		t.Fatal(err)
	}
	if q.CodeBytes <= qc.CodeBytes {
		t.Errorf("branch-pair code (%d) not larger than CDP code (%d)", q.CodeBytes, qc.CodeBytes)
	}
}

func TestIdealConvertsMore(t *testing.T) {
	a, _ := workload.FindApp("acrobat")
	p := workload.Generate(a.Params)
	cfg := core.DefaultConfig()
	cfg.RequireThumb = false
	prof := core.BuildProfile(p, a.Params.Seed, appPlan, cfg)

	real := Options{MaxLen: 5, Switch: SwitchCDP}
	ideal := Options{MaxLen: core.MaxChainLen, Switch: SwitchCDP, Ideal: true}
	_, stReal, err := ApplyCritIC(p, prof, real)
	if err != nil {
		t.Fatal(err)
	}
	_, stIdeal, err := ApplyCritIC(p, prof, ideal)
	if err != nil {
		t.Fatal(err)
	}
	if stIdeal.ConvertedInstrs <= stReal.ConvertedInstrs {
		t.Errorf("ideal converted %d <= real %d", stIdeal.ConvertedInstrs, stReal.ConvertedInstrs)
	}
	if stIdeal.ChainsNotThumb != 0 {
		t.Error("ideal pass rejected chains")
	}
}

func TestOPP16AndCompress(t *testing.T) {
	a, _ := workload.FindApp("facebook")
	p := workload.Generate(a.Params)
	opp, stOpp, err := ApplyOPP16(p, 3)
	if err != nil {
		t.Fatal(err)
	}
	cmp, stCmp, err := ApplyCompress(p)
	if err != nil {
		t.Fatal(err)
	}
	if stOpp.ConvertedInstrs == 0 || stCmp.ConvertedInstrs == 0 {
		t.Fatal("opportunistic passes converted nothing")
	}
	// Compress (runs >= 2) converts more than OPP16 (runs >= 3), which is
	// the Fig. 13b ordering.
	if stCmp.ConvertedInstrs <= stOpp.ConvertedInstrs {
		t.Errorf("Compress %d <= OPP16 %d converted", stCmp.ConvertedInstrs, stOpp.ConvertedInstrs)
	}
	if opp.CodeBytes >= p.CodeBytes || cmp.CodeBytes >= p.CodeBytes {
		t.Error("opportunistic conversion did not shrink the binary")
	}
	// No reordering: instruction order preserved modulo CDPs.
	for fi, f := range p.Funcs {
		for bi, b := range f.Blocks {
			var got []isa.Inst
			for _, in := range opp.Funcs[fi].Blocks[bi].Instrs {
				if in.Op == isa.OpCDP {
					continue
				}
				got = append(got, in.Inst)
			}
			if len(got) != len(b.Instrs) {
				t.Fatalf("f%d.b%d length changed", fi, bi)
			}
			for i := range got {
				if got[i] != b.Instrs[i].Inst {
					t.Fatalf("f%d.b%d: OPP16 reordered instructions", fi, bi)
				}
			}
		}
	}
}

func TestCritICConvertsFewerThanOPP16(t *testing.T) {
	// Fig. 13b: CritIC converts far fewer instructions than the
	// criticality-agnostic schemes.
	p, prof := profiledApp(t, "acrobat")
	_, stCrit, err := ApplyCritIC(p, prof, Options{MaxLen: 5, Switch: SwitchCDP})
	if err != nil {
		t.Fatal(err)
	}
	_, stOpp, err := ApplyOPP16(p, 3)
	if err != nil {
		t.Fatal(err)
	}
	if stCrit.ConvertedInstrs >= stOpp.ConvertedInstrs {
		t.Errorf("CritIC converted %d >= OPP16 %d", stCrit.ConvertedInstrs, stOpp.ConvertedInstrs)
	}
	qc, _, err := ApplyCritIC(p, prof, Options{MaxLen: 5, Switch: SwitchCDP})
	if err != nil {
		t.Fatal(err)
	}
	qo, _, err := ApplyOPP16(p, 3)
	if err != nil {
		t.Fatal(err)
	}
	if StaticThumbFrac(qc) >= StaticThumbFrac(qo) {
		t.Errorf("static thumb fractions inverted: critic %.3f >= opp16 %.3f", StaticThumbFrac(qc), StaticThumbFrac(qo))
	}
}

func TestCritICSpeedsUpApp(t *testing.T) {
	// The end-to-end smoke test of the whole reproduction: profile,
	// transform, re-trace, simulate, and require a real speedup.
	p, prof := profiledApp(t, "acrobat")
	q, _, err := ApplyCritIC(p, prof, Options{MaxLen: 5, Switch: SwitchCDP})
	if err != nil {
		t.Fatal(err)
	}

	simulate := func(pr *prog.Program) int64 {
		g := trace.NewGenerator(pr, 42)
		g.Skip(20_000)
		dyns := g.Generate(nil, 60_000)
		fan := dfg.Fanouts(dyns, 128)
		s := cpu.New(cpu.DefaultConfig())
		res := s.Run(dyns, fan)
		return res.Cycles
	}
	base := simulate(p)
	opt := simulate(q)
	speedup := float64(base) / float64(opt)
	t.Logf("baseline %d cycles, CritIC %d cycles, speedup %.3f", base, opt, speedup)
	if speedup < 1.02 {
		t.Errorf("CritIC speedup %.3f; expected a clear gain", speedup)
	}
}

func TestLongRunsChainCDPs(t *testing.T) {
	// A block with 20 consecutive directly-convertible instructions: OPP16
	// must cover it with chained CDPs (3-bit run-length field, max 8).
	b := &prog.Block{ID: 0, End: prog.EndFallthrough, Next: 1}
	for i := 0; i < 20; i++ {
		rd := isa.Reg(i % 8)
		b.Instrs = append(b.Instrs, prog.Instr{Inst: isa.Inst{Op: isa.OpADD, Rd: rd, Rn: rd, Rm: isa.Reg((i + 1) % 8)}})
	}
	p := &prog.Program{
		Name: "runs", Entry: 0, NumMemRegions: 1, RegionBytes: []uint32{64},
		Funcs: []*prog.Func{{ID: 0, Name: "f", Blocks: []*prog.Block{
			b,
			{ID: 1, End: prog.EndReturn, Instrs: []prog.Instr{{Inst: isa.Inst{Op: isa.OpBX, Rd: isa.NoReg, Rn: isa.LR, Rm: isa.NoReg}}}},
		}}},
	}
	p.AssignUIDs()
	p.Layout()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	q, st, err := ApplyOPP16(p, 3)
	if err != nil {
		t.Fatal(err)
	}
	// 21 convertible instructions (20 ADDs + the BX LR return, which is in
	// a separate block/run) -> the 20-run needs ceil(20/8) = 3 CDPs.
	var cdps, counts int
	for _, bb := range q.Funcs[0].Blocks {
		for i := range bb.Instrs {
			if bb.Instrs[i].Op == isa.OpCDP {
				cdps++
				counts += bb.Instrs[i].CDPCount
				if bb.Instrs[i].CDPCount > isa.CDPMaxRun {
					t.Fatalf("CDP count %d exceeds the 3-bit field", bb.Instrs[i].CDPCount)
				}
			}
		}
	}
	if cdps < 3 {
		t.Errorf("20-instruction run covered by %d CDPs; want chained commands", cdps)
	}
	if counts != st.ConvertedInstrs {
		t.Errorf("CDP coverage %d != converted %d", counts, st.ConvertedInstrs)
	}
}

func TestPrefixRetrySalvagesChains(t *testing.T) {
	// A chain whose final member cannot be hoisted legally (it reads a
	// register written by an intervening instruction that cannot move):
	// the pass must fall back to the legal prefix instead of dropping the
	// chain.
	b := &prog.Block{ID: 0, End: prog.EndFallthrough, Next: 1}
	b.Instrs = []prog.Instr{
		{Inst: isa.Inst{Op: isa.OpLDR, Rd: isa.R0, Rn: isa.R4, Rm: isa.NoReg, HasImm: true, Imm: 4}, MemRegion: 0}, // 0 head
		{Inst: isa.Inst{Op: isa.OpADD, Rd: isa.R5, Rn: isa.R0, Rm: isa.R4}},                                        // 1 filler (reads head)
		{Inst: isa.Inst{Op: isa.OpADD, Rd: isa.R1, Rn: isa.R0, Rm: isa.R4}},                                        // 2 member
		{Inst: isa.Inst{Op: isa.OpADD, Rd: isa.R6, Rn: isa.R1, Rm: isa.R4}},                                        // 3 WRITES r6
		{Inst: isa.Inst{Op: isa.OpADD, Rd: isa.R2, Rn: isa.R1, Rm: isa.R6}},                                        // 4 member reading r6: hoisting past 3 is illegal
	}
	p := &prog.Program{
		Name: "prefix", Entry: 0, NumMemRegions: 1, RegionBytes: []uint32{64},
		Funcs: []*prog.Func{{ID: 0, Name: "f", Blocks: []*prog.Block{
			b,
			{ID: 1, End: prog.EndReturn, Instrs: []prog.Instr{{Inst: isa.Inst{Op: isa.OpBX, Rd: isa.NoReg, Rn: isa.LR, Rm: isa.NoReg}}}},
		}}},
	}
	p.AssignUIDs()
	p.Layout()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	prof := &core.Profile{App: "prefix", TotalDyn: 1000}
	e := core.Entry{
		Key:      core.ChainKey{Func: 0, Block: 0, N: 3},
		Length:   3,
		DynCount: 100,
		Selected: true,
		ThumbOK:  true,
	}
	e.Key.Idx[0], e.Key.Idx[1], e.Key.Idx[2] = 0, 2, 4
	prof.Entries = []core.Entry{e}

	q, st, err := ApplyCritIC(p, prof, Options{MaxLen: 5, Switch: SwitchCDP})
	if err != nil {
		t.Fatal(err)
	}
	if st.ChainsIllegal != 0 {
		t.Errorf("chain dropped entirely: %v", st)
	}
	if st.ChainsHoisted != 1 {
		t.Fatalf("hoisted = %d", st.ChainsHoisted)
	}
	// The hoisted prefix covers members 0 and 2 only.
	var cdpCount int
	for i := range q.Funcs[0].Blocks[0].Instrs {
		in := &q.Funcs[0].Blocks[0].Instrs[i]
		if in.Op == isa.OpCDP {
			cdpCount = in.CDPCount
		}
	}
	if cdpCount != 2 {
		t.Errorf("CDP covers %d, want the 2-member legal prefix", cdpCount)
	}
}
