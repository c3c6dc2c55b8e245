package binimg

import (
	"bytes"
	"errors"
	"io"
	"testing"
	"testing/iotest"

	"critics/internal/compiler"
	"critics/internal/core"
	"critics/internal/isa"
	"critics/internal/prog"
	"critics/internal/trace"
	"critics/internal/workload"
)

func smallProgram() *prog.Program {
	p := &prog.Program{
		Name:          "t",
		Entry:         0,
		NumMemRegions: 1,
		RegionBytes:   []uint32{4096},
	}
	f := &prog.Func{ID: 0, Name: "main"}
	f.Blocks = []*prog.Block{
		{ID: 0, End: prog.EndReturn, Instrs: []prog.Instr{
			{Inst: isa.Inst{Op: isa.OpMOV, Rd: isa.R1, Rm: isa.NoReg, Rn: isa.NoReg, HasImm: true, Imm: 4}},
			{Inst: isa.Inst{Op: isa.OpADD, Rd: isa.R2, Rn: isa.R1, Rm: isa.R3}},
			{Inst: isa.Inst{Op: isa.OpLDR, Rd: isa.R0, Rn: isa.R1, Rm: isa.NoReg, HasImm: true, Imm: 8}, MemRegion: 0},
			{Inst: isa.Inst{Op: isa.OpBX, Rd: isa.NoReg, Rn: isa.LR, Rm: isa.NoReg}},
		}},
	}
	p.Funcs = []*prog.Func{f}
	p.AssignUIDs()
	p.Layout()
	return p
}

func TestAssembleDecodeSmall(t *testing.T) {
	p := smallProgram()
	if err := VerifyRoundTrip(p); err != nil {
		t.Fatal(err)
	}
	img, err := Assemble(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(img) != int(p.CodeBytes) {
		t.Fatalf("image %d bytes, want %d", len(img), p.CodeBytes)
	}
	dec, err := Decode(img)
	if err != nil {
		t.Fatal(err)
	}
	if len(dec) != 4 {
		t.Fatalf("decoded %d instructions, want 4", len(dec))
	}
}

func TestRoundTripWithThumbRun(t *testing.T) {
	p := smallProgram()
	b := p.Funcs[0].Blocks[0]
	// Convert the first three instructions to a CDP-covered thumb run.
	cdp := prog.Instr{Inst: isa.Inst{Op: isa.OpCDP, Rd: isa.NoReg, Rn: isa.NoReg, Rm: isa.NoReg}, Thumb: true, CDPCount: 3}
	for i := 0; i < 3; i++ {
		b.Instrs[i].Thumb = true
	}
	// ADD r2, r1, r3 is register-form representable; LDR r0,[r1,#8] fits the
	// mem form; MOV r1,#4 fits the imm form.
	b.Instrs = append([]prog.Instr{cdp}, b.Instrs...)
	p.Layout()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := VerifyRoundTrip(p); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	img := []byte{0xFF, 0xFF, 0xFF, 0xFF}
	if _, err := Decode(img); err == nil {
		t.Error("garbage image decoded")
	}
}

func TestAssembleRejectsExpanded(t *testing.T) {
	p := smallProgram()
	p.Funcs[0].Blocks[0].Instrs[1].Thumb = true
	p.Funcs[0].Blocks[0].Instrs[1].Expanded = true
	p.Layout()
	if _, err := Assemble(p); err == nil {
		t.Error("Expanded instruction assembled")
	}
}

func TestRoundTripWholeApps(t *testing.T) {
	// Baseline and CritIC-transformed binaries of real app models assemble
	// into byte images and decode back exactly.
	for _, name := range []string{"music", "office"} {
		a, _ := workload.FindApp(name)
		p := workload.Generate(a.Params)
		if err := VerifyRoundTrip(p); err != nil {
			t.Fatalf("%s baseline: %v", name, err)
		}
		prof := core.BuildProfile(p, a.Params.Seed, trace.SamplePlan{Samples: 3, Length: 10_000, Gap: 3000, Warmup: 5000}, core.DefaultConfig())
		q, _, err := compiler.ApplyCritIC(p, prof, compiler.Options{MaxLen: 5, Switch: compiler.SwitchCDP})
		if err != nil {
			t.Fatal(err)
		}
		if err := VerifyRoundTrip(q); err != nil {
			t.Fatalf("%s critic: %v", name, err)
		}
		// The Approach-1 variant (mode-switch branches) too.
		qb, _, err := compiler.ApplyCritIC(p, prof, compiler.Options{MaxLen: 5, Switch: compiler.SwitchBranch})
		if err != nil {
			t.Fatal(err)
		}
		if err := VerifyRoundTrip(qb); err != nil {
			t.Fatalf("%s critic-branch: %v", name, err)
		}
		// OPP16 output is direct-only and must also round trip.
		qo, _, err := compiler.ApplyOPP16(p, 3)
		if err != nil {
			t.Fatal(err)
		}
		if err := VerifyRoundTrip(qo); err != nil {
			t.Fatalf("%s opp16: %v", name, err)
		}
	}
}

func TestListing(t *testing.T) {
	p := smallProgram()
	img, err := Assemble(p)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Listing(p, img, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(s) < 40 {
		t.Errorf("listing too short: %q", s)
	}
	if _, err := Listing(p, img, 9); err == nil {
		t.Error("bad function id accepted")
	}
}

func TestImageSmallerAfterCritIC(t *testing.T) {
	a, _ := workload.FindApp("acrobat")
	p := workload.Generate(a.Params)
	prof := core.BuildProfile(p, a.Params.Seed, trace.SamplePlan{Samples: 3, Length: 10_000, Gap: 3000, Warmup: 5000}, core.DefaultConfig())
	q, _, err := compiler.ApplyCritIC(p, prof, compiler.Options{MaxLen: 5, Switch: compiler.SwitchCDP})
	if err != nil {
		t.Fatal(err)
	}
	imgP, err := Assemble(p)
	if err != nil {
		t.Fatal(err)
	}
	imgQ, err := Assemble(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(imgQ) >= len(imgP) {
		t.Errorf("CritIC image %d bytes >= baseline %d", len(imgQ), len(imgP))
	}
}

func TestAssembleRejectsCDPCollision(t *testing.T) {
	// An A32 instruction whose low halfword matches the CDP pattern (rd=r6,
	// imm=1024) is ambiguous to the streaming decoder; the assembler must
	// refuse it.
	p := smallProgram()
	p.Funcs[0].Blocks[0].Instrs[0] = prog.Instr{
		Inst: isa.Inst{Op: isa.OpMOV, Rd: isa.R6, Rn: isa.NoReg, Rm: isa.NoReg, HasImm: true, Imm: 1024},
	}
	p.Layout()
	if _, err := Assemble(p); err == nil {
		t.Error("ambiguous encoding accepted")
	}
}

// errCorrupt stands in for an artifact reader's integrity failure.
var errCorrupt = errors.New("content failed verification")

// failAtEOF hands out every byte of r and then fails where r reports EOF —
// the shape of an artifact store reader whose content does not match its
// digest.
type failAtEOF struct{ r io.Reader }

func (f failAtEOF) Read(p []byte) (int, error) {
	n, err := f.r.Read(p)
	if err == io.EOF {
		err = errCorrupt
	}
	return n, err
}

// TestDecoderReturnsSourceError: a read error, even one that arrives only
// once every byte has been handed out, fails the walk with a sticky error
// naming the offset, instead of ending it like a clean EOF.
func TestDecoderReturnsSourceError(t *testing.T) {
	p := workload.Generate(workload.MobileApps()[0].Params)
	img, err := Assemble(p)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Decode(img)
	if err != nil {
		t.Fatal(err)
	}
	for name, r := range map[string]io.Reader{
		"error after the last byte": failAtEOF{bytes.NewReader(img)},
		"error with the last byte":  iotest.DataErrReader(failAtEOF{bytes.NewReader(img)}),
	} {
		d := NewDecoder(r)
		n := 0
		for ; ; n++ {
			if _, err = d.Next(); err != nil {
				break
			}
		}
		if !errors.Is(err, errCorrupt) {
			t.Fatalf("%s: walk ended with %v after %d of %d elements, want %v", name, err, n, len(want), errCorrupt)
		}
		if _, again := d.Next(); again != err {
			t.Fatalf("%s: error not sticky: %v then %v", name, err, again)
		}
	}
}
