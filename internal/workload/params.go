// Package workload synthesizes the programs the evaluation runs on. It is
// the substitution for the paper's trace sources (10 Play Store apps run
// under QEMU/AOSP, plus SPEC.int and SPEC.float): each catalog entry is a
// parameterized generator tuned to reproduce the statistical structure the
// paper reports for its class —
//
//   - Mobile apps: large code footprints (hundreds of functions, >> 32KB
//     i-cache) with frequent calls, short self-contained chains (<= ~20
//     instructions, spread <= ~540) whose high-fanout members are separated
//     by 1..5 low-fanout members (Fig. 1b), few long-latency instructions
//     (Fig. 3c), and mostly cache-resident data.
//   - SPEC.int: small hot code, long loop-carried chains, direct
//     hub-to-hub dependences, pointer-chasing loads with poor locality.
//   - SPEC.float: small hot code, very long FP chains, streaming strided
//     access over large arrays, many long-latency instructions.
//
// Register conventions the generators follow (and the dependence analysis
// exploits): r4..r7 are "stable" bases written once per event-loop
// iteration; r0..r3 carry chain values; r8..r10 are low scratch; r11/r12
// are high scratch whose use makes an instruction non-Thumb-representable.
package workload

import (
	"slices"
	"sync"
)

// Class is the workload family.
type Class uint8

// Workload families.
const (
	Mobile Class = iota
	SPECInt
	SPECFloat
)

// String implements fmt.Stringer for Class.
func (c Class) String() string {
	switch c {
	case Mobile:
		return "mobile"
	case SPECInt:
		return "spec.int"
	case SPECFloat:
		return "spec.float"
	default:
		return "unknown"
	}
}

// Params fully describes one synthetic workload.
type Params struct {
	Name  string
	Class Class
	Seed  int64

	// Code shape.
	NumFuncs      int    // app functions (mobile: large; SPEC: small)
	NumUtilFuncs  int    // shared "API" utility functions callees
	BlocksPerFunc [2]int // min..max middle blocks per function
	BlockLen      [2]int // min..max non-chain instructions per block

	// Chain structure.
	ChainProb    float64 // probability a block carries a chain pattern
	ChainLen     [2]int  // min..max chain members
	HubFanout    [2]int  // min..max extra consumers per hub
	HubSpacing   [2]int  // low-fanout members between hubs (Fig. 1b gaps)
	HubAdjacent  float64 // probability the member after a hub is also a hub (gap 0)
	ChainLoadPct float64 // fraction of chain links that are pointer-chase loads
	ChainColdPct float64 // fraction of chain heads loading from the cold region
	LoopCarried  bool    // SPEC-style accumulator chains spanning iterations

	// Instruction mix (applied to filler instructions).
	PredFrac    float64 // predicated fraction
	HighRegFrac float64 // fraction using r11/r12 (non-Thumb)
	FPFrac      float64 // floating-point fraction
	DivFrac     float64 // divide fraction
	LoadFrac    float64
	StoreFrac   float64
	BigImmFrac  float64 // immediates too large for T16

	// Control flow.
	CallProb    float64 // probability a block ends in a call to a utility
	BranchBias  float64 // forward conditional branch taken probability
	LoopBackPct float64 // loop back-edge probability (trip ~ 1/(1-p))
	SkipProb    float64 // main-loop call-site skip probability

	// Memory behaviour.
	HotBytes  uint32  // hot region size (cache-resident)
	ColdBytes uint32  // cold region size (forces misses)
	ColdFrac  float64 // fraction of memory ops hitting the cold region
	Stride    int32   // cold-region stride; 0 = random (pointer chasing)
}

// An App pairs a name with its generator parameters. The catalog mirrors
// Table II of the paper.
type App struct {
	Params Params
}

// MobileApps returns the ten Play Store app models of Table II. Per-app
// deviations from the class baseline encode the qualitative differences the
// paper reports (e.g. Youtube/Maps are the most back-pressure-bound;
// Acrobat benefits most; Music least).
func MobileApps() []App {
	base := Params{
		Class:         Mobile,
		NumFuncs:      140,
		NumUtilFuncs:  24,
		BlocksPerFunc: [2]int{3, 7},
		BlockLen:      [2]int{2, 5},
		ChainProb:     0.85,
		ChainLen:      [2]int{4, 6},
		HubFanout:     [2]int{14, 18},
		HubSpacing:    [2]int{1, 2},
		HubAdjacent:   0.05,
		ChainLoadPct:  0.35,
		ChainColdPct:  0.02,
		PredFrac:      0.08,
		HighRegFrac:   0.10,
		FPFrac:        0.02,
		DivFrac:       0.004,
		LoadFrac:      0.22,
		StoreFrac:     0.10,
		BigImmFrac:    0.05,
		CallProb:      0.15,
		BranchBias:    0.92,
		LoopBackPct:   0.80,
		SkipProb:      0.15,
		HotBytes:      24 << 10,
		ColdBytes:     2 << 20,
		ColdFrac:      0.02,
		Stride:        0,
	}
	mk := func(name string, seed int64, adjust func(*Params)) App {
		p := base
		p.Name = name
		p.Seed = seed
		if adjust != nil {
			adjust(&p)
		}
		return App{Params: p}
	}
	return []App{
		mk("acrobat", 101, func(p *Params) { // document reader: chain-rich rendering
			p.ChainProb = 0.92
			p.HubFanout = [2]int{14, 20}
			p.NumFuncs = 150
		}),
		mk("angrybirds", 102, func(p *Params) { // physics game: some FP
			p.FPFrac = 0.10
			p.ChainProb = 0.55
			p.LoopBackPct = 0.65
		}),
		mk("browser", 103, func(p *Params) { // web: biggest footprint, branchy
			p.NumFuncs = 190
			p.BranchBias = 0.86
			p.ChainProb = 0.55
		}),
		mk("facebook", 104, func(p *Params) { // messaging: call-heavy
			p.CallProb = 0.3
			p.NumFuncs = 170
		}),
		mk("email", 105, func(p *Params) {
			p.ChainProb = 0.5
			p.StoreFrac = 0.13
		}),
		mk("maps", 106, func(p *Params) { // navigation: back-pressure heavy
			p.ChainLoadPct = 0.5
			p.ColdFrac = 0.12
			p.ChainLen = [2]int{4, 7}
		}),
		mk("music", 107, func(p *Params) { // audio: smallest gains in the paper
			p.ChainProb = 0.5
			p.NumFuncs = 100
			p.HubFanout = [2]int{11, 14}
			p.Stride = 8
		}),
		mk("office", 108, func(p *Params) {
			p.ChainProb = 0.55
			p.PredFrac = 0.10
		}),
		mk("photogallery", 109, func(p *Params) { // image browsing: streaming-ish
			p.Stride = 16
			p.ColdFrac = 0.04
			p.ChainProb = 0.66
		}),
		mk("youtube", 110, func(p *Params) { // video: back-pressure heavy
			p.ChainLoadPct = 0.55
			p.ChainLen = [2]int{4, 7}
			p.ColdFrac = 0.04
			p.FPFrac = 0.05
		}),
	}
}

// SPECIntApps returns the SPEC.int models of Table II.
func SPECIntApps() []App {
	base := Params{
		Class:         SPECInt,
		NumFuncs:      8,
		NumUtilFuncs:  4,
		BlocksPerFunc: [2]int{4, 8},
		BlockLen:      [2]int{10, 24},
		ChainProb:     0.35,
		ChainLen:      [2]int{6, 10},
		HubFanout:     [2]int{9, 14},
		HubSpacing:    [2]int{9, 14}, // beyond most chains: no second hub group
		HubAdjacent:   0.6,           // direct hub-to-hub dependences otherwise
		ChainLoadPct:  0.3,
		ChainColdPct:  0.5,
		LoopCarried:   true,
		PredFrac:      0.05,
		HighRegFrac:   0.12,
		FPFrac:        0.01,
		DivFrac:       0.02,
		LoadFrac:      0.28,
		StoreFrac:     0.10,
		BigImmFrac:    0.10,
		CallProb:      0.05,
		BranchBias:    0.88,
		LoopBackPct:   0.97,
		SkipProb:      0.1,
		HotBytes:      64 << 10,
		ColdBytes:     64 << 20,
		ColdFrac:      0.35,
		Stride:        64, // line-crossing strides: streaming over big arrays
	}
	names := []string{"bzip2", "hmmer", "libquantum", "mcf", "gcc", "gobmk", "sjeng", "h264ref"}
	out := make([]App, 0, len(names))
	for i, n := range names {
		p := base
		p.Name = n
		p.Seed = 201 + int64(i)
		switch n {
		case "mcf": // pointer chasing, memory bound: no stride to predict
			p.ColdFrac = 0.55
			p.ChainLoadPct = 0.6
			p.Stride = 0
		case "sjeng": // search: irregular access
			p.Stride = 0
		case "libquantum": // streaming
			p.Stride = 64
			p.ColdFrac = 0.45
		case "gcc", "gobmk": // branchier, irregular access
			p.BranchBias = 0.8
			p.NumFuncs = 14
			p.Stride = 0
		case "h264ref":
			p.FPFrac = 0.05
			p.Stride = 4
		}
		out = append(out, App{Params: p})
	}
	return out
}

// SPECFloatApps returns the SPEC.float models of Table II.
func SPECFloatApps() []App {
	base := Params{
		Class:         SPECFloat,
		NumFuncs:      6,
		NumUtilFuncs:  3,
		BlocksPerFunc: [2]int{3, 6},
		BlockLen:      [2]int{12, 26},
		ChainProb:     0.40,
		ChainLen:      [2]int{8, 14},
		HubFanout:     [2]int{9, 14},
		HubSpacing:    [2]int{9, 14},
		HubAdjacent:   0.6,
		ChainLoadPct:  0.2,
		ChainColdPct:  0.5,
		LoopCarried:   true,
		PredFrac:      0.02,
		HighRegFrac:   0.10,
		FPFrac:        0.45,
		DivFrac:       0.03,
		LoadFrac:      0.25,
		StoreFrac:     0.10,
		BigImmFrac:    0.08,
		CallProb:      0.03,
		BranchBias:    0.95,
		LoopBackPct:   0.99,
		SkipProb:      0.05,
		HotBytes:      64 << 10,
		ColdBytes:     128 << 20,
		ColdFrac:      0.40,
		Stride:        64, // unit-line streaming: every access a new line
	}
	names := []string{"sperand", "namd", "gromacs", "calculix", "lbm", "milc", "dealII", "leslie3d"}
	out := make([]App, 0, len(names))
	for i, n := range names {
		p := base
		p.Name = n
		p.Seed = 301 + int64(i)
		switch n {
		case "lbm", "milc": // memory streaming
			p.ColdFrac = 0.5
			p.Stride = 128
		case "namd", "gromacs": // compute bound
			p.FPFrac = 0.55
			p.ColdFrac = 0.25
		case "calculix":
			p.DivFrac = 0.05
		}
		out = append(out, App{Params: p})
	}
	return out
}

// catalog is every suite's apps, built once for FindApp.
var catalog = sync.OnceValue(func() []App {
	return slices.Concat(MobileApps(), SPECIntApps(), SPECFloatApps())
})

// FindApp returns the catalog entry with the given name, searching all
// suites. The App is a copy: Params holds no references, so callers share
// no state through it.
func FindApp(name string) (App, bool) {
	apps := catalog()
	for i := range apps {
		if apps[i].Params.Name == name {
			return apps[i], true
		}
	}
	return App{}, false
}
