package sched_test

import (
	"crypto/sha256"
	"fmt"
	"math"
	"strings"
	"testing"

	"critics/internal/cache"
	"critics/internal/cpu"
	"critics/internal/exp"
	"critics/internal/layout"
	"critics/internal/sched"
)

// The types below cover the keyable grammar's corners: named scalar types,
// named and empty interfaces, unexported fields, nested arrays of anonymous
// structs and zero-size values.
type (
	keyName  string
	keyCount uint16
	keyIface interface{ M() }
	keyImpl  uint8 // implements keyIface; its methods do not format it
	keyGo    int   // formats itself; keyable only where fmt cannot call it
)

func (keyImpl) M()             {}
func (keyGo) GoString() string { return "keyGo!" }

type keyEdges struct {
	F64    float64
	F32    float32
	C64    complex64
	C128   complex128
	I8     int8
	I64    int64
	U8     uint8
	U64    uint64
	B      bool
	S      string
	Name   keyName
	Count  keyCount
	Any    any
	Iface  keyIface
	P      *int
	hidden int16
	hideS  string
	hideGo keyGo
	Nested [2]struct {
		A [2]int8
		B string
	}
	Empty struct{}
	Zero  [0]int
}

// TestKeyBytesMatchFmt is the differential test of KeyOf's encoder: for
// every key part the experiment layer builds and for the grammar's edge
// values, the rendered bytes equal fmt's %#v, so keys (and the build span
// ids they address) are unchanged by not calling fmt.
func TestKeyBytesMatchFmt(t *testing.T) {
	negZero := math.Copysign(0, -1)
	var parts []any
	for _, suite := range exp.SuiteOrder {
		for _, a := range exp.Suites()[suite] {
			parts = append(parts, a.Params)
		}
	}
	cfg := cpu.DefaultConfig()
	trrip := cpu.DefaultConfig()
	trrip.Hier.L1I.Policy = cache.PolicyTRRIP
	parts = append(parts, cfg, trrip)
	for _, c := range []*exp.Context{exp.NewContext(), exp.QuickContext()} {
		parts = append(parts, c.ProfilePlan, c.Seed, c.WarmupArch, c.WarmArch, c.MeasureArch, c.HighFanout)
	}
	for _, kind := range []string{
		exp.VarBase, exp.VarHoist, exp.VarCritIC, exp.VarCritICIdeal, exp.VarCritICBranch,
		exp.VarOPP16, exp.VarCompress, exp.VarOPP16CritIC, "critic-len-3", "critic-frac-50",
	} {
		parts = append(parts, kind)
		for _, lay := range layout.Kinds() {
			parts = append(parts, exp.FrontendKind(kind, lay))
		}
	}
	parts = append(parts, true, false, 1.0, 0.5, "meas", "prog", "prof", "variant")

	edge := keyEdges{
		F64: negZero, F32: -1.5e-7, C64: complex(float32(math.Inf(1)), float32(math.NaN())),
		C128: complex(negZero, negZero), I8: math.MinInt8, I64: math.MinInt64, U8: 255,
		U64: math.MaxUint64, B: true, S: "q\"uote\n\ttab é ✓ \xff\xfe", Name: "named\x00",
		Count: 0xbeef, Any: nil, Iface: nil, hidden: -7, hideS: "`raw`", hideGo: 9,
	}
	edge.Nested[1].A = [2]int8{-1, 1}
	edge.Nested[1].B = "nested"
	withIfaces := edge
	withIfaces.Any = [1]keyName{"in any"}
	withIfaces.Iface = keyImpl(3)
	parts = append(parts, edge, withIfaces, keyEdges{}, [3]any{nil, 1, keyImpl(2)})
	for _, f := range []float64{negZero, 0, math.Inf(1), math.Inf(-1), math.NaN(), 1e21, 1e20, 1e-5, 123456789, 0.1, math.MaxFloat64, math.SmallestNonzeroFloat64} {
		parts = append(parts, f, float32(f), complex(f, f), complex(1, f), complex64(complex(f, -f)))
	}
	parts = append(parts,
		int8(-128), uint8(255), int16(-1), uint16(0), uint32(1<<31), uint(7), int(-42),
		uint8(10), uint64(15), uint16(16),
		keyName("n\\"), keyCount(65535), keyImpl(0), struct{}{}, [0]int{}, [2][0]int{},
		(*int)(nil), (*keyEdges)(nil), [2]struct{ X, y float32 }{{1, -0.5}, {math.MaxFloat32, 3}},
		"", " \U0001F600", "\xed\xa0\x80",
	)

	var all strings.Builder
	for i, p := range parts {
		fmt.Fprintf(&all, "%#v\x00", p)
		got, err := sched.RenderKeyPart(p)
		if err != nil {
			t.Errorf("part %d (%T): %v", i, p, err)
			continue
		}
		if want := fmt.Sprintf("%#v", p); got != want {
			t.Errorf("part %d (%T):\n got %s\nwant %s", i, p, got, want)
		}
	}
	if sched.KeyOf(parts...) != sched.Key(sha256.Sum256([]byte(all.String()))) {
		t.Error("KeyOf over every part differs from the SHA-256 of their NUL-terminated fmt renderings")
	}
}

// FuzzKeyOf asserts the encoder/fmt equality on keyEdges filled from fuzzed
// scalars.
func FuzzKeyOf(f *testing.F) {
	f.Add(0.0, float32(0), int64(0), uint64(0), "", true)
	f.Add(math.Copysign(0, -1), float32(math.Inf(-1)), int64(math.MinInt64), uint64(math.MaxUint64), "\xff\"\n", false)
	f.Add(math.NaN(), float32(1e-45), int64(-1), uint64(0x7ff8000000000001), "é✓`", true)
	f.Fuzz(func(t *testing.T, f64 float64, f32 float32, i int64, u uint64, s string, b bool) {
		// Longer strings add no quoting cases, and minimizing an
		// interesting input is quadratic in its string's length.
		s = s[:min(len(s), 32)]
		v := keyEdges{
			F64: f64, F32: f32,
			C64:  complex(f32, float32(math.Float64frombits(u))),
			C128: complex(math.Float64frombits(u), f64),
			I8:   int8(i), I64: i, U8: uint8(u), U64: u, B: b,
			S: s, Name: keyName(s), Count: keyCount(u >> 48),
			hidden: int16(i >> 8), hideS: s, hideGo: keyGo(i),
		}
		v.Nested[0].A = [2]int8{int8(u), int8(u >> 8)}
		v.Nested[1].B = s
		if b {
			v.Any = f64
			v.Iface = keyImpl(u)
		} else {
			v.Any = s
		}
		got, err := sched.RenderKeyPart(v)
		if err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("%#v", v); got != want {
			t.Fatalf("\n got %s\nwant %s", got, want)
		}
	})
}
