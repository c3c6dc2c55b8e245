package layout

import (
	"testing"

	"critics/internal/cache"
	"critics/internal/core"
	"critics/internal/prog"
	"critics/internal/trace"
	"critics/internal/workload"
)

func testApp(t *testing.T) (*prog.Program, *core.Profile) {
	t.Helper()
	apps := workload.MobileApps()
	p := workload.Generate(apps[0].Params)
	return p, core.BuildProfile(p, apps[0].Params.Seed, trace.SamplePlan{Samples: 4, Length: 8000, Gap: 2000, Warmup: 5000}, core.DefaultConfig())
}

func isPermutation(order []int, n int) bool {
	if len(order) != n {
		return false
	}
	seen := make([]bool, n)
	for _, fi := range order {
		if fi < 0 || fi >= n || seen[fi] {
			return false
		}
		seen[fi] = true
	}
	return true
}

func TestOrderKinds(t *testing.T) {
	p, prof := testApp(t)
	for _, kind := range []string{"", KindNone} {
		if order, err := Order(p, prof, kind); err != nil || order != nil {
			t.Errorf("Order(%q) = (%v, %v), want identity nil", kind, order, err)
		}
	}
	for _, kind := range []string{KindHot, KindC3} {
		order, err := Order(p, prof, kind)
		if err != nil {
			t.Fatalf("Order(%q): %v", kind, err)
		}
		if !isPermutation(order, len(p.Funcs)) {
			t.Fatalf("Order(%q) is not a permutation of %d functions", kind, len(p.Funcs))
		}
		// Deterministic: same inputs, same order.
		again, _ := Order(p, prof, kind)
		for i := range order {
			if order[i] != again[i] {
				t.Fatalf("Order(%q) not deterministic at %d", kind, i)
			}
		}
	}
	if _, err := Order(p, prof, "bogus"); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

func TestHotOrderSortsByHeat(t *testing.T) {
	p, prof := testApp(t)
	heat := FuncHeat(p, prof)
	order := hotOrder(p, prof)
	for i := 1; i < len(order); i++ {
		if heat[order[i-1]] < heat[order[i]] {
			t.Fatalf("hot order position %d: heat %d before %d", i, heat[order[i-1]], heat[order[i]])
		}
	}
}

// TestApplyPreservesStructure: a relayout changes only addresses — function
// ids stay index-aligned, the program still validates, total code size is
// unchanged (same functions, same alignment discipline), and the input
// program is untouched.
func TestApplyPreservesStructure(t *testing.T) {
	p, prof := testApp(t)
	before := p.CodeBytes
	for _, kind := range []string{KindHot, KindC3} {
		q, err := ApplyKind(p, prof, kind)
		if err != nil {
			t.Fatalf("ApplyKind(%s): %v", kind, err)
		}
		if err := q.Validate(); err != nil {
			t.Fatalf("relaid program invalid: %v", err)
		}
		if q.CodeBytes != before {
			t.Errorf("%s: code bytes %d -> %d; relayout must not change size", kind, before, q.CodeBytes)
		}
		for i, f := range q.Funcs {
			if f.ID != i {
				t.Fatalf("%s: function %d has id %d after relayout", kind, i, f.ID)
			}
		}
	}
	if p.CodeBytes != before {
		t.Error("input program mutated")
	}
}

// TestRelayoutPreservesDynamicStream: trace generation keys its randomness on
// instruction identity, so the relaid program must replay the exact same
// dynamic instruction sequence — only fetch addresses differ. This is the
// invariant that makes layout a pure front-end axis: any cycle delta in a
// sweep is I-cache/BPU behavior, never a different workload.
func TestRelayoutPreservesDynamicStream(t *testing.T) {
	p, prof := testApp(t)
	apps := workload.MobileApps()
	g := trace.NewGenerator(p, apps[0].Params.Seed)
	g.Skip(1000)
	base := g.Generate(nil, 20000)

	q, err := ApplyKind(p, prof, KindC3)
	if err != nil {
		t.Fatal(err)
	}
	gq := trace.NewGenerator(q, apps[0].Params.Seed)
	gq.Skip(1000)
	relaid := gq.Generate(nil, 20000)

	if len(base) != len(relaid) {
		t.Fatalf("stream lengths differ: %d vs %d", len(base), len(relaid))
	}
	moved := 0
	for i := range base {
		if base[i].ID != relaid[i].ID || base[i].Op != relaid[i].Op || base[i].Seq != relaid[i].Seq {
			t.Fatalf("dyn %d differs beyond its address: %+v vs %+v", i, base[i], relaid[i])
		}
		if base[i].Addr != relaid[i].Addr {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("c3 relayout moved no instruction; the pass is vacuous on this app")
	}
}

func TestApplyRejectsBadOrder(t *testing.T) {
	p, _ := testApp(t)
	if _, err := Apply(p, []int{0}); err == nil {
		t.Error("short order accepted")
	}
	dup := make([]int, len(p.Funcs))
	if _, err := Apply(p, dup); err == nil && len(p.Funcs) > 1 {
		t.Error("repeated-entry order accepted")
	}
}

func TestTemperatures(t *testing.T) {
	p, prof := testApp(t)
	hints := Temperatures(p, prof)
	if hints.Len() == 0 {
		t.Fatal("no temperature ranges from a real profile")
	}
	// Ranges must satisfy the cache package's invariants (ascending,
	// non-overlapping) — Add enforces them, so a populated table implies it,
	// but a hot and a cold range should both exist for a real app profile.
	var sawHot, sawCold bool
	for i := 0; i < hints.Len(); i++ {
		switch hints.Ranges[i].Temp {
		case cache.TempHot:
			sawHot = true
		case cache.TempCold:
			sawCold = true
		case cache.TempDefault:
			t.Errorf("range %d carries TempDefault; default ranges are supposed to be omitted", i)
		}
	}
	if !sawHot || !sawCold {
		t.Errorf("expected hot and cold ranges, got hot=%v cold=%v", sawHot, sawCold)
	}
	// The hottest function's entry address must be hinted hot.
	heat := FuncHeat(p, prof)
	hottest, best := 0, int64(-1)
	for fi, h := range heat {
		if h > best {
			hottest, best = fi, h
		}
	}
	start, _, ok := funcExtent(p.Funcs[hottest])
	if !ok {
		t.Fatal("hottest function has no extent")
	}
	if got := hints.Temp(start); got != cache.TempHot {
		t.Errorf("hottest function's entry has temp %d, want hot", got)
	}

	// Nil profile: nothing to say.
	if empty := Temperatures(p, nil); empty.Len() != 0 {
		t.Errorf("nil profile produced %d ranges", empty.Len())
	}
}

func TestTempOf(t *testing.T) {
	for _, tc := range []struct {
		h    int64
		cum  float64
		want uint8
	}{
		{0, 1, cache.TempCold},
		{100, 0.2, cache.TempHot},
		{100, 0.5, cache.TempHot},
		{100, 0.7, cache.TempWarm},
		{100, 0.9, cache.TempDefault},
	} {
		if got := TempOf(tc.h, tc.cum); got != tc.want {
			t.Errorf("TempOf(%d, %.2f) = %d, want %d", tc.h, tc.cum, got, tc.want)
		}
	}
}
