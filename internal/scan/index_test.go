package scan

import (
	"bytes"
	"errors"
	"strings"
	"sync"
	"testing"

	"critics/internal/binimg"
	"critics/internal/compiler"
	"critics/internal/core"
	"critics/internal/prog"
	"critics/internal/trace"
	"critics/internal/workload"
)

// TestIndexMatchesDecode checks the dense index against the buffered decoder
// over every catalog app's image and over the CritIC (CDP and branch
// switching) and OPP16 binaries of two apps, whose T16 runs and CDP
// commands put instructions at halfword addresses: every decoded element is
// found at its address with the same fields, and every other address is
// unknown.
func TestIndexMatchesDecode(t *testing.T) {
	var catalog []workload.App
	catalog = append(catalog, workload.MobileApps()...)
	catalog = append(catalog, workload.SPECIntApps()...)
	catalog = append(catalog, workload.SPECFloatApps()...)
	var pads, halfwordStarts int
	for _, a := range catalog {
		p, h := checkIndex(t, a.Params.Name, workload.Generate(a.Params))
		pads += p
		halfwordStarts += h
	}
	for _, name := range []string{"music", "office"} {
		a, _ := workload.FindApp(name)
		p := workload.Generate(a.Params)
		prof := core.BuildProfile(p, a.Params.Seed, trace.SamplePlan{Samples: 3, Length: 10_000, Gap: 3000, Warmup: 5000}, core.DefaultConfig())
		cdp, _, err := compiler.ApplyCritIC(p, prof, compiler.Options{MaxLen: 5, Switch: compiler.SwitchCDP})
		if err != nil {
			t.Fatal(err)
		}
		branch, _, err := compiler.ApplyCritIC(p, prof, compiler.Options{MaxLen: 5, Switch: compiler.SwitchBranch})
		if err != nil {
			t.Fatal(err)
		}
		opp16, _, err := compiler.ApplyOPP16(p, 3)
		if err != nil {
			t.Fatal(err)
		}
		for variant, q := range map[string]*prog.Program{"critic": cdp, "critic-branch": branch, "opp16": opp16} {
			p, h := checkIndex(t, name+" "+variant, q)
			pads += p
			halfwordStarts += h
		}
	}
	if pads == 0 || halfwordStarts == 0 {
		t.Fatalf("images checked %d padding halfwords and %d halfword-aligned instructions; want both", pads, halfwordStarts)
	}
}

// checkIndex assembles p and compares its index with binimg.Decode. It
// returns how many padding halfwords and how many instructions starting at
// an address ≡ 2 (mod 4) it checked.
func checkIndex(t *testing.T, name string, p *prog.Program) (pads, halfwordStarts int) {
	t.Helper()
	img, err := binimg.Assemble(p)
	if err != nil {
		t.Fatalf("%s: Assemble: %v", name, err)
	}
	decoded, err := binimg.Decode(img)
	if err != nil {
		t.Fatalf("%s: Decode: %v", name, err)
	}
	idx, err := BuildIndex(bytes.NewReader(img), int64(len(img)))
	if err != nil {
		t.Fatalf("%s: BuildIndex: %v", name, err)
	}
	var thumb, cdps int
	covered := make([]bool, (len(img)+1)/2) // halfwords inside an instruction
	starts := make([]bool, len(covered))
	for _, d := range decoded {
		width := uint8(4)
		if d.Thumb {
			width = 2
			thumb++
		}
		if d.IsCDP {
			cdps++
		}
		if d.Addr%4 == 2 {
			halfwordStarts++
		}
		want := ent{inst: d.Inst, size: width, thumb: d.Thumb, isCDP: d.IsCDP, cdpN: uint8(d.CDPCount)}
		if got, ok := idx.lookup(d.Addr); !ok || got != want {
			t.Fatalf("%s: index at %#x = %+v (found %v), Decode has %+v", name, d.Addr, got, ok, want)
		}
		if _, ok := idx.lookup(d.Addr + 1); ok {
			t.Fatalf("%s: odd address %#x is known", name, d.Addr+1)
		}
		starts[d.Addr/2] = true
		for a := d.Addr; a < d.Addr+uint32(width); a += 2 {
			covered[a/2] = true
		}
	}
	if idx.Instrs != len(decoded) || idx.ThumbInstrs != thumb || idx.CDPs != cdps {
		t.Fatalf("%s: index counts %d/%d/%d instrs/thumb/cdps, Decode %d/%d/%d",
			name, idx.Instrs, idx.ThumbInstrs, idx.CDPs, len(decoded), thumb, cdps)
	}
	// Padding and the second halfword of an A32 word are unknown.
	for i := range starts {
		if !covered[i] {
			pads++
		}
		if _, ok := idx.lookup(uint32(2 * i)); ok != starts[i] {
			t.Fatalf("%s: halfword %#x known=%v, instruction start=%v", name, 2*i, ok, starts[i])
		}
	}
	end := uint32(len(img))
	for _, a := range []uint32{end, end + 1, end + 2, end + 4, 0xfffffffe, 0xffffffff} {
		if _, ok := idx.lookup(a); ok {
			t.Fatalf("%s: address %#x past the %d-byte image is known", name, a, len(img))
		}
	}
	return pads, halfwordStarts
}

// TestBuildIndexSize: the declared size bounds the stream. A stream longer
// than its size fails; a shorter one indexes what it has.
func TestBuildIndexSize(t *testing.T) {
	img, _ := appImage(t, 0)
	if _, err := BuildIndex(bytes.NewReader(img), int64(len(img))-4); err == nil || !strings.Contains(err.Error(), "longer") {
		t.Fatalf("overlong stream: err = %v", err)
	}
	if _, err := BuildIndex(bytes.NewReader(img), -1); err == nil {
		t.Fatal("negative size accepted")
	}
	short, err := BuildIndex(bytes.NewReader(img), int64(len(img))+64)
	if err != nil {
		t.Fatalf("short stream: %v", err)
	}
	exact, err := BuildIndex(bytes.NewReader(img), int64(len(img)))
	if err != nil {
		t.Fatal(err)
	}
	if short.Instrs != exact.Instrs {
		t.Fatalf("short stream indexed %d instrs, exact %d", short.Instrs, exact.Instrs)
	}
}

// TestIndexCache: concurrent lookups of one digest share one build, later
// ones hit without reading the image, and a failed build is returned but
// not retained.
func TestIndexCache(t *testing.T) {
	img, _ := appImage(t, 0)
	c := NewIndexCache()
	const n = 8
	var wg sync.WaitGroup
	idxs := make([]*Index, n)
	for i := range idxs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			idx, _, err := c.Get("sha256:img", bytes.NewReader(img), int64(len(img)))
			if err != nil {
				t.Error(err)
			}
			idxs[i] = idx
		}()
	}
	wg.Wait()
	for _, idx := range idxs {
		if idx != idxs[0] {
			t.Fatal("concurrent lookups of one digest returned different indexes")
		}
	}
	if st := c.Stats(); st.Misses != 1 || st.Hits != n-1 {
		t.Fatalf("stats %+v, want 1 miss and %d hits", st, n-1)
	}
	if _, hit, err := c.Get("sha256:img", failingReader{}, int64(len(img))); !hit || err != nil {
		t.Fatalf("cached lookup read the image: hit=%v err=%v", hit, err)
	}

	if _, _, err := c.Get("sha256:bad", failingReader{}, 64); !errors.Is(err, errRead) {
		t.Fatalf("failed build: err = %v, want %v", err, errRead)
	}
	idx, hit, err := c.Get("sha256:bad", bytes.NewReader(img), int64(len(img)))
	if err != nil || hit || idx.Instrs != idxs[0].Instrs {
		t.Fatalf("lookup after a failed build: hit=%v err=%v; want a fresh build", hit, err)
	}
}

var errRead = errors.New("read failed")

type failingReader struct{}

func (failingReader) Read([]byte) (int, error) { return 0, errRead }
