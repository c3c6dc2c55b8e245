package scan

import (
	"bytes"
	"slices"
	"testing"

	"critics/internal/binimg"
	"critics/internal/trace"
	"critics/internal/workload"
)

// TestSynthesizedProducersMatchGenerator is the exact dependence oracle for
// the source-free scanner: over each mobile app's assembled image and the
// generator's own trace, every instruction's synthesized producers equal
// the generator's Dyn.Prod, in order. The scanner resets its tracking at
// each chunk start, so a producer before the chunk counts as none.
func TestSynthesizedProducersMatchGenerator(t *testing.T) {
	const n = 32768
	chunk := Options{}.withDefaults().ChunkSize
	for _, app := range workload.MobileApps() {
		p := workload.Generate(app.Params)
		img, err := binimg.Assemble(p)
		if err != nil {
			t.Fatalf("%s: Assemble: %v", app.Params.Name, err)
		}
		idx, err := BuildIndex(bytes.NewReader(img), int64(len(img)))
		if err != nil {
			t.Fatalf("%s: BuildIndex: %v", app.Params.Name, err)
		}
		want := trace.NewGenerator(p, app.Params.Seed).Generate(nil, n)
		addrs := make([]uint32, len(want))
		for i := range want {
			addrs[i] = want[i].Addr
		}
		mismatches := 0
		for start := 0; start < n; start += chunk {
			end := min(start+chunk, n)
			var res ChunkResult
			got, _, _ := synthesize(idx, addrs[start:end], &res)
			if res.Unknown != 0 || len(got) != end-start {
				t.Fatalf("%s: chunk at %d: %d of %d addresses unknown", app.Params.Name, start, res.Unknown, end-start)
			}
			for i := range got {
				w := &want[start+i]
				var prods []int64
				for _, pr := range w.Prod[:w.NProd] {
					if pr >= w.Seq-int64(i) {
						prods = append(prods, pr-(w.Seq-int64(i)))
					}
				}
				g := got[i].Prod[:got[i].NProd]
				if !slices.Equal(g, prods) {
					if mismatches++; mismatches <= 3 {
						t.Errorf("%s: instruction %d (%v at %#x): synthesized producers %v, generator's %v (chunk-relative)",
							app.Params.Name, start+i, w.Op, w.Addr, g, prods)
					}
				}
			}
		}
		if mismatches > 0 {
			t.Errorf("%s: %d of %d instructions' producers differ from the generator's", app.Params.Name, mismatches, n)
		}
	}
}
