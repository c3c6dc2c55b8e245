// FuzzScan lives in the external test package: it drives internal/scan,
// which imports binimg, so an in-package fuzz target would be an import
// cycle. The corpus still lives under this package's testdata/fuzz/FuzzScan.
package binimg_test

import (
	"bytes"
	"testing"

	"critics/internal/binimg"
	"critics/internal/scan"
	"critics/internal/trace"
	"critics/internal/workload"
)

// FuzzScan runs the whole source-free scan pipeline — streaming image
// decode, trace-file decode, per-chunk DFG scoring, report merge — over
// arbitrary image and trace bytes. Adversarial inputs (truncated images,
// CDP-desynced mode runs, garbage or length-lying trace headers) must come
// back as an error, never a panic, an out-of-bounds access or a runaway
// allocation.
func FuzzScan(f *testing.F) {
	f.Add([]byte{}, []byte{})
	f.Add([]byte{0, 0, 0, 0}, []byte("CTRC\x01"))

	// A real assembled image and a real trace as the structured seeds, plus
	// a CDP-desynced variant (corrupted halfword inside a Thumb run) and a
	// truncated one.
	apps := workload.MobileApps()
	p := workload.Generate(apps[0].Params)
	if img, err := binimg.Assemble(p); err == nil {
		g := trace.NewGenerator(p, apps[0].Params.Seed)
		dyns := g.Generate(nil, 2000)
		addrs := make([]uint32, len(dyns))
		for i := range dyns {
			addrs[i] = dyns[i].Addr
		}
		trc := scan.TraceBytes(addrs, 256)
		if len(img) > 8192 {
			img = img[:8192]
		}
		f.Add(img, trc)
		if len(img) > 64 {
			desynced := bytes.Clone(img)
			desynced[len(desynced)/2] ^= 0xff
			f.Add(desynced, trc)
			f.Add(img[:len(img)/2+1], trc[:len(trc)/2])
		}
	}

	f.Fuzz(func(t *testing.T, img, trc []byte) {
		rep, err := scan.Run(img, bytes.NewReader(trc), "sha256:img", "sha256:trc")
		if err != nil {
			return
		}
		// A report that decodes must also render and stay self-consistent.
		if rep.Text() == "" {
			t.Fatal("successful scan rendered an empty report")
		}
		if rep.SavedBytes < 0 || rep.FetchBytes < 0 {
			t.Fatalf("negative byte accounting: saved=%d fetch=%d", rep.SavedBytes, rep.FetchBytes)
		}
		for _, o := range rep.Opportunities {
			if o.Len <= 0 || o.SavedBytes < 0 {
				t.Fatalf("malformed opportunity %+v", o)
			}
		}
	})
}
