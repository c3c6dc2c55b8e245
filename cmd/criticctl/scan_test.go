package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"critics/internal/artifact"
	"critics/internal/server"
)

// TestArtifactClientAgainstStub exercises the artifacts client surface
// (list/stat/gc) against a stub daemon, plus the listing renderer the
// subcommand prints.
func TestArtifactClientAgainstStub(t *testing.T) {
	const digest = "sha256:0000000000000000000000000000000000000000000000000000000000000001"
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/artifacts", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"artifacts":[{"digest":"` + digest + `","size":4096,"refs":1,"tier":"mem"}]}`))
	})
	mux.HandleFunc("GET /v1/artifacts/{digest}", func(w http.ResponseWriter, r *http.Request) {
		if r.PathValue("digest") != digest {
			w.WriteHeader(http.StatusNotFound)
			w.Write([]byte(`{"error":"no artifact"}`))
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"digest":"` + digest + `","size":4096,"refs":1,"tier":"mem"}`))
	})
	mux.HandleFunc("POST /v1/artifacts/gc", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"removed":3,"freed":12288}`))
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	c := server.NewClient(srv.URL)
	ctx := context.Background()

	infos, err := c.ArtifactList(ctx)
	if err != nil {
		t.Fatalf("ArtifactList: %v", err)
	}
	if len(infos) != 1 || infos[0].Digest != digest || infos[0].Size != 4096 {
		t.Fatalf("ArtifactList = %+v", infos)
	}

	info, err := c.ArtifactStat(ctx, digest)
	if err != nil || info.Size != 4096 {
		t.Fatalf("ArtifactStat = (%+v, %v)", info, err)
	}
	if _, err := c.ArtifactStat(ctx, "sha256:"+strings.Repeat("f", 64)); err == nil {
		t.Fatal("stat of a missing digest succeeded, want 404 error")
	}

	gc, err := c.ArtifactGC(ctx)
	if err != nil || gc.Removed != 3 || gc.Freed != 12288 {
		t.Fatalf("ArtifactGC = (%+v, %v)", gc, err)
	}

	var b strings.Builder
	writeArtifactList(&b, infos)
	out := b.String()
	if !strings.Contains(out, digest) || !strings.Contains(out, "1 artifacts, 4096 bytes") {
		t.Fatalf("listing output missing fields:\n%s", out)
	}
	b.Reset()
	writeArtifactList(&b, nil)
	if !strings.Contains(b.String(), "empty") {
		t.Fatalf("empty listing = %q", b.String())
	}
}

// TestScanInputsFlagValidation: the flag combinations that cannot work must
// error before any network traffic.
func TestScanInputsFlagValidation(t *testing.T) {
	if _, _, err := scanInputs("", "", "", 0); err == nil {
		t.Fatal("no inputs accepted")
	}
	if _, _, err := scanInputs("", "img-only", "", 0); err == nil {
		t.Fatal("-image without -trace accepted")
	}
	if _, _, err := scanInputs("no-such-app", "", "", 100); err == nil {
		t.Fatal("unknown app accepted")
	}
	img, trc, err := scanInputs("acrobat", "", "", 500)
	if err != nil {
		t.Fatalf("catalog app inputs: %v", err)
	}
	if len(img) == 0 || len(trc) == 0 {
		t.Fatalf("empty inputs: image %d bytes, trace %d bytes", len(img), len(trc))
	}
	if err := artifact.Validate(artifact.Sum(img)); err != nil {
		t.Fatalf("image digest invalid: %v", err)
	}
}
