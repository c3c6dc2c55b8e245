package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"critics"
	"critics/internal/artifact"
	"critics/internal/binimg"
	"critics/internal/dist"
	"critics/internal/fleet"
	"critics/internal/obs"
	"critics/internal/scan"
	"critics/internal/telemetry"
	"critics/internal/workload"
)

// scanFixture assembles a small catalog app's binary image and a chunked
// trace file — the scan pipeline's two artifacts.
func scanFixture(t *testing.T, instrs int) (img, trc []byte) {
	t.Helper()
	img, addrs, err := critics.ScanInputs("acrobat", instrs)
	if err != nil {
		t.Fatalf("ScanInputs: %v", err)
	}
	return img, scan.TraceBytes(addrs, 1024)
}

// TestSubmitBodyTooLarge: an oversized inline job body must answer 413 with
// the documented limit, steering callers to the artifact store.
func TestSubmitBodyTooLarge(t *testing.T) {
	_, c := start(t, stubConfig(echoStub))

	body := bytes.Repeat([]byte("x"), maxBodyBytes+1)
	resp, err := http.Post(c.base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/jobs: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized submit = %d, want 413", resp.StatusCode)
	}
	var er ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		t.Fatalf("decode 413 body: %v", err)
	}
	if want := strconv.Itoa(maxBodyBytes); !bytes.Contains([]byte(er.Error), []byte(want)) {
		t.Fatalf("413 message %q does not state the %s-byte limit", er.Error, want)
	}
	// Sanity: a normal-sized request is unaffected.
	if _, err := c.Submit(context.Background(), SubmitRequest{App: "acrobat"}); err != nil {
		t.Fatalf("normal submit after 413: %v", err)
	}
}

// TestArtifactUploadLifecycle covers the chunked-upload protocol end to end
// over HTTP: resumable chunks, duplicate idempotence, stale-offset 409 with
// the committed offset, digest mismatch 422 leaving no orphan.
func TestArtifactUploadLifecycle(t *testing.T) {
	_, c := start(t, stubConfig(echoStub))
	ctx := context.Background()

	data := bytes.Repeat([]byte("artifact lifecycle "), 4096)
	digest := artifact.Sum(data)

	// Chunked upload with a deliberately small chunk size: many PUTs.
	got, err := c.UploadArtifact(ctx, data, 1000)
	if err != nil {
		t.Fatalf("UploadArtifact: %v", err)
	}
	if got != digest {
		t.Fatalf("uploaded digest %s, want %s", got, digest)
	}

	// Duplicate upload: idempotent no-op, same digest.
	if got, err = c.UploadArtifact(ctx, data, 0); err != nil || got != digest {
		t.Fatalf("duplicate upload = (%s, %v), want (%s, nil)", got, err, digest)
	}

	// Round-trip the bytes and the metadata.
	back, err := c.DownloadArtifact(ctx, digest)
	if err != nil {
		t.Fatalf("DownloadArtifact: %v", err)
	}
	if !bytes.Equal(back, data) {
		t.Fatalf("downloaded %d bytes != uploaded %d", len(back), len(data))
	}
	info, err := c.ArtifactStat(ctx, digest)
	if err != nil {
		t.Fatalf("ArtifactStat: %v", err)
	}
	if info.Digest != digest || info.Size != int64(len(data)) {
		t.Fatalf("stat = %+v, want digest %s size %d", info, digest, len(data))
	}

	// Interrupted upload resumes at the committed offset: commit a prefix of
	// a second blob, then start the client from offset 0 — the 409 must carry
	// the committed offset and the client must resume, not restart.
	data2 := bytes.Repeat([]byte("resume me "), 2048)
	digest2 := artifact.Sum(data2)
	if _, err := c.putChunk(ctx, digest2, 0, data2[:4096], false); err != nil {
		t.Fatalf("seed partial upload: %v", err)
	}
	st, err := c.putChunk(ctx, digest2, 0, data2[:1], false)
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Code != http.StatusConflict {
		t.Fatalf("stale offset = %v, want 409", err)
	}
	if st.Committed != 4096 {
		t.Fatalf("409 committed = %d, want 4096", st.Committed)
	}
	if _, err := c.UploadArtifact(ctx, data2, 4096); err != nil {
		t.Fatalf("resuming upload: %v", err)
	}
	if info, err := c.ArtifactStat(ctx, digest2); err != nil || info.Size != int64(len(data2)) {
		t.Fatalf("resumed blob stat = (%+v, %v)", info, err)
	}

	// Digest mismatch on finalize: 422, and nothing committed under the
	// claimed digest — a later honest upload succeeds.
	bogus := artifact.Sum([]byte("something else entirely"))
	_, err = c.putChunk(ctx, bogus, 0, []byte("not that content"), true)
	if !errors.As(err, &apiErr) || apiErr.Code != http.StatusUnprocessableEntity {
		t.Fatalf("digest mismatch = %v, want 422", err)
	}
	if _, err := c.ArtifactStat(ctx, bogus); err == nil {
		t.Fatalf("mismatched upload left an orphan under %s", bogus)
	}
	if _, err := c.UploadArtifact(ctx, []byte("something else entirely"), 0); err != nil {
		t.Fatalf("honest upload after mismatch: %v", err)
	}

	// List and GC through the client (GC removes every committed blob).
	infos, err := c.ArtifactList(ctx)
	if err != nil || len(infos) == 0 {
		t.Fatalf("ArtifactList = (%d, %v), want non-empty", len(infos), err)
	}
	gc, err := c.ArtifactGC(ctx)
	if err != nil {
		t.Fatalf("ArtifactGC: %v", err)
	}
	if gc.Removed != len(infos) {
		t.Fatalf("GC removed %d, want %d", gc.Removed, len(infos))
	}
	if infos, _ = c.ArtifactList(ctx); len(infos) != 0 {
		t.Fatalf("store not empty after GC: %+v", infos)
	}
}

// TestArtifactChunkTooLarge: a single chunk beyond MaxUploadChunkBytes must
// answer 413 and leave the upload resumable from its prior committed offset.
func TestArtifactChunkTooLarge(t *testing.T) {
	_, c := start(t, stubConfig(echoStub))
	ctx := context.Background()

	data := bytes.Repeat([]byte("y"), MaxUploadChunkBytes+1)
	digest := artifact.Sum(data)
	_, err := c.putChunk(ctx, digest, 0, data, true)
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized chunk = %v, want 413", err)
	}
	// Split into legal chunks, the same blob uploads fine.
	if _, err := c.UploadArtifact(ctx, data, 0); err != nil {
		t.Fatalf("chunked upload of the same blob: %v", err)
	}
}

// TestScanJobLocal: upload image + trace, run a scan job without a fleet,
// and check the ranked report comes back with scored opportunities.
func TestScanJobLocal(t *testing.T) {
	_, c := start(t, Config{QueueSize: 4, Workers: 1})
	ctx := context.Background()

	img, trc := scanFixture(t, 20000)
	imgDigest, err := c.UploadArtifact(ctx, img, 0)
	if err != nil {
		t.Fatalf("upload image: %v", err)
	}
	trcDigest, err := c.UploadArtifact(ctx, trc, 0)
	if err != nil {
		t.Fatalf("upload trace: %v", err)
	}

	st, err := c.Submit(ctx, SubmitRequest{Kind: KindScan, ImageDigest: imgDigest, TraceDigest: trcDigest})
	if err != nil {
		t.Fatalf("submit scan: %v", err)
	}
	st, err = c.Wait(ctx, st.ID, time.Minute)
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	if st.State != StateSucceeded {
		t.Fatalf("scan job ended %s: %s", st.State, st.Error)
	}
	raw, err := c.Result(ctx, st.ID)
	if err != nil {
		t.Fatalf("result: %v", err)
	}
	var res struct {
		Text   string      `json:"text"`
		Report scan.Report `json:"report"`
	}
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatalf("decode result: %v", err)
	}
	if res.Report.ImageDigest != imgDigest || res.Report.TraceDigest != trcDigest {
		t.Fatalf("report digests = %s/%s, want %s/%s",
			res.Report.ImageDigest, res.Report.TraceDigest, imgDigest, trcDigest)
	}
	if len(res.Report.Opportunities) == 0 {
		t.Fatal("scan found no opportunities in an unoptimized image")
	}
	if res.Text == "" {
		t.Fatal("empty report text")
	}
}

// TestScanJobMissingArtifact: a scan referencing a digest the store does not
// hold must fail with a message pointing at the upload endpoint.
func TestScanJobMissingArtifact(t *testing.T) {
	_, c := start(t, Config{QueueSize: 4, Workers: 1})
	ctx := context.Background()

	missing := artifact.Sum([]byte("never uploaded"))
	st, err := c.Submit(ctx, SubmitRequest{Kind: KindScan, ImageDigest: missing, TraceDigest: missing})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	st, err = c.Wait(ctx, st.ID, time.Minute)
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	if st.State != StateFailed {
		t.Fatalf("job ended %s, want failed", st.State)
	}
	if !bytes.Contains([]byte(st.Error), []byte("/v1/artifacts")) {
		t.Fatalf("error %q does not point at the upload endpoint", st.Error)
	}
}

// TestScanJobInvalidDigest: submit-time validation rejects malformed digests
// before a job is enqueued.
func TestScanJobInvalidDigest(t *testing.T) {
	_, c := start(t, stubConfig(echoStub))
	_, err := c.Submit(context.Background(), SubmitRequest{Kind: KindScan, ImageDigest: "sha256:nope", TraceDigest: "sha256:nope"})
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Code != http.StatusBadRequest {
		t.Fatalf("invalid digest submit = %v, want 400", err)
	}
}

// TestScanDistributedByteIdentical is the determinism acceptance check: the
// same scan through a two-worker fleet (workers fetching artifacts from the
// daemon by digest) and through pure local execution must produce
// byte-identical result documents.
func TestScanDistributedByteIdentical(t *testing.T) {
	img, trc := scanFixture(t, 30000)

	runScan := func(t *testing.T, withFleet bool) []byte {
		t.Helper()
		reg := telemetry.NewRegistry()
		cfg := Config{QueueSize: 4, Workers: 1, Registry: reg}
		var coordReg *telemetry.Registry
		if withFleet {
			coordReg = telemetry.NewRegistry()
			coord := dist.NewCoordinator(dist.Config{Registry: coordReg, RetryBackoff: 5 * time.Millisecond})
			defer coord.Close()
			cfg.Coordinator = coord
			s, c := start(t, cfg)
			// Workers fetch scan artifacts from the daemon itself.
			for i := 0; i < 2; i++ {
				store, err := artifact.Open(artifact.Config{Dir: t.TempDir()})
				if err != nil {
					t.Fatal(err)
				}
				wk := dist.NewWorker(dist.WorkerConfig{ArtifactSource: c.base, Artifacts: store})
				wsrv := httptest.NewServer(wk.Handler())
				defer wsrv.Close()
				coord.AddWorkerCapacity(wsrv.URL, 2)
			}
			_ = s
			raw := scanOnce(t, c, img, trc)
			if coordReg.Counter("critics_dist_tasks_dispatched_total", "").Value() == 0 {
				t.Fatal("no scan batches dispatched; the distributed run fell back to pure local execution")
			}
			return raw
		}
		_, c := start(t, cfg)
		return scanOnce(t, c, img, trc)
	}

	local := runScan(t, false)
	distributed := runScan(t, true)
	if !bytes.Equal(local, distributed) {
		t.Fatalf("distributed scan result differs from local:\nlocal:       %s\ndistributed: %s", local, distributed)
	}
}

// TestScanFleetFallback: a coordinator whose one worker has no artifact
// store gets every scan batch refused (422, not retried), so the daemon
// scores every batch itself. The report is byte-identical to the one scored
// without a fleet, and the chunk counter puts every chunk on the local path
// and none on the remote one.
func TestScanFleetFallback(t *testing.T) {
	img, trc := scanFixture(t, 30000)
	tr, err := scan.NewTraceReader(bytes.NewReader(trc))
	if err != nil {
		t.Fatal(err)
	}
	chunks := int64(tr.Chunks())
	_, lc := start(t, Config{QueueSize: 4, Workers: 1})
	want := scanOnce(t, lc, img, trc)

	reg, coordReg := telemetry.NewRegistry(), telemetry.NewRegistry()
	coord := dist.NewCoordinator(dist.Config{Registry: coordReg, RetryBackoff: 5 * time.Millisecond})
	defer coord.Close()
	wsrv := httptest.NewServer(dist.NewWorker(dist.WorkerConfig{}).Handler())
	defer wsrv.Close()
	coord.AddWorkerCapacity(wsrv.URL, 2)
	_, c := start(t, Config{QueueSize: 4, Workers: 1, Registry: reg, Coordinator: coord})
	if got := scanOnce(t, c, img, trc); !bytes.Equal(got, want) {
		t.Fatalf("fallback scan result differs from local:\nlocal:    %s\nfallback: %s", want, got)
	}

	// Two batches for the one healthy worker, each refused once.
	if n := coordReg.Counter("critics_dist_tasks_failed_total", "").Value(); n != 2 {
		t.Errorf("critics_dist_tasks_failed_total = %d, want 2: every batch refused by the fleet", n)
	}
	scored := func(path string) int64 {
		return reg.Counter("critics_scan_chunks_scored_total", "", telemetry.L("path", path)).Value()
	}
	if remote, local := scored("remote"), scored("local"); remote != 0 || local != chunks {
		t.Errorf("chunks scored remote %d, local %d; want 0 and %d", remote, local, chunks)
	}
}

// scanOnce uploads the fixtures, runs one scan job and returns the raw
// result document.
func scanOnce(t *testing.T, c *Client, img, trc []byte) []byte {
	t.Helper()
	ctx := context.Background()
	imgDigest, err := c.UploadArtifact(ctx, img, 0)
	if err != nil {
		t.Fatalf("upload image: %v", err)
	}
	trcDigest, err := c.UploadArtifact(ctx, trc, 0)
	if err != nil {
		t.Fatalf("upload trace: %v", err)
	}
	st, err := c.Submit(ctx, SubmitRequest{Kind: KindScan, ImageDigest: imgDigest, TraceDigest: trcDigest})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	st, err = c.Wait(ctx, st.ID, 2*time.Minute)
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	if st.State != StateSucceeded {
		t.Fatalf("scan ended %s: %s", st.State, st.Error)
	}
	raw, err := c.Result(ctx, st.ID)
	if err != nil {
		t.Fatalf("result: %v", err)
	}
	return raw
}

// TestProfileArchive: an accepted sketch is archived content-addressed and
// its digest returned, so identical re-sends dedupe to one blob.
func TestProfileArchive(t *testing.T) {
	s, c := start(t, stubConfig(echoStub))
	ctx := context.Background()

	enc := fleet.BuildDeviceSketch(workload.MobileApps()[0], "d0", 1).Encode()
	if err := c.PostProfile(ctx, enc); err != nil {
		t.Fatalf("PostProfile: %v", err)
	}
	if err := c.PostProfile(ctx, enc); err != nil {
		t.Fatalf("PostProfile resend: %v", err)
	}
	digest := artifact.Sum(enc)
	info, ok := s.artifacts.Stat(digest)
	if !ok {
		t.Fatalf("accepted sketch not archived under %s", digest)
	}
	if info.Size != int64(len(enc)) {
		t.Fatalf("archived %d bytes, want %d", info.Size, len(enc))
	}
	if n := len(s.artifacts.List()); n != 1 {
		t.Fatalf("store holds %d blobs after duplicate sends, want 1", n)
	}
}

// TestProfileAcceptedWireForm: the typed ingest acknowledgement encodes to
// the same bytes as a string map with the same keys.
func TestProfileAcceptedWireForm(t *testing.T) {
	digest := artifact.Sum([]byte("sketch"))
	var got, want bytes.Buffer
	if err := json.NewEncoder(&got).Encode(ProfileAccepted{App: "acrobat", Digest: digest, Status: "accepted"}); err != nil {
		t.Fatal(err)
	}
	if err := json.NewEncoder(&want).Encode(map[string]string{"status": "accepted", "app": "acrobat", "digest": digest}); err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Fatalf("acknowledgement encodes as %q, want %q", got.String(), want.String())
	}
}

// scanIndexHit returns the hit attribute of a job's scan-index span.
func scanIndexHit(t *testing.T, c *Client, id string) string {
	t.Helper()
	raw, err := c.Trace(context.Background(), id, "")
	if err != nil {
		t.Fatalf("trace %s: %v", id, err)
	}
	var doc obs.TraceDoc
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	var find func(nodes []*obs.Node) *obs.Node
	find = func(nodes []*obs.Node) *obs.Node {
		for _, n := range nodes {
			if n.ID == "scan-index" {
				return n
			}
			if m := find(n.Children); m != nil {
				return m
			}
		}
		return nil
	}
	n := find(doc.Spans)
	if n == nil {
		t.Fatalf("job %s has no scan-index span", id)
	}
	for _, a := range n.Attrs {
		if a.Key == "hit" {
			return a.Value
		}
	}
	return ""
}

// TestScanIndexMemoized: a second scan of one image, with another trace, is
// served from the daemon's index cache, and both reports are byte-identical
// to a fresh daemon's. Once GC removes the image, a scan fails as if it had
// never been uploaded instead of being served from the cache.
func TestScanIndexMemoized(t *testing.T) {
	img, addrs, err := critics.ScanInputs("acrobat", 20000)
	if err != nil {
		t.Fatal(err)
	}
	traces := [][]byte{scan.TraceBytes(addrs[:12000], 1024), scan.TraceBytes(addrs[8000:], 1024)}

	_, c := start(t, Config{QueueSize: 4, Workers: 1})
	ctx := context.Background()
	imgDigest, err := c.UploadArtifact(ctx, img, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, trc := range traces {
		trcDigest, err := c.UploadArtifact(ctx, trc, 0)
		if err != nil {
			t.Fatal(err)
		}
		st := submitAndWait(t, c, SubmitRequest{Kind: KindScan, ImageDigest: imgDigest, TraceDigest: trcDigest})
		if st.State != StateSucceeded {
			t.Fatalf("scan %d ended %s: %s", i, st.State, st.Error)
		}
		if hit, want := scanIndexHit(t, c, st.ID), strconv.FormatBool(i > 0); hit != want {
			t.Errorf("scan %d: scan-index hit=%q, want %q", i, hit, want)
		}
		raw, err := c.Result(ctx, st.ID)
		if err != nil {
			t.Fatal(err)
		}
		_, fresh := start(t, Config{QueueSize: 4, Workers: 1})
		if want := scanOnce(t, fresh, img, trc); !bytes.Equal(raw, want) {
			t.Fatalf("scan %d with a cached index differs from a fresh daemon's:\n%s\n%s", i, raw, want)
		}
	}

	if _, err := c.ArtifactGC(ctx); err != nil {
		t.Fatal(err)
	}
	trcDigest, err := c.UploadArtifact(ctx, traces[0], 0)
	if err != nil {
		t.Fatal(err)
	}
	st := submitAndWait(t, c, SubmitRequest{Kind: KindScan, ImageDigest: imgDigest, TraceDigest: trcDigest})
	if st.State != StateFailed || !strings.Contains(st.Error, "image artifact") || !strings.Contains(st.Error, "/v1/artifacts") {
		t.Fatalf("scan of a collected image ended %s: %q; want the upload-endpoint error", st.State, st.Error)
	}
}

// TestScanImageIntegrity: an image corrupted in the store's directory fails
// its scan with the integrity error instead of being indexed, and the
// failure is not cached: once the bytes are restored, the next scan
// succeeds.
func TestScanImageIntegrity(t *testing.T) {
	dir := t.TempDir()
	store, err := artifact.Open(artifact.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	_, c := start(t, Config{QueueSize: 4, Workers: 1, Artifacts: store})
	ctx := context.Background()
	img, trc := scanFixture(t, 8000)
	imgDigest, err := c.UploadArtifact(ctx, img, 0)
	if err != nil {
		t.Fatal(err)
	}
	trcDigest, err := c.UploadArtifact(ctx, trc, 0)
	if err != nil {
		t.Fatal(err)
	}

	// Swap the first two distinct non-zero words: every word still decodes,
	// only the content hash tells.
	path := filepath.Join(dir, "sha256-"+strings.TrimPrefix(imgDigest, artifact.Prefix))
	clean, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("image is not in the store's directory: %v", err)
	}
	corrupt := bytes.Clone(clean)
	first := -1
	for off := 0; off+4 <= len(corrupt); off += 4 {
		w := corrupt[off : off+4]
		if bytes.Equal(w, make([]byte, 4)) {
			continue
		}
		if first < 0 {
			first = off
			continue
		}
		if !bytes.Equal(w, corrupt[first:first+4]) {
			tmp := bytes.Clone(w)
			copy(w, corrupt[first:first+4])
			copy(corrupt[first:first+4], tmp)
			break
		}
	}
	if bytes.Equal(corrupt, clean) {
		t.Fatal("found no two distinct words to swap")
	}
	if _, err := binimg.Decode(corrupt); err != nil {
		t.Fatalf("the swapped image no longer decodes (%v); the test needs a corruption only the hash detects", err)
	}
	if err := os.WriteFile(path, corrupt, 0o644); err != nil {
		t.Fatal(err)
	}
	st := submitAndWait(t, c, SubmitRequest{Kind: KindScan, ImageDigest: imgDigest, TraceDigest: trcDigest})
	if st.State != StateFailed || !strings.Contains(st.Error, "integrity") {
		t.Fatalf("scan of a corrupted image ended %s: %q; want an integrity failure", st.State, st.Error)
	}

	if err := os.WriteFile(path, clean, 0o644); err != nil {
		t.Fatal(err)
	}
	if st := submitAndWait(t, c, SubmitRequest{Kind: KindScan, ImageDigest: imgDigest, TraceDigest: trcDigest}); st.State != StateSucceeded {
		t.Fatalf("scan after restoring the image ended %s: %s", st.State, st.Error)
	}
}
