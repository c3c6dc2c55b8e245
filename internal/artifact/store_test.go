package artifact

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"critics/internal/telemetry"
)

func open(t *testing.T, cfg Config) *Store {
	t.Helper()
	if cfg.Dir == "" {
		cfg.Dir = t.TempDir()
	}
	s, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return s
}

// partFiles returns the .part files currently under the store dir.
func partFiles(t *testing.T, s *Store) []string {
	t.Helper()
	entries, err := os.ReadDir(s.Dir())
	if err != nil {
		t.Fatalf("ReadDir: %v", err)
	}
	var parts []string
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".part") {
			parts = append(parts, e.Name())
		}
	}
	return parts
}

func TestValidate(t *testing.T) {
	good := Sum([]byte("hello"))
	if err := Validate(good); err != nil {
		t.Fatalf("Validate(%q): %v", good, err)
	}
	for _, bad := range []string{
		"",
		"sha256:",
		"md5:" + strings.Repeat("0", 64),
		Prefix + strings.Repeat("0", 63),
		Prefix + strings.Repeat("0", 65),
		Prefix + strings.Repeat("0", 63) + "G",
		Prefix + strings.Repeat("0", 63) + "A", // uppercase hex is not canonical
	} {
		if err := Validate(bad); err == nil {
			t.Errorf("Validate(%q) accepted a malformed digest", bad)
		}
	}
}

func TestPutBytesRoundTrip(t *testing.T) {
	s := open(t, Config{})
	payload := []byte("the quick brown fox")
	d, err := s.PutBytes(payload)
	if err != nil {
		t.Fatalf("PutBytes: %v", err)
	}
	if d != Sum(payload) {
		t.Fatalf("digest %s, want %s", d, Sum(payload))
	}
	got, err := s.Get(d)
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("Get returned %q, want %q", got, payload)
	}
	if _, err := s.Get(Sum([]byte("absent"))); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get(absent) = %v, want ErrNotFound", err)
	}
}

// TestChunkedUploadResume covers the interrupted-upload contract: chunks land
// at the committed offset, a wrong offset is refused with the offset to
// resume from, and the finalized blob round-trips.
func TestChunkedUploadResume(t *testing.T) {
	s := open(t, Config{})
	payload := bytes.Repeat([]byte("abcdefgh"), 1000)
	d := Sum(payload)

	committed, complete, err := s.PutChunk(d, 0, bytes.NewReader(payload[:3000]), false)
	if err != nil || complete || committed != 3000 {
		t.Fatalf("chunk 1: committed=%d complete=%v err=%v", committed, complete, err)
	}

	// Simulate the client losing the response: re-sending at a stale offset is
	// refused and reports where to resume.
	_, _, err = s.PutChunk(d, 0, bytes.NewReader(payload[:3000]), false)
	var oe *OffsetError
	if !errors.As(err, &oe) || oe.Committed != 3000 {
		t.Fatalf("stale offset: err=%v, want *OffsetError{3000}", err)
	}

	// An offset probe (zero-length chunk at a sentinel offset) also answers
	// with the committed offset.
	_, _, err = s.PutChunk(d, 1<<40, bytes.NewReader(nil), false)
	if !errors.As(err, &oe) || oe.Committed != 3000 {
		t.Fatalf("probe: err=%v, want *OffsetError{3000}", err)
	}

	committed, complete, err = s.PutChunk(d, 3000, bytes.NewReader(payload[3000:]), true)
	if err != nil || !complete || committed != int64(len(payload)) {
		t.Fatalf("final chunk: committed=%d complete=%v err=%v", committed, complete, err)
	}
	got, err := s.Get(d)
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("round trip failed: err=%v", err)
	}
	if parts := partFiles(t, s); len(parts) != 0 {
		t.Fatalf("leftover part files after commit: %v", parts)
	}
}

// TestDuplicateUploadIdempotent covers the duplicate-digest contract: a
// re-upload of a committed digest is a no-op that reports completion.
func TestDuplicateUploadIdempotent(t *testing.T) {
	s := open(t, Config{})
	payload := []byte("only stored once")
	d, err := s.PutBytes(payload)
	if err != nil {
		t.Fatalf("PutBytes: %v", err)
	}
	committed, complete, err := s.PutChunk(d, 0, bytes.NewReader(payload), true)
	if err != nil || !complete || committed != int64(len(payload)) {
		t.Fatalf("duplicate upload: committed=%d complete=%v err=%v", committed, complete, err)
	}
	// Even a bogus chunk body is ignored — the blob is already committed and
	// addressed by content.
	if _, complete, err := s.PutChunk(d, 0, bytes.NewReader([]byte("garbage")), true); err != nil || !complete {
		t.Fatalf("duplicate upload with different body: complete=%v err=%v", complete, err)
	}
	if got, _ := s.Get(d); !bytes.Equal(got, payload) {
		t.Fatalf("duplicate upload corrupted the blob")
	}
	if infos := s.List(); len(infos) != 1 {
		t.Fatalf("List = %d blobs, want 1", len(infos))
	}
}

// TestDigestMismatchLeavesNoOrphan covers the finalize-integrity contract:
// content that does not hash to the declared digest is rejected and the
// aborted upload's part file is removed.
func TestDigestMismatchLeavesNoOrphan(t *testing.T) {
	s := open(t, Config{})
	declared := Sum([]byte("what the client promised"))
	_, _, err := s.PutChunk(declared, 0, bytes.NewReader([]byte("what it actually sent")), true)
	if !errors.Is(err, ErrDigestMismatch) {
		t.Fatalf("err = %v, want ErrDigestMismatch", err)
	}
	if s.Has(declared) {
		t.Fatalf("mismatched upload was committed")
	}
	if parts := partFiles(t, s); len(parts) != 0 {
		t.Fatalf("mismatched upload left orphan part files: %v", parts)
	}
	// The digest is uploadable again from scratch after the rejection.
	correct := []byte("what the client promised")
	if _, complete, err := s.PutChunk(declared, 0, bytes.NewReader(correct), true); err != nil || !complete {
		t.Fatalf("re-upload after mismatch: complete=%v err=%v", complete, err)
	}
}

func TestTooLargeAborts(t *testing.T) {
	s := open(t, Config{MaxBlobBytes: 64})
	big := bytes.Repeat([]byte("x"), 100)
	_, _, err := s.PutChunk(Sum(big), 0, bytes.NewReader(big), true)
	if !errors.Is(err, ErrTooLarge) {
		t.Fatalf("err = %v, want ErrTooLarge", err)
	}
	if parts := partFiles(t, s); len(parts) != 0 {
		t.Fatalf("oversized upload left part files: %v", parts)
	}
}

func TestWarmRestartAdoptsDiskTier(t *testing.T) {
	dir := t.TempDir()
	payload := bytes.Repeat([]byte("persist me"), 50)
	var d string
	{
		s := open(t, Config{Dir: dir})
		d, _ = s.PutBytes(payload)
		// A crashed upload leaves a part file behind.
		if err := os.WriteFile(filepath.Join(dir, "sha256-dead.1234.part"), []byte("junk"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s2 := open(t, Config{Dir: dir})
	got, err := s2.Get(d)
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("blob did not survive restart: %v", err)
	}
	if parts := partFiles(t, s2); len(parts) != 0 {
		t.Fatalf("stale part files not cleaned on Open: %v", parts)
	}
}

func TestIntegrityVerificationOnRead(t *testing.T) {
	dir := t.TempDir()
	s := open(t, Config{Dir: dir})
	payload := []byte("bytes that will rot on disk")
	d, _ := s.PutBytes(payload)

	// Corrupt the blob's file behind the store's back.
	if err := os.WriteFile(filepath.Join(dir, fileName(d)), []byte("bytes that will rot on dis!"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(d); err == nil || !strings.Contains(err.Error(), "integrity") {
		t.Fatalf("Get of corrupted blob: err=%v, want integrity failure", err)
	}
}

func TestRefCountedGC(t *testing.T) {
	s := open(t, Config{})
	d1, _ := s.PutBytes([]byte("first"))
	d2, _ := s.PutBytes([]byte("collectable"))

	removed, freed := s.GC()
	if removed != 2 || freed != int64(len("first")+len("collectable")) {
		t.Fatalf("GC = (%d, %d), want (2, %d)", removed, freed, len("first")+len("collectable"))
	}
	if s.Has(d1) || s.Has(d2) {
		t.Fatalf("GC left a committed blob")
	}
}

func TestMetricsRegistered(t *testing.T) {
	reg := telemetry.NewRegistry()
	s := open(t, Config{Registry: reg})
	d, _ := s.PutBytes([]byte("metered"))
	s.PutChunk(d, 0, bytes.NewReader([]byte("metered")), true) // duplicate
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"critics_artifact_blobs 1",
		`critics_artifact_uploads_total{outcome="committed"} 1`,
		`critics_artifact_uploads_total{outcome="duplicate"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

// TestIngestBoundedMemory asserts the streaming-write contract: committing a
// chunk runs at O(copy-buffer) allocations regardless of chunk size — the
// ingest path never buffers a blob.
func TestIngestBoundedMemory(t *testing.T) {
	s := open(t, Config{})
	chunk := bytes.Repeat([]byte("z"), 4<<20)
	r := bytes.NewReader(nil)

	var digests []string
	for i := 0; i < 6; i++ {
		chunk[0] = byte('a' + i) // distinct content per round
		digests = append(digests, Sum(chunk))
	}
	i := 0
	allocs := testing.AllocsPerRun(5, func() {
		r.Reset(chunk)
		chunk[0] = byte('a' + i)
		if _, _, err := s.PutChunk(digests[i], 0, r, true); err != nil {
			t.Fatalf("PutChunk: %v", err)
		}
		i++
	})
	// A 4 MiB ingest at ~64 allocations means no proportional buffering
	// (buffering would cost thousands of page-sized allocations); the budget
	// leaves room for the temp-file create, hash state and catalog entry.
	if allocs > 200 {
		t.Fatalf("PutChunk of a 4 MiB blob cost %.0f allocations; ingest path is buffering", allocs)
	}
}

func TestSumReader(t *testing.T) {
	payload := []byte("stream me")
	d, n, err := SumReader(bytes.NewReader(payload))
	if err != nil || n != int64(len(payload)) || d != Sum(payload) {
		t.Fatalf("SumReader = (%s, %d, %v)", d, n, err)
	}
}

func TestListAndStat(t *testing.T) {
	s := open(t, Config{})
	d1, _ := s.PutBytes([]byte("one"))
	d2, _ := s.PutBytes([]byte("two"))
	infos := s.List()
	if len(infos) != 2 {
		t.Fatalf("List = %d entries, want 2", len(infos))
	}
	if infos[0].Digest > infos[1].Digest {
		t.Fatalf("List not sorted by digest")
	}
	for _, d := range []string{d1, d2} {
		info, ok := s.Stat(d)
		if !ok || info.Size != 3 {
			t.Fatalf("Stat(%s) = (%+v, %v)", d, info, ok)
		}
	}
	if _, ok := s.Stat(Sum([]byte("absent"))); ok {
		t.Fatalf("Stat of absent digest reported ok")
	}
}

func TestOpenStreams(t *testing.T) {
	s := open(t, Config{})
	payload := bytes.Repeat([]byte("streamable"), 100)
	d, _ := s.PutBytes(payload)
	r, size, err := s.Open(d)
	if err != nil || size != int64(len(payload)) {
		t.Fatalf("Open: size=%d err=%v", size, err)
	}
	defer r.Close()
	got, err := io.ReadAll(r)
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("streamed read: %v", err)
	}
}
