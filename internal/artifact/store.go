// Package artifact is the content-addressed artifact store behind criticd's
// binary-scanning service and the fleet's blob plumbing: every byte payload
// (uploaded binary images, scan traces, archived profile sketches) is
// addressed by the SHA-256 digest of its content and stored exactly once.
//
// Properties:
//
//   - Content addressing: a blob's name is "sha256:<hex>"; identical content
//     is deduplicated by construction, and re-uploading a committed digest is
//     an idempotent no-op.
//   - Streaming chunked writes: uploads stream through a running hash into a
//     .part file in bounded memory — the ingest path never buffers a whole
//     blob — and support resuming at the committed offset after an
//     interruption (a write at any other offset is refused with the offset
//     to resume from).
//   - Integrity: the final chunk's commit verifies the computed digest
//     against the declared one; a mismatch aborts the upload and removes the
//     .part file, leaving no orphan. Reads re-verify: Open returns a reader
//     that hashes the bytes it hands out and fails at EOF on corruption.
//   - Persistence: every committed blob is its verified part file, renamed
//     under Dir; a store reopened on the same directory re-adopts every blob
//     (criticd -artifact-dir survives a restart, a recycled worker starts
//     warm).
//   - GC: removes every committed blob; uploads in progress are untouched.
package artifact

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"critics/internal/telemetry"
)

// Prefix is the digest scheme tag every artifact name carries.
const Prefix = "sha256:"

// Sum returns the content digest of b in canonical "sha256:<hex>" form.
func Sum(b []byte) string {
	h := sha256.Sum256(b)
	return Prefix + hex.EncodeToString(h[:])
}

// SumReader streams r through the digest function and returns the canonical
// digest plus the byte count, in bounded memory.
func SumReader(r io.Reader) (digest string, n int64, err error) {
	h := sha256.New()
	n, err = io.Copy(h, r)
	if err != nil {
		return "", n, err
	}
	return Prefix + hex.EncodeToString(h.Sum(nil)), n, nil
}

// Validate checks that d is a well-formed "sha256:<64 lowercase hex>" digest.
func Validate(d string) error {
	hexPart, ok := strings.CutPrefix(d, Prefix)
	if !ok {
		return fmt.Errorf("artifact: digest %q must start with %q", d, Prefix)
	}
	if len(hexPart) != sha256.Size*2 {
		return fmt.Errorf("artifact: digest %q must carry %d hex characters", d, sha256.Size*2)
	}
	for _, c := range hexPart {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return fmt.Errorf("artifact: digest %q contains non-hex character %q", d, c)
		}
	}
	return nil
}

// fileName maps a digest to its on-disk blob name ("sha256-<hex>": colon-free
// so the layout is portable).
func fileName(d string) string { return "sha256-" + strings.TrimPrefix(d, Prefix) }

// digestOfFile inverts fileName, reporting ok=false for non-blob names.
func digestOfFile(name string) (string, bool) {
	hexPart, ok := strings.CutPrefix(name, "sha256-")
	if !ok || len(hexPart) != sha256.Size*2 {
		return "", false
	}
	return Prefix + hexPart, true
}

// Config tunes a Store. Dir is required; the rest defaults.
type Config struct {
	// Dir holds one file per committed blob. Created if absent; existing
	// blobs in it are adopted (a recycled worker restarts warm).
	Dir string

	// MaxBlobBytes caps a single blob. An upload that grows past it is
	// aborted (part file removed) and refused with ErrTooLarge — the 413 the
	// serving layer documents. Default 256 MiB.
	MaxBlobBytes int64

	// Registry receives the critics_artifact_* metric families; nil disables
	// them.
	Registry *telemetry.Registry
}

// Info is one committed blob's catalog entry.
type Info struct {
	Digest string `json:"digest"`
	Size   int64  `json:"size"`
}

// upload is one in-progress chunked write: a part file plus the running
// hash over everything committed so far. chunk appends are serialized by mu
// so a concurrent duplicate PUT cannot interleave bytes.
type upload struct {
	mu        sync.Mutex
	f         *os.File
	path      string
	h         hash.Hash
	committed int64
}

// Store is a content-addressed blob store. Construct with Open.
type Store struct {
	cfg Config

	mu      sync.Mutex
	blobs   map[string]int64 // committed blob sizes; each blob is at s.path(digest)
	uploads map[string]*upload

	// metrics (nil without a registry)
	blobsG   *telemetry.Gauge
	diskG    *telemetry.Gauge
	uploads_ func(outcome string) *telemetry.Counter
	gcTotal  *telemetry.Counter
	verifyF  *telemetry.Counter
}

// Open creates (or adopts) a store rooted at cfg.Dir: the directory is
// created if needed, committed blobs already in it join the catalog, and
// stale .part files from a crashed upload are removed.
func Open(cfg Config) (*Store, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("artifact: Config.Dir is required")
	}
	if cfg.MaxBlobBytes <= 0 {
		cfg.MaxBlobBytes = 256 << 20
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("artifact: %w", err)
	}
	s := &Store{cfg: cfg, blobs: map[string]int64{}, uploads: map[string]*upload{}}
	if reg := cfg.Registry; reg != nil {
		s.blobsG = reg.Gauge("critics_artifact_blobs", "Committed blobs in the artifact store.")
		s.diskG = reg.Gauge("critics_artifact_bytes", "Committed artifact bytes by tier.", telemetry.L("tier", "disk"))
		s.uploads_ = func(outcome string) *telemetry.Counter {
			return reg.Counter("critics_artifact_uploads_total",
				"Upload finalizations by outcome: committed, duplicate (idempotent re-upload), mismatch (digest check failed).",
				telemetry.L("outcome", outcome))
		}
		s.gcTotal = reg.Counter("critics_artifact_gc_removed_total", "Unreferenced blobs removed by GC.")
		s.verifyF = reg.Counter("critics_artifact_verify_failures_total",
			"Reads whose content failed digest verification.")
	}
	entries, err := os.ReadDir(cfg.Dir)
	if err != nil {
		return nil, fmt.Errorf("artifact: %w", err)
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if strings.HasSuffix(e.Name(), ".part") {
			_ = os.Remove(filepath.Join(cfg.Dir, e.Name()))
			continue
		}
		d, ok := digestOfFile(e.Name())
		if !ok {
			continue
		}
		fi, err := e.Info()
		if err != nil {
			continue
		}
		s.blobs[d] = fi.Size()
	}
	s.updateGauges()
	return s, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.cfg.Dir }

// path is where the committed blob named digest lives.
func (s *Store) path(digest string) string { return filepath.Join(s.cfg.Dir, fileName(digest)) }

// MaxBlobBytes returns the per-blob size cap (the documented 413 limit).
func (s *Store) MaxBlobBytes() int64 { return s.cfg.MaxBlobBytes }

// updateGauges refreshes the catalog gauges; callers hold s.mu or have
// exclusive access.
func (s *Store) updateGauges() {
	if s.blobsG == nil {
		return
	}
	var disk int64
	for _, size := range s.blobs {
		disk += size
	}
	s.blobsG.Set(int64(len(s.blobs)))
	s.diskG.Set(disk)
}

// OffsetError refuses a chunk written at the wrong position and carries the
// committed offset the client must resume from.
type OffsetError struct {
	Committed int64
}

func (e *OffsetError) Error() string {
	return fmt.Sprintf("artifact: upload offset mismatch; resume at %d", e.Committed)
}

// Sentinel errors of the store API.
var (
	ErrNotFound       = fmt.Errorf("artifact: not found")
	ErrTooLarge       = fmt.Errorf("artifact: blob exceeds the size limit")
	ErrDigestMismatch = fmt.Errorf("artifact: content does not match the declared digest")
)

// PutChunk appends one chunk of the blob named digest at the given offset,
// finalizing the upload when final is set. It returns the committed offset
// after the write and whether the blob is now complete.
//
// Semantics (the chunked-upload contract the HTTP layer exposes):
//
//   - digest already committed: idempotent no-op — chunk is not consumed,
//     complete=true.
//   - offset != committed offset: *OffsetError carrying where to resume;
//     nothing is written (an interrupted upload retries its last chunk or
//     asks to learn the offset by sending a zero-length non-final chunk at
//     an arbitrary position... which also answers *OffsetError).
//   - growth past MaxBlobBytes: the upload is aborted (part file removed)
//     and ErrTooLarge returned.
//   - final with a content hash that does not match digest: the upload is
//     aborted (part file removed — no orphan) and ErrDigestMismatch
//     returned.
func (s *Store) PutChunk(digest string, offset int64, chunk io.Reader, final bool) (committed int64, complete bool, err error) {
	if err := Validate(digest); err != nil {
		return 0, false, err
	}
	s.mu.Lock()
	if size, ok := s.blobs[digest]; ok {
		s.mu.Unlock()
		if s.uploads_ != nil {
			s.uploads_("duplicate").Inc()
		}
		return size, true, nil
	}
	up, ok := s.uploads[digest]
	if !ok {
		f, err := os.CreateTemp(s.cfg.Dir, fileName(digest)+".*.part")
		if err != nil {
			s.mu.Unlock()
			return 0, false, fmt.Errorf("artifact: %w", err)
		}
		up = &upload{f: f, path: f.Name(), h: sha256.New()}
		s.uploads[digest] = up
	}
	s.mu.Unlock()

	up.mu.Lock()
	defer up.mu.Unlock()
	if up.f == nil {
		// The upload was aborted or finalized by a concurrent chunk while we
		// waited; re-resolve through the catalog.
		if size, ok := s.get(digest); ok {
			return size, true, nil
		}
		return 0, false, fmt.Errorf("artifact: upload of %s was aborted; restart from offset 0", digest)
	}
	if offset != up.committed {
		return up.committed, false, &OffsetError{Committed: up.committed}
	}
	n, err := io.Copy(io.MultiWriter(up.f, up.h), io.LimitReader(chunk, s.cfg.MaxBlobBytes-up.committed+1))
	if err != nil {
		// A torn chunk write leaves the part file longer than the hashed
		// prefix would be re-derivable from; abort so the client restarts.
		s.abortLocked(digest, up)
		return 0, false, fmt.Errorf("artifact: writing chunk: %w", err)
	}
	up.committed += n
	if up.committed > s.cfg.MaxBlobBytes {
		s.abortLocked(digest, up)
		return 0, false, fmt.Errorf("%w (%d bytes max)", ErrTooLarge, s.cfg.MaxBlobBytes)
	}
	if !final {
		return up.committed, false, nil
	}
	got := Prefix + hex.EncodeToString(up.h.Sum(nil))
	if got != digest {
		s.abortLocked(digest, up)
		if s.uploads_ != nil {
			s.uploads_("mismatch").Inc()
		}
		return 0, false, fmt.Errorf("%w: declared %s, content is %s", ErrDigestMismatch, digest, got)
	}
	return up.committed, true, s.commitLocked(digest, up)
}

// abortLocked tears an upload down (part file removed). Callers hold up.mu.
func (s *Store) abortLocked(digest string, up *upload) {
	up.f.Close()
	_ = os.Remove(up.path)
	up.f = nil
	s.mu.Lock()
	delete(s.uploads, digest)
	s.mu.Unlock()
}

// commitLocked promotes a fully-verified upload into the catalog by renaming
// its part file to the blob's name. Callers hold up.mu.
func (s *Store) commitLocked(digest string, up *upload) error {
	size := up.committed
	if err := up.f.Close(); err != nil {
		_ = os.Remove(up.path)
		return fmt.Errorf("artifact: %w", err)
	}
	up.f = nil

	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.uploads, digest)
	if _, ok := s.blobs[digest]; ok {
		// A concurrent path (PutBytes) committed the same content first;
		// content addressing makes that a no-op.
		_ = os.Remove(up.path)
		return nil
	}
	if err := os.Rename(up.path, s.path(digest)); err != nil {
		_ = os.Remove(up.path)
		return fmt.Errorf("artifact: %w", err)
	}
	s.blobs[digest] = size
	if s.uploads_ != nil {
		s.uploads_("committed").Inc()
	}
	s.updateGauges()
	return nil
}

// PutBytes stores an in-memory payload and returns its digest — the
// convenience path for small blobs (archived sketches).
func (s *Store) PutBytes(data []byte) (string, error) {
	d := Sum(data)
	if _, ok := s.get(d); ok {
		return d, nil
	}
	_, _, err := s.PutChunk(d, 0, bytes.NewReader(data), true)
	return d, err
}

func (s *Store) get(digest string) (size int64, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	size, ok = s.blobs[digest]
	return size, ok
}

// Has reports whether the blob is committed.
func (s *Store) Has(digest string) bool {
	_, ok := s.get(digest)
	return ok
}

// verifyReader hashes everything it hands out and fails the read that
// reaches EOF if the content does not match the digest — corruption on disk
// surfaces as an error, never as silently wrong bytes.
type verifyReader struct {
	r      io.ReadCloser
	h      hash.Hash
	digest string
	store  *Store
	done   bool
}

func (v *verifyReader) Read(p []byte) (int, error) {
	n, err := v.r.Read(p)
	if n > 0 {
		v.h.Write(p[:n])
	}
	if err == io.EOF && !v.done {
		v.done = true
		if got := Prefix + hex.EncodeToString(v.h.Sum(nil)); got != v.digest {
			if v.store.verifyF != nil {
				v.store.verifyF.Inc()
			}
			return n, fmt.Errorf("artifact: %s failed integrity verification (content is %s)", v.digest, got)
		}
	}
	return n, err
}

func (v *verifyReader) Close() error { return v.r.Close() }

// Open returns a streaming, integrity-verified reader over a committed blob
// plus its size. The caller owns closing it.
func (s *Store) Open(digest string) (io.ReadCloser, int64, error) {
	size, ok := s.get(digest)
	if !ok {
		return nil, 0, fmt.Errorf("%w: %s", ErrNotFound, digest)
	}
	f, err := os.Open(s.path(digest))
	if err != nil {
		return nil, 0, fmt.Errorf("artifact: %w", err)
	}
	return &verifyReader{r: f, h: sha256.New(), digest: digest, store: s}, size, nil
}

// Get reads a committed blob whole (verified).
func (s *Store) Get(digest string) ([]byte, error) {
	r, size, err := s.Open(digest)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	data := make([]byte, 0, size)
	buf := bytes.NewBuffer(data)
	if _, err := io.Copy(buf, r); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// GC removes every committed blob and reports how many blobs and bytes it
// freed. In-progress uploads are untouched.
func (s *Store) GC() (removed int, freed int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for d, size := range s.blobs {
		_ = os.Remove(s.path(d))
		delete(s.blobs, d)
		removed++
		freed += size
	}
	if s.gcTotal != nil {
		s.gcTotal.Add(int64(removed))
	}
	s.updateGauges()
	return removed, freed
}

// Stat returns one blob's catalog entry.
func (s *Store) Stat(digest string) (Info, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	size, ok := s.blobs[digest]
	if !ok {
		return Info{}, false
	}
	return Info{Digest: digest, Size: size}, true
}

// List returns the committed catalog sorted by digest.
func (s *Store) List() []Info {
	s.mu.Lock()
	out := make([]Info, 0, len(s.blobs))
	for d, size := range s.blobs {
		out = append(out, Info{Digest: d, Size: size})
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Digest < out[j].Digest })
	return out
}
