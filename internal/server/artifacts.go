package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"

	"critics/internal/artifact"
	"critics/internal/dist"
	"critics/internal/obs"
	"critics/internal/scan"
	"critics/internal/telemetry"
)

// Chunked artifact upload wire protocol (PUT /v1/artifacts/{digest}):
//
//	X-Critics-Upload-Offset  byte offset of this chunk; defaults to 0.
//	                         A stale offset answers 409 with the committed
//	                         offset in X-Critics-Upload-Committed (and in the
//	                         JSON body) — the client resumes from there.
//	X-Critics-Upload-Final   "1" finalizes: the store verifies the content
//	                         hashes to {digest} and commits (422 on mismatch,
//	                         leaving nothing behind).
//
// Each chunk body is capped at MaxUploadChunkBytes (413 beyond it); the
// whole blob is capped by the store's MaxBlobBytes (also 413). Uploads
// already committed are idempotent no-ops. Concurrent uploads beyond the
// slot budget are refused with 429 + Retry-After — admission control, like
// the job queue.
const (
	HeaderUploadOffset    = "X-Critics-Upload-Offset"
	HeaderUploadFinal     = "X-Critics-Upload-Final"
	HeaderUploadCommitted = "X-Critics-Upload-Committed"
)

// MaxUploadChunkBytes bounds one upload chunk's body. Clients split larger
// blobs into multiple PUTs; the limit keeps any single request's buffering
// bounded regardless of blob size.
const MaxUploadChunkBytes = 8 << 20

// artifactUploadSlots bounds concurrent chunk uploads (backpressure for the
// disk-write path); excess requests answer 429 + Retry-After and the client
// resumes — nothing committed is lost.
const artifactUploadSlots = 4

// ArtifactUploadStatus is the PUT /v1/artifacts/{digest} success body.
type ArtifactUploadStatus struct {
	Digest    string `json:"digest"`
	Committed int64  `json:"committed"`
	Complete  bool   `json:"complete"`
}

// ArtifactListResponse is the GET /v1/artifacts body.
type ArtifactListResponse struct {
	Artifacts []artifact.Info `json:"artifacts"`
}

// ArtifactGCResponse is the POST /v1/artifacts/gc body.
type ArtifactGCResponse struct {
	Removed int   `json:"removed"`
	Freed   int64 `json:"freed"`
}

// scanMetrics are the scan pipeline's registry series (family names pinned
// by the telemetry exposition golden, like the rest of the server's).
type scanMetrics struct {
	chunks  func(path string) *telemetry.Counter
	reports *telemetry.Counter
}

func newScanMetrics(reg *telemetry.Registry) *scanMetrics {
	return &scanMetrics{
		chunks: func(path string) *telemetry.Counter {
			return reg.Counter("critics_scan_chunks_scored_total",
				"Trace chunks scored by scan jobs, by execution path (local, remote).",
				telemetry.L("path", path))
		},
		reports: reg.Counter("critics_scan_reports_total",
			"Scan reports produced."),
	}
}

// ---- artifact HTTP handlers ----------------------------------------------

func (s *Server) handleArtifactPut(w http.ResponseWriter, r *http.Request) {
	select {
	case s.uploadSlots <- struct{}{}:
		defer func() { <-s.uploadSlots }()
	default:
		w.Header().Set("Retry-After", fmt.Sprint(retryAfterSeconds))
		writeErr(w, http.StatusTooManyRequests,
			fmt.Sprintf("all %d upload slots busy; retry after %ds", artifactUploadSlots, retryAfterSeconds), true)
		return
	}

	digest := r.PathValue("digest")
	var offset int64
	if h := r.Header.Get(HeaderUploadOffset); h != "" {
		v, err := strconv.ParseInt(h, 10, 64)
		if err != nil || v < 0 {
			writeErr(w, http.StatusBadRequest, HeaderUploadOffset+" must be a non-negative decimal", false)
			return
		}
		offset = v
	}
	final := r.Header.Get(HeaderUploadFinal) == "1" || r.Header.Get(HeaderUploadFinal) == "true"

	body := http.MaxBytesReader(w, r.Body, MaxUploadChunkBytes)
	committed, complete, err := s.artifacts.PutChunk(digest, offset, body, final)
	if err != nil {
		var offErr *artifact.OffsetError
		var maxErr *http.MaxBytesError
		switch {
		case errors.As(err, &offErr):
			w.Header().Set(HeaderUploadCommitted, strconv.FormatInt(offErr.Committed, 10))
			writeJSON(w, http.StatusConflict, ArtifactUploadStatus{
				Digest: digest, Committed: offErr.Committed, Complete: false,
			})
		case errors.As(err, &maxErr):
			writeErr(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("chunk exceeds %d bytes; split the upload into smaller chunks", int64(MaxUploadChunkBytes)), false)
		case errors.Is(err, artifact.ErrTooLarge):
			writeErr(w, http.StatusRequestEntityTooLarge, err.Error(), false)
		case errors.Is(err, artifact.ErrDigestMismatch):
			writeErr(w, http.StatusUnprocessableEntity, err.Error(), false)
		default:
			writeErr(w, http.StatusBadRequest, err.Error(), false)
		}
		return
	}
	writeJSON(w, http.StatusOK, ArtifactUploadStatus{Digest: digest, Committed: committed, Complete: complete})
}

func (s *Server) handleArtifactGet(w http.ResponseWriter, r *http.Request) {
	digest := r.PathValue("digest")
	if r.URL.Query().Get("stat") == "1" {
		info, ok := s.artifacts.Stat(digest)
		if !ok {
			writeArtifactErr(w, digest, artifact.ErrNotFound)
			return
		}
		writeJSON(w, http.StatusOK, info)
		return
	}
	rc, size, err := s.artifacts.Open(digest)
	if err != nil {
		writeArtifactErr(w, digest, err)
		return
	}
	defer rc.Close()
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.FormatInt(size, 10))
	w.WriteHeader(http.StatusOK)
	_, _ = io.Copy(w, rc)
}

func (s *Server) handleArtifactList(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, ArtifactListResponse{Artifacts: s.artifacts.List()})
}

func (s *Server) handleArtifactGC(w http.ResponseWriter, _ *http.Request) {
	removed, freed := s.artifacts.GC()
	writeJSON(w, http.StatusOK, ArtifactGCResponse{Removed: removed, Freed: freed})
}

func writeArtifactErr(w http.ResponseWriter, digest string, err error) {
	if errors.Is(err, artifact.ErrNotFound) {
		writeErr(w, http.StatusNotFound, fmt.Sprintf("no artifact %s", digest), false)
		return
	}
	writeErr(w, http.StatusBadRequest, err.Error(), false)
}

// ---- scan job execution --------------------------------------------------

// executeScan runs one KindScan job: take the image index from the index
// cache (building it on first use), score every trace chunk — across the
// dist fleet when one is healthy, locally otherwise — and merge into the
// ranked report. Chunk scoring is
// integer-only and position-independent and Merge orders deterministically,
// so the distributed report is byte-identical to the local one.
func (s *Server) executeScan(ctx context.Context, req SubmitRequest) ([]byte, error) {
	opt := scan.Options{}

	t, parent, obsOn := obs.FromContext(ctx)
	var tIndex int64
	if obsOn {
		tIndex = t.Now()
	}

	// The image is opened even when its index is cached, so a scan of a
	// missing or collected image fails the same way either way.
	imgRC, size, err := s.artifacts.Open(req.ImageDigest)
	if err != nil {
		return nil, fmt.Errorf("image artifact %s: %w (chunk-upload it to PUT /v1/artifacts/{digest} first)", req.ImageDigest, err)
	}
	idx, hit, err := s.indexes.Get(req.ImageDigest, imgRC, size)
	imgRC.Close()
	if err != nil {
		return nil, fmt.Errorf("decoding image %s: %w", req.ImageDigest, err)
	}
	if obsOn {
		t.Add(obs.Span{ID: "scan-index", Parent: parent, Name: "scan-index",
			StartUS: tIndex, DurUS: t.Now() - tIndex,
			Attrs: []obs.Attr{obs.A("image", req.ImageDigest), obs.A("hit", strconv.FormatBool(hit))}})
	}

	trcRC, _, err := s.artifacts.Open(req.TraceDigest)
	if err != nil {
		return nil, fmt.Errorf("trace artifact %s: %w (chunk-upload it to PUT /v1/artifacts/{digest} first)", req.TraceDigest, err)
	}
	tr, err := scan.NewTraceReader(trcRC)
	if err != nil {
		trcRC.Close()
		return nil, fmt.Errorf("reading trace %s: %w", req.TraceDigest, err)
	}
	n := tr.Chunks()
	trcRC.Close()

	var tScore int64
	if obsOn {
		tScore = t.Now()
	}
	var results []scan.ChunkResult
	coord := s.cfg.Coordinator
	if coord != nil && coord.HealthyWorkers() > 0 && n > 0 {
		results, err = s.scanDistributed(ctx, idx, req, n, opt, coord)
	} else {
		results, err = s.scanLocal(idx, req.TraceDigest, allChunks(n), opt)
	}
	if err != nil {
		return nil, err
	}
	if obsOn {
		t.Add(obs.Span{ID: "scan-chunks", Parent: parent, Name: "scan-chunks",
			StartUS: tScore, DurUS: t.Now() - tScore,
			Attrs: []obs.Attr{obs.A("chunks", strconv.Itoa(n))}})
	}

	rep := scan.Merge(req.ImageDigest, req.TraceDigest, idx, results)
	s.scanM.reports.Inc()
	res := Result{Kind: req.Kind, Text: rep.Text(), Report: rep}
	return json.Marshal(res)
}

// scanLocal scores the given chunks on the daemon itself.
func (s *Server) scanLocal(idx *scan.Index, traceDigest string, chunks []int, opt scan.Options) ([]scan.ChunkResult, error) {
	rc, _, err := s.artifacts.Open(traceDigest)
	if err != nil {
		return nil, fmt.Errorf("trace artifact %s: %w", traceDigest, err)
	}
	defer rc.Close()
	results, err := scan.ScoreSelected(idx, rc, chunks, opt)
	if err != nil {
		return nil, fmt.Errorf("reading trace %s: %w", traceDigest, err)
	}
	s.scanM.chunks("local").Add(int64(len(results)))
	return results, nil
}

// scanDistributed fans the chunk range out across the worker fleet in
// batches. A batch whose every dispatch attempt fails falls back to local
// scoring — a degraded fleet degrades throughput, never correctness or the
// report bytes.
func (s *Server) scanDistributed(ctx context.Context, idx *scan.Index, req SubmitRequest, n int, opt scan.Options, coord *dist.Coordinator) ([]scan.ChunkResult, error) {
	batches := batchChunks(n, 2*coord.HealthyWorkers())
	type out struct {
		results []scan.ChunkResult
		err     error
	}
	outs := make([]out, len(batches))
	var wg sync.WaitGroup
	for i, batch := range batches {
		wg.Add(1)
		go func(i int, batch []int) {
			defer wg.Done()
			res, err := coord.ScanRemote(ctx, dist.ScanTask{
				ImageDigest: req.ImageDigest,
				TraceDigest: req.TraceDigest,
				Chunks:      batch,
				Opt:         opt,
			})
			if err == nil {
				s.scanM.chunks("remote").Add(int64(len(res)))
				outs[i] = out{results: res}
				return
			}
			if ctx.Err() != nil {
				outs[i] = out{err: ctx.Err()}
				return
			}
			s.log.Warn("scan batch failed remotely; computing locally", "batch", i, "err", err)
			res, lerr := s.scanLocal(idx, req.TraceDigest, batch, opt)
			outs[i] = out{results: res, err: lerr}
		}(i, batch)
	}
	wg.Wait()
	var results []scan.ChunkResult
	for _, o := range outs {
		if o.err != nil {
			return nil, o.err
		}
		results = append(results, o.results...)
	}
	return results, nil
}

// allChunks returns [0, n).
func allChunks(n int) []int {
	chunks := make([]int, n)
	for i := range chunks {
		chunks[i] = i
	}
	return chunks
}

// batchChunks splits [0, n) into at most k contiguous batches of
// near-equal size.
func batchChunks(n, k int) [][]int {
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	batches := make([][]int, 0, k)
	for i := 0; i < k; i++ {
		lo, hi := i*n/k, (i+1)*n/k
		if lo == hi {
			continue
		}
		batch := make([]int, 0, hi-lo)
		for c := lo; c < hi; c++ {
			batch = append(batch, c)
		}
		batches = append(batches, batch)
	}
	return batches
}
