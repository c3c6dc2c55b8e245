package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"time"

	"critics/internal/artifact"
	"critics/internal/dist"
	"critics/internal/fleet"
)

// Client talks to a criticd instance. The zero value is not usable;
// construct with NewClient.
type Client struct {
	base string
	hc   *http.Client
}

// NewClient returns a client for the daemon at base (e.g.
// "http://127.0.0.1:9720").
func NewClient(base string) *Client {
	return &Client{base: strings.TrimRight(base, "/"), hc: &http.Client{}}
}

// APIError is a non-2xx response decoded from the server's error body.
type APIError struct {
	Code       int
	Message    string
	Retryable  bool
	RetryAfter time.Duration // from the Retry-After header (429s)
}

func (e *APIError) Error() string {
	return fmt.Sprintf("criticd: %d %s", e.Code, e.Message)
}

// apiError decodes a non-2xx answer: the server's error body when it sent
// one (the raw body text otherwise) and its Retry-After hint.
func apiError(resp *http.Response, body []byte) *APIError {
	e := &APIError{Code: resp.StatusCode, Message: strings.TrimSpace(string(body))}
	var er ErrorResponse
	if json.Unmarshal(body, &er) == nil && er.Error != "" {
		e.Message = er.Error
		e.Retryable = er.Retryable
	}
	if sec, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil {
		e.RetryAfter = time.Duration(sec) * time.Second
	}
	return e
}

// do runs one request and decodes the JSON response into out (skipped when
// out is nil). Non-2xx responses become *APIError.
func (c *Client) do(ctx context.Context, method, path string, body, out any) error {
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return apiError(resp, data)
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(data, out)
}

// Submit enqueues a job. A 429 (queue full) surfaces as *APIError with
// Retryable set and RetryAfter carrying the server's hint.
func (c *Client) Submit(ctx context.Context, req SubmitRequest) (JobStatus, error) {
	var st JobStatus
	err := c.do(ctx, http.MethodPost, "/v1/jobs", req, &st)
	return st, err
}

// Status fetches one job's status.
func (c *Client) Status(ctx context.Context, id string) (JobStatus, error) {
	var st JobStatus
	err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id, nil, &st)
	return st, err
}

// Result fetches the raw result document of a succeeded job.
func (c *Client) Result(ctx context.Context, id string) ([]byte, error) {
	var raw json.RawMessage
	if err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id+"/result", nil, &raw); err != nil {
		return nil, err
	}
	return raw, nil
}

// Cancel requests cancellation of a queued or running job and returns the
// resulting status.
func (c *Client) Cancel(ctx context.Context, id string) (JobStatus, error) {
	var st JobStatus
	err := c.do(ctx, http.MethodDelete, "/v1/jobs/"+id, nil, &st)
	return st, err
}

// Apps fetches the workload catalog by suite.
func (c *Client) Apps(ctx context.Context) (map[string][]string, error) {
	var resp AppsResponse
	if err := c.do(ctx, http.MethodGet, "/v1/apps", nil, &resp); err != nil {
		return nil, err
	}
	return resp.Suites, nil
}

// Experiments fetches the runnable experiment ids.
func (c *Client) Experiments(ctx context.Context) ([]string, error) {
	var resp ExperimentsResponse
	if err := c.do(ctx, http.MethodGet, "/v1/experiments", nil, &resp); err != nil {
		return nil, err
	}
	return resp.Experiments, nil
}

// raw GETs a path and returns the response body verbatim; non-2xx responses
// become *APIError like do.
func (c *Client) raw(ctx context.Context, path string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, apiError(resp, data)
	}
	return data, nil
}

// PostProfile streams one encoded profile sketch (sketch.Encode's binary
// wire form) to the daemon's fleet ingest. A 429 (ingest queue full)
// surfaces as *APIError with Retryable set and RetryAfter carrying the
// server's hint — the caller re-sends the same (cumulative) sketch later.
func (c *Client) PostProfile(ctx context.Context, encoded []byte) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/profiles", bytes.NewReader(encoded))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return apiError(resp, data)
	}
	return nil
}

// Fleet fetches per-app fleet consensus and converge status.
func (c *Client) Fleet(ctx context.Context) ([]fleet.AppStatus, error) {
	var resp FleetResponse
	if err := c.do(ctx, http.MethodGet, "/v1/fleet", nil, &resp); err != nil {
		return nil, err
	}
	return resp.Apps, nil
}

// MetricsText fetches the daemon's Prometheus exposition verbatim — the
// input to criticctl slo/top's client-side histogram math.
func (c *Client) MetricsText(ctx context.Context) (string, error) {
	data, err := c.raw(ctx, "/metrics")
	return string(data), err
}

// Trace fetches a job's span tree as raw JSON; format "chrome" selects the
// Chrome trace-event export, "" the tree document.
func (c *Client) Trace(ctx context.Context, id, format string) ([]byte, error) {
	path := "/v1/jobs/" + id + "/trace"
	if format != "" {
		path += "?format=" + format
	}
	return c.raw(ctx, path)
}

// Events fetches flight-recorder events, all of them when job is empty.
func (c *Client) Events(ctx context.Context, job string) ([]byte, error) {
	path := "/debug/events"
	if job != "" {
		path += "?job=" + job
	}
	return c.raw(ctx, path)
}

// UploadArtifact chunk-uploads data to the daemon's artifact store and
// returns its digest. The blob is split into chunkSize-byte PUTs (0 selects
// MaxUploadChunkBytes); a 409 mid-upload — daemon restarted, duplicate
// uploader, stale offset — resumes from the server's committed offset
// rather than restarting, and an already-stored blob is an idempotent
// no-op. 429 answers are retried after the server's Retry-After hint.
func (c *Client) UploadArtifact(ctx context.Context, data []byte, chunkSize int) (string, error) {
	if chunkSize <= 0 {
		chunkSize = MaxUploadChunkBytes
	}
	digest := artifact.Sum(data)
	var offset int64
	for {
		end := offset + int64(chunkSize)
		if end > int64(len(data)) {
			end = int64(len(data))
		}
		final := end == int64(len(data))
		st, err := c.putChunk(ctx, digest, offset, data[offset:end], final)
		if err != nil {
			var apiErr *APIError
			switch {
			case errors.As(err, &apiErr) && apiErr.Code == http.StatusConflict:
				// Resume where the server actually is.
				offset = st.Committed
				continue
			case errors.As(err, &apiErr) && apiErr.Code == http.StatusTooManyRequests:
				delay := apiErr.RetryAfter
				if delay <= 0 {
					delay = time.Second
				}
				select {
				case <-ctx.Done():
					return "", ctx.Err()
				case <-time.After(delay):
				}
				continue
			}
			return "", err
		}
		if st.Complete {
			return digest, nil
		}
		offset = st.Committed
	}
}

// putChunk PUTs one chunk. On 409 the returned status carries the server's
// committed offset alongside the *APIError.
func (c *Client) putChunk(ctx context.Context, digest string, offset int64, chunk []byte, final bool) (ArtifactUploadStatus, error) {
	var st ArtifactUploadStatus
	req, err := http.NewRequestWithContext(ctx, http.MethodPut, c.base+"/v1/artifacts/"+digest, bytes.NewReader(chunk))
	if err != nil {
		return st, err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	req.Header.Set(HeaderUploadOffset, strconv.FormatInt(offset, 10))
	if final {
		req.Header.Set(HeaderUploadFinal, "1")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return st, err
	}
	if resp.StatusCode == http.StatusConflict {
		_ = json.Unmarshal(data, &st)
		if h := resp.Header.Get(HeaderUploadCommitted); h != "" {
			if v, err := strconv.ParseInt(h, 10, 64); err == nil {
				st.Committed = v
			}
		}
		return st, &APIError{Code: resp.StatusCode, Message: "stale upload offset", Retryable: true}
	}
	if resp.StatusCode/100 != 2 {
		return st, apiError(resp, data)
	}
	return st, json.Unmarshal(data, &st)
}

// DownloadArtifact fetches a stored blob's bytes.
func (c *Client) DownloadArtifact(ctx context.Context, digest string) ([]byte, error) {
	return c.raw(ctx, "/v1/artifacts/"+digest)
}

// ArtifactStat fetches one stored blob's metadata.
func (c *Client) ArtifactStat(ctx context.Context, digest string) (artifact.Info, error) {
	var info artifact.Info
	err := c.do(ctx, http.MethodGet, "/v1/artifacts/"+digest+"?stat=1", nil, &info)
	return info, err
}

// ArtifactList fetches the store's contents, sorted by digest.
func (c *Client) ArtifactList(ctx context.Context) ([]artifact.Info, error) {
	var resp ArtifactListResponse
	if err := c.do(ctx, http.MethodGet, "/v1/artifacts", nil, &resp); err != nil {
		return nil, err
	}
	return resp.Artifacts, nil
}

// ArtifactGC asks the daemon to remove every committed blob.
func (c *Client) ArtifactGC(ctx context.Context) (ArtifactGCResponse, error) {
	var resp ArtifactGCResponse
	err := c.do(ctx, http.MethodPost, "/v1/artifacts/gc", nil, &resp)
	return resp, err
}

// DistWorkers fetches the coordinator's fleet status. A daemon running
// without distribution enabled answers 404.
func (c *Client) DistWorkers(ctx context.Context) ([]dist.WorkerStatus, error) {
	var resp dist.WorkersResponse
	if err := c.do(ctx, http.MethodGet, dist.WorkersPath, nil, &resp); err != nil {
		return nil, err
	}
	return resp.Workers, nil
}

// Wait polling parameters: exponential backoff from waitBaseDelay doubling
// to waitMaxDelay, each step jittered ±50% so a fleet of waiting clients
// never polls in lockstep.
const (
	waitBaseDelay = 25 * time.Millisecond
	waitMaxDelay  = 2 * time.Second
)

// Wait polls a job until it reaches a terminal state, with exponential
// backoff plus jitter, and returns its final status. timeout <= 0 waits
// until ctx is done. The terminal status itself is not an error; a Failed
// job is reported through its State/Error fields.
func (c *Client) Wait(ctx context.Context, id string, timeout time.Duration) (JobStatus, error) {
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	delay := waitBaseDelay
	for {
		st, err := c.Status(ctx, id)
		if err != nil {
			return st, err
		}
		if st.State.Terminal() {
			return st, nil
		}
		// ±50% jitter, then exponential growth capped at waitMaxDelay.
		jittered := delay/2 + time.Duration(rand.Int63n(int64(delay)))
		select {
		case <-ctx.Done():
			return st, fmt.Errorf("waiting for job %s (last state %s): %w", id, st.State, ctx.Err())
		case <-time.After(jittered):
		}
		if delay *= 2; delay > waitMaxDelay {
			delay = waitMaxDelay
		}
	}
}
