package service

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
	"sync"
	"time"

	"asyncnoc/internal/core"
	"asyncnoc/internal/network"
)

// Client defaults.
const (
	// DefaultMaxAttempts bounds one logical request's tries (first try
	// plus retries).
	DefaultMaxAttempts = 8
	// DefaultBaseBackoff and DefaultMaxBackoff shape the capped
	// exponential: attempt k sleeps ~min(base<<k, max), jittered to
	// [50%, 100%] so a shed fleet does not re-arrive in lockstep — the
	// same policy the NI retransmission layer applies to lost flits,
	// lifted to the service layer.
	DefaultBaseBackoff = 100 * time.Millisecond
	DefaultMaxBackoff  = 5 * time.Second
)

// APIError is a non-2xx response decoded from the server.
type APIError struct {
	Status int
	Kind   string
	Msg    string

	// retryAfter is the server's Retry-After hint, if any.
	retryAfter time.Duration
}

func (e *APIError) Error() string {
	return fmt.Sprintf("service: server returned %d (%s): %s", e.Status, e.Kind, e.Msg)
}

// retryable reports whether another attempt could succeed: load
// shedding (429), draining or other unavailability (503), and transient
// server faults (5xx). 4xx (other than 429) are deterministic — the
// same request would fail the same way.
func (e *APIError) retryable() bool {
	return e.Status == http.StatusTooManyRequests || e.Status >= 500
}

// Client wraps the asyncnocd HTTP API with retries: capped exponential
// backoff + jitter on 429/5xx/transport errors, honoring Retry-After
// when the server sends a longer hint. Safe for concurrent use.
type Client struct {
	// BaseURL is the server root (e.g. "http://localhost:8080").
	BaseURL string
	// HTTPClient overrides http.DefaultClient (tests, custom transports).
	HTTPClient *http.Client
	// maxAttempts, baseBackoff and maxBackoff override the defaults
	// above when positive.
	maxAttempts int
	baseBackoff time.Duration
	maxBackoff  time.Duration
}

// NewClient returns a client for the server at baseURL with default
// retry policy.
func NewClient(baseURL string) *Client {
	return &Client{BaseURL: strings.TrimRight(baseURL, "/")}
}

func (c *Client) policy() (attempts int, base, max time.Duration, hc *http.Client) {
	attempts, base, max, hc = c.maxAttempts, c.baseBackoff, c.maxBackoff, c.HTTPClient
	if attempts <= 0 {
		attempts = DefaultMaxAttempts
	}
	if base <= 0 {
		base = DefaultBaseBackoff
	}
	if max <= 0 {
		max = DefaultMaxBackoff
	}
	if hc == nil {
		hc = http.DefaultClient
	}
	return
}

// Run submits one simulation described by a local (spec, config) pair
// and returns the server's result — byte-identical to a local run of
// the same job, by the determinism contract.
func (c *Client) Run(ctx context.Context, spec network.Spec, cfg core.RunConfig) (RunResponse, error) {
	req, err := newRunRequest(spec, cfg)
	if err != nil {
		return RunResponse{}, err
	}
	return c.RunJob(ctx, req)
}

// RunJob submits one RunRequest (POST /v1/run) with retries.
func (c *Client) RunJob(ctx context.Context, req RunRequest) (RunResponse, error) {
	var resp RunResponse
	err := c.doJSON(ctx, "/v1/run", req, &resp)
	return resp, err
}

// Sweep submits one load sweep (POST /v1/sweep) with retries.
func (c *Client) Sweep(ctx context.Context, req SweepRequest) (SweepResponse, error) {
	var resp SweepResponse
	err := c.doJSON(ctx, "/v1/sweep", req, &resp)
	return resp, err
}

// Job fetches a stored result by job key (GET /v1/jobs/{key}); ok is
// false when the server holds no entry for it.
func (c *Client) Job(ctx context.Context, key string) (RunResponse, bool, error) {
	var resp RunResponse
	err := c.getJSON(ctx, "/v1/jobs/"+key, &resp)
	var apiErr *APIError
	if errors.As(err, &apiErr) && apiErr.Status == http.StatusNotFound {
		return RunResponse{}, false, nil
	}
	if err != nil {
		return RunResponse{}, false, err
	}
	return resp, true, nil
}

// Ready probes GET /readyz once (no retries): nil means the server is
// admitting jobs.
func (c *Client) Ready(ctx context.Context) error {
	resp, err := c.get(ctx, "/readyz")
	if err != nil {
		return err
	}
	var h HealthResponse
	if apiErr := decodeResponse(resp, &h); apiErr != nil {
		return apiErr
	}
	return nil
}

// doJSON POSTs in as JSON to path and decodes the 2xx body into out,
// retrying per the client policy. The request body is re-sent verbatim
// on every attempt (it is a value, not a stream), so retries are safe.
func (c *Client) doJSON(ctx context.Context, path string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return fmt.Errorf("service: encode request: %w", err)
	}
	return c.retry(ctx, func() (*http.Response, error) {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.BaseURL+path, bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		req.Header.Set("Content-Type", "application/json")
		_, _, _, hc := c.policy()
		return hc.Do(req)
	}, out)
}

// getJSON GETs path with retries and decodes the 2xx body into out.
func (c *Client) getJSON(ctx context.Context, path string, out any) error {
	return c.retry(ctx, func() (*http.Response, error) { return c.get(ctx, path) }, out)
}

// get sends one GET of path.
func (c *Client) get(ctx context.Context, path string) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+path, nil)
	if err != nil {
		return nil, err
	}
	_, _, _, hc := c.policy()
	return hc.Do(req)
}

// retry drives one logical request through the backoff loop.
func (c *Client) retry(ctx context.Context, send func() (*http.Response, error), out any) error {
	attempts, base, max, _ := c.policy()
	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			if err := sleep(ctx, backoffDelay(attempt-1, base, max, lastErr)); err != nil {
				return err
			}
		}
		resp, err := send()
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			lastErr = err // transport error: connection refused, reset, timeout
			continue
		}
		apiErr := decodeResponse(resp, out)
		if apiErr == nil {
			return nil
		}
		if !apiErr.retryable() {
			return apiErr
		}
		lastErr = apiErr
	}
	return fmt.Errorf("service: %d attempts exhausted: %w", attempts, lastErr)
}

// decodeResponse maps resp to either a decoded out (nil return) or an
// *APIError carrying the server's kind/message (synthesized for bodies
// that are not the API's JSON error shape).
func decodeResponse(resp *http.Response, out any) *APIError {
	defer resp.Body.Close()
	// data aliases a pooled buffer, so nothing may keep it past return:
	// json.Unmarshal copies what it decodes and string(data) copies too.
	buf := getBuf()
	defer putBuf(buf)
	if _, err := buf.ReadFrom(io.LimitReader(resp.Body, maxBodyBytes)); err != nil {
		return &APIError{Status: http.StatusBadGateway, Kind: "transport", Msg: "read response: " + err.Error()}
	}
	data := buf.Bytes()
	if resp.StatusCode/100 == 2 {
		if err := json.Unmarshal(data, out); err != nil {
			return &APIError{Status: http.StatusBadGateway, Kind: "transport", Msg: "decode response: " + err.Error()}
		}
		return nil
	}
	var e ErrorResponse
	if json.Unmarshal(data, &e) != nil || e.Error == "" {
		e = ErrorResponse{Kind: "http", Error: strings.TrimSpace(string(data))}
	}
	apiErr := &APIError{Status: resp.StatusCode, Kind: e.Kind, Msg: e.Error}
	if ra := parseRetryAfter(resp.Header.Get("Retry-After"), time.Now()); ra > 0 {
		apiErr.retryAfter = ra
	}
	return apiErr
}

// bufPool recycles the buffers that hold one message body: the client
// reads each response into one and the server encodes each response
// into one. A buffer grown past maxPooledBuf (a long sweep) is dropped,
// so one large body does not stay pinned in the pool.
var bufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

const maxPooledBuf = 64 << 10

func getBuf() *bytes.Buffer { return bufPool.Get().(*bytes.Buffer) }

func putBuf(b *bytes.Buffer) {
	if b.Cap() > maxPooledBuf {
		return
	}
	b.Reset()
	bufPool.Put(b)
}

// parseRetryAfter decodes a Retry-After header into the wait it asks
// for, relative to now. RFC 9110 allows both forms — delta-seconds and
// an HTTP-date (http.TimeFormat and its obsolete variants) — and a
// hint in the past or otherwise non-positive clamps to 0 (no wait):
// a stale date means "come back now", never "never".
func parseRetryAfter(v string, now time.Time) time.Duration {
	if v == "" {
		return 0
	}
	if secs, err := strconv.Atoi(v); err == nil {
		if secs < 0 {
			return 0
		}
		return time.Duration(secs) * time.Second
	}
	if t, err := http.ParseTime(v); err == nil {
		if d := t.Sub(now); d > 0 {
			return d
		}
	}
	return 0
}

// backoffDelay computes the sleep before retry number attempt (0-based):
// capped exponential with jitter in [50%, 100%], raised to the server's
// Retry-After hint when that is longer (but still capped).
func backoffDelay(attempt int, base, max time.Duration, lastErr error) time.Duration {
	d := base << uint(attempt)
	if d > max || d <= 0 { // <= 0: shift overflow
		d = max
	}
	d = d/2 + time.Duration(rand.Int63n(int64(d/2)+1))
	var apiErr *APIError
	if errors.As(lastErr, &apiErr) && apiErr.retryAfter > d {
		d = apiErr.retryAfter
		if d > max {
			d = max
		}
	}
	return d
}

// sleep waits for d or until ctx is done, whichever is first.
func sleep(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
