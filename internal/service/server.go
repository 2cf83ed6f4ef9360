package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"asyncnoc/internal/core"
)

// Server defaults; all overridable per instance before Handler is
// called.
const (
	// DefaultMaxQueue bounds jobs admitted but not yet finished
	// (queued + running). Arrivals beyond it are shed with 429.
	DefaultMaxQueue = 64
	// DefaultRequestTimeout is the per-request deadline; the underlying
	// simulation is canceled through the engine's context plumbing when
	// it expires.
	DefaultRequestTimeout = 2 * time.Minute
	// DefaultRetryAfter is the hint sent with 429/503 responses.
	DefaultRetryAfter = 1 * time.Second
	// maxBodyBytes bounds request bodies; a run or sweep request is a
	// few hundred bytes, so 1 MiB is already generous.
	maxBodyBytes = 1 << 20
)

// Server handles the simulation-service API over one experiment engine.
// Robustness properties, in order of importance:
//
//   - bounded memory: at most MaxQueue jobs are admitted at once; the
//     rest are shed immediately with 429 + Retry-After, never queued in
//     unbounded buffers.
//   - bounded time: every admitted job runs under a deadline; an
//     expired deadline cancels the simulation between event batches
//     (504), it does not leak a runaway worker.
//   - clean exit: BeginDrain stops admission (readyz flips to 503, new
//     jobs are refused) while jobs already admitted run to completion.
type Server struct {
	// Engine executes jobs (memo + persistent store + pool attached by
	// the caller).
	Engine *core.Engine
	// Store, when non-nil, serves GET /v1/jobs/{key} lookups. It is
	// normally the same store attached to Engine.
	Store core.ResultStore
	// MaxQueue and RequestTimeout override the defaults above when
	// positive.
	MaxQueue       int
	RequestTimeout time.Duration
	// retryAfter overrides DefaultRetryAfter when positive.
	retryAfter time.Duration

	queue    chan struct{}
	draining atomic.Bool

	admitted, shed, refused atomic.Uint64
	timeouts, simErrors     atomic.Uint64
	done                    atomic.Uint64
}

// NewServer returns a server over engine with default limits; st may be
// nil (GET /v1/jobs then always 404s and results only live in the memo).
func NewServer(engine *core.Engine, st core.ResultStore) *Server {
	return &Server{Engine: engine, Store: st}
}

func (s *Server) limits() (maxQueue int, timeout, retryAfter time.Duration) {
	maxQueue, timeout, retryAfter = s.MaxQueue, s.RequestTimeout, s.retryAfter
	if maxQueue <= 0 {
		maxQueue = DefaultMaxQueue
	}
	if timeout <= 0 {
		timeout = DefaultRequestTimeout
	}
	if retryAfter <= 0 {
		retryAfter = DefaultRetryAfter
	}
	return
}

// Handler builds the API routes. Call once; the returned handler is
// safe for concurrent use.
func (s *Server) Handler() http.Handler {
	maxQueue, _, _ := s.limits()
	s.queue = make(chan struct{}, maxQueue)
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/run", s.handleRun)
	mux.HandleFunc("POST /v1/sweep", s.handleSweep)
	mux.HandleFunc("GET /v1/jobs/{key}", s.handleJob)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /readyz", s.handleReady)
	return mux
}

// BeginDrain stops admitting new jobs: readyz flips to 503 and every
// new run/sweep is refused with 503 + Retry-After. Jobs already
// admitted keep running; the process's http.Server.Shutdown then waits
// for their handlers to finish (up to the drain deadline).
func (s *Server) BeginDrain() { s.draining.Store(true) }

// Draining reports whether BeginDrain was called.
func (s *Server) Draining() bool { return s.draining.Load() }

// ServerSnapshot is one sample of the server's admission counters.
type ServerSnapshot struct {
	// Queued is current admission occupancy (queued + running jobs);
	// QueueCap is the bound.
	Queued, QueueCap int
	// Admitted and Done count jobs accepted and finished; Shed counts
	// 429s (queue full), Refused counts 503s (draining).
	Admitted, Done, Shed, Refused uint64
	// Timeouts counts per-request deadline expiries (504); SimErrors
	// counts deterministic simulation failures (422).
	Timeouts, SimErrors uint64
	Draining            bool
}

// Snapshot samples the admission counters (expvar, tests).
func (s *Server) Snapshot() ServerSnapshot {
	maxQueue, _, _ := s.limits()
	snap := ServerSnapshot{
		QueueCap: maxQueue,
		Admitted: s.admitted.Load(), Done: s.done.Load(),
		Shed: s.shed.Load(), Refused: s.refused.Load(),
		Timeouts: s.timeouts.Load(), SimErrors: s.simErrors.Load(),
		Draining: s.Draining(),
	}
	if s.queue != nil {
		snap.Queued = len(s.queue)
	}
	return snap
}

// admit takes one admission slot, or writes the appropriate refusal
// (503 while draining, 429 + Retry-After when full) and reports false.
func (s *Server) admit(w http.ResponseWriter) bool {
	_, _, retryAfter := s.limits()
	if s.Draining() {
		s.refused.Add(1)
		w.Header().Set("Retry-After", retryAfterSeconds(retryAfter))
		writeError(w, http.StatusServiceUnavailable, ErrKindDraining, "server is draining; not admitting new jobs")
		return false
	}
	select {
	case s.queue <- struct{}{}:
		s.admitted.Add(1)
		return true
	default:
		s.shed.Add(1)
		w.Header().Set("Retry-After", retryAfterSeconds(retryAfter))
		writeError(w, http.StatusTooManyRequests, ErrKindShed,
			fmt.Sprintf("admission queue full (%d jobs); retry with backoff", cap(s.queue)))
		return false
	}
}

func (s *Server) release() {
	<-s.queue
	s.done.Add(1)
}

// deadline derives the job context: the server default, tightened (never
// widened) by the request's TimeoutMs.
func (s *Server) deadline(r *http.Request, timeoutMs int64) (context.Context, context.CancelFunc) {
	_, timeout, _ := s.limits()
	if timeoutMs > 0 {
		if reqTimeout := time.Duration(timeoutMs) * time.Millisecond; reqTimeout < timeout {
			timeout = reqTimeout
		}
	}
	return context.WithTimeout(r.Context(), timeout)
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	var req RunRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if err := req.Spec.Validate(); err != nil {
		writeError(w, http.StatusBadRequest, ErrKindBadRequest, err.Error())
		return
	}
	cfg, err := req.Config()
	if err != nil {
		writeError(w, http.StatusBadRequest, ErrKindBadRequest, err.Error())
		return
	}
	if !s.admit(w) {
		return
	}
	defer s.release()
	key := core.JobKey(req.Spec, cfg)
	ctx, cancel := s.deadline(r, req.TimeoutMs)
	defer cancel()
	start := time.Now()
	res, src, err := s.Engine.RunKeyed(ctx, key, req.Spec, cfg)
	if err != nil {
		s.writeRunError(w, r, err)
		return
	}
	writeJSON(w, http.StatusOK, RunResponse{
		Key: key, Cached: src != core.SourceComputed,
		ElapsedMs: float64(time.Since(start)) / float64(time.Millisecond),
		Result:    res,
	})
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req SweepRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if err := req.Spec.Validate(); err != nil {
		writeError(w, http.StatusBadRequest, ErrKindBadRequest, err.Error())
		return
	}
	if req.Points < 1 {
		writeError(w, http.StatusBadRequest, ErrKindBadRequest, "sweep needs at least one point")
		return
	}
	if req.MaxFraction <= 0 {
		req.MaxFraction = 0.95
	}
	base, err := RunRequest{
		Spec: req.Spec, Bench: req.Bench, LoadGFs: 0.1, // placeholder load; the sweep sets its own
		Seed: req.Seed, WarmupPs: req.WarmupPs, MeasurePs: req.MeasurePs, DrainPs: req.DrainPs,
	}.Config()
	if err != nil {
		writeError(w, http.StatusBadRequest, ErrKindBadRequest, err.Error())
		return
	}
	if !s.admit(w) {
		return
	}
	defer s.release()
	ctx, cancel := s.deadline(r, req.TimeoutMs)
	defer cancel()
	start := time.Now()
	points, err := s.Engine.LoadSweepContext(ctx, req.Spec, base, req.Points, req.MaxFraction)
	if err != nil {
		s.writeRunError(w, r, err)
		return
	}
	writeJSON(w, http.StatusOK, SweepResponse{
		Network: req.Spec.Name, Benchmark: req.Bench,
		ElapsedMs: float64(time.Since(start)) / float64(time.Millisecond),
		Points:    points,
	})
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	if s.Store != nil {
		if res, ok := s.Store.Get(key); ok {
			writeJSON(w, http.StatusOK, RunResponse{Key: key, Cached: true, Result: res})
			return
		}
	}
	writeError(w, http.StatusNotFound, ErrKindNotFound, "no stored result for key "+key)
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.health())
}

func (s *Server) handleReady(w http.ResponseWriter, _ *http.Request) {
	h := s.health()
	status := http.StatusOK
	if h.Status != "ok" {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, h)
}

func (s *Server) health() HealthResponse {
	snap := s.Snapshot()
	h := HealthResponse{Status: "ok", Queue: snap.Queued, QueueCap: snap.QueueCap}
	switch {
	case snap.Draining:
		h.Status = "draining"
	case snap.Queued >= snap.QueueCap:
		h.Status = "overloaded"
	}
	return h
}

// writeRunError maps an engine error onto the wire: deadline expiry is
// 504 (the job was canceled mid-simulation), a client disconnect gets
// no body, and anything else is a deterministic simulation failure
// (422 — retrying the identical job would fail identically).
func (s *Server) writeRunError(w http.ResponseWriter, r *http.Request, err error) {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		s.timeouts.Add(1)
		writeError(w, http.StatusGatewayTimeout, ErrKindTimeout, err.Error())
	case errors.Is(err, context.Canceled) || r.Context().Err() != nil:
		// Client gone; nothing useful to write.
	default:
		s.simErrors.Add(1)
		writeError(w, http.StatusUnprocessableEntity, ErrKindSim, err.Error())
	}
}

// decodeBody decodes the request body into v. The body must hold
// exactly one JSON value: trailing data, a second value included, is a
// bad request rather than silently ignored.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeError(w, http.StatusBadRequest, ErrKindBadRequest, "decode request: "+err.Error())
		return false
	}
	if _, err := dec.Token(); err != io.EOF {
		writeError(w, http.StatusBadRequest, ErrKindBadRequest, "decode request: trailing data after the JSON value")
		return false
	}
	return true
}

// writeJSON encodes v into a pooled buffer before it commits the
// status, so a value that cannot be encoded (a NaN, say) answers 500
// with an ErrorResponse instead of its status with an empty body.
func writeJSON(w http.ResponseWriter, status int, v any) {
	buf := getBuf()
	defer putBuf(buf)
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		buf.Reset()
		status = http.StatusInternalServerError
		json.NewEncoder(buf).Encode(ErrorResponse{Kind: ErrKindInternal, Error: "encode response: " + err.Error()}) //nolint:errcheck // two strings always encode
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(buf.Bytes()) //nolint:errcheck // client gone: nothing to do
}

func writeError(w http.ResponseWriter, status int, kind, msg string) {
	writeJSON(w, status, ErrorResponse{Kind: kind, Error: msg})
}

// retryAfterSeconds renders a Retry-After header value, rounding up so
// the hint never under-promises: a 1.9s backlog must not advertise "1"
// and invite clients back while the server is still shedding.
func retryAfterSeconds(d time.Duration) string {
	secs := int((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.Itoa(secs)
}
