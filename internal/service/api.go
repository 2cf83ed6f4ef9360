// Package service is the simulation-as-a-service layer: an HTTP/JSON
// API for submitting runs and sweeps to a shared experiment engine
// backed by the persistent result store, plus the client that wraps the
// API with capped-backoff retries.
//
// The API is deliberately small and spec-first: a request carries the
// full network.Spec (every field is plain data) and names its benchmark
// by reporting name, so the server derives the same canonical SHA-256
// job key the local engine would — cache hits are shared between local
// runs, remote runs, and every other client of the same store.
package service

import (
	"fmt"

	"asyncnoc/internal/chiplet"
	"asyncnoc/internal/core"
	"asyncnoc/internal/network"
	"asyncnoc/internal/sim"
	"asyncnoc/internal/traffic"
)

// benchFor resolves a benchmark reporting name against the spec's
// topology: a composed (chiplet) spec needs the hierarchical wide
// benchmarks; a single die uses the standard flat suite. Both sides of
// the wire use this, so a name is expressible iff the server can
// resolve it.
func benchFor(spec network.Spec, name string) (traffic.Benchmark, error) {
	if spec.Chiplet != nil {
		return chiplet.ByName(spec.Chiplet, spec.N, name)
	}
	return traffic.ByName(spec.N, name)
}

// RunRequest submits one simulation (POST /v1/run).
type RunRequest struct {
	// Spec is the full network architecture description.
	Spec network.Spec `json:"spec"`
	// Bench is the benchmark reporting name (resolved server-side via
	// the standard suite for Spec.N terminals).
	Bench string `json:"bench"`
	// LoadGFs, Seed, and the windows mirror core.RunConfig.
	LoadGFs   float64 `json:"load_gfs"`
	Seed      uint64  `json:"seed"`
	WarmupPs  int64   `json:"warmup_ps"`
	MeasurePs int64   `json:"measure_ps"`
	DrainPs   int64   `json:"drain_ps"`
	MaxEvents uint64  `json:"max_events,omitempty"`
	// TimeoutMs caps this request's deadline below the server default
	// (0 keeps the server default; values above it are clamped).
	TimeoutMs int64 `json:"timeout_ms,omitempty"`
}

// Config resolves the request into an engine-ready RunConfig.
func (r RunRequest) Config() (core.RunConfig, error) {
	bench, err := benchFor(r.Spec, r.Bench)
	if err != nil {
		return core.RunConfig{}, err
	}
	cfg := core.RunConfig{
		Bench:     bench,
		LoadGFs:   r.LoadGFs,
		Seed:      r.Seed,
		Warmup:    sim.Time(r.WarmupPs),
		Measure:   sim.Time(r.MeasurePs),
		Drain:     sim.Time(r.DrainPs),
		MaxEvents: r.MaxEvents,
	}
	if err := cfg.Validate(); err != nil {
		return core.RunConfig{}, err
	}
	return cfg, nil
}

// newRunRequest maps a local (spec, config) pair onto the wire shape.
// Configurations the API cannot express (custom benchmark types,
// instrumented runs) return an error.
func newRunRequest(spec network.Spec, cfg core.RunConfig) (RunRequest, error) {
	if len(cfg.Instruments) > 0 {
		return RunRequest{}, fmt.Errorf("service: instrumented runs cannot execute remotely")
	}
	name := ""
	if cfg.Bench != nil {
		name = cfg.Bench.Name()
	}
	if _, err := benchFor(spec, name); err != nil {
		return RunRequest{}, fmt.Errorf("service: benchmark %q is not expressible over the API: %w", name, err)
	}
	return RunRequest{
		Spec:      spec,
		Bench:     name,
		LoadGFs:   cfg.LoadGFs,
		Seed:      cfg.Seed,
		WarmupPs:  int64(cfg.Warmup),
		MeasurePs: int64(cfg.Measure),
		DrainPs:   int64(cfg.Drain),
		MaxEvents: cfg.MaxEvents,
	}, nil
}

// RunResponse returns one simulation result.
type RunResponse struct {
	// Key is the canonical job key (usable with GET /v1/jobs/{key}).
	Key string `json:"key"`
	// Cached reports whether the result was served from the memo or the
	// persistent store without running a fresh simulation.
	Cached bool `json:"cached"`
	// ElapsedMs is the server-side handling time.
	ElapsedMs float64 `json:"elapsed_ms"`
	// Result is the full measurement record.
	Result core.RunResult `json:"result"`
}

// SweepRequest submits one latency-versus-load sweep (POST /v1/sweep):
// a saturation search anchors the grid, then every grid point runs.
type SweepRequest struct {
	Spec      network.Spec `json:"spec"`
	Bench     string       `json:"bench"`
	Seed      uint64       `json:"seed"`
	WarmupPs  int64        `json:"warmup_ps"`
	MeasurePs int64        `json:"measure_ps"`
	DrainPs   int64        `json:"drain_ps"`
	// Points and MaxFraction shape the load grid (see core.LoadGrid).
	Points      int     `json:"points"`
	MaxFraction float64 `json:"max_fraction"`
	TimeoutMs   int64   `json:"timeout_ms,omitempty"`
}

// SweepResponse returns the sweep curve.
type SweepResponse struct {
	Network   string            `json:"network"`
	Benchmark string            `json:"benchmark"`
	ElapsedMs float64           `json:"elapsed_ms"`
	Points    []core.SweepPoint `json:"points"`
}

// Error kinds carried in ErrorResponse.Kind: the client's retry policy
// keys off these (and the HTTP status) rather than parsing messages.
const (
	ErrKindBadRequest = "bad_request" // malformed or inexpressible job
	ErrKindShed       = "shed"        // admission queue full, retry later
	ErrKindDraining   = "draining"    // server shutting down, retry elsewhere/later
	ErrKindTimeout    = "timeout"     // per-request deadline expired
	ErrKindSim        = "sim_error"   // the simulation itself failed (deterministic)
	ErrKindNotFound   = "not_found"   // unknown job key
)

// ErrorResponse is the JSON error body of every non-2xx response.
type ErrorResponse struct {
	Kind  string `json:"kind"`
	Error string `json:"error"`
}

// HealthResponse is the GET /healthz and /readyz body.
type HealthResponse struct {
	Status string `json:"status"` // "ok", "draining", or "overloaded"
	// Queue and QueueCap report admission occupancy.
	Queue    int `json:"queue"`
	QueueCap int `json:"queue_cap"`
}
