package core

import (
	"cmp"
	"context"
	"fmt"
	"math"

	"asyncnoc/internal/network"
)

// SatConfig parameterizes the saturation-throughput search of Table 1.
//
// Saturation is detected the standard way: the offered load at which the
// average latency diverges past LatencyFactor times the zero-load latency,
// or at which the network stops completing its measured packets. The
// boundary is located by doubling then bisection on the offered load.
type SatConfig struct {
	// Base supplies benchmark, seed, and windows; its LoadGFs is ignored.
	Base RunConfig
	// LatencyFactor is the divergence multiple over zero-load latency
	// (default 4).
	LatencyFactor float64
	// MinCompletion is the fraction of measured packets that must
	// complete for a load to count as stable (default 0.92).
	MinCompletion float64
	// ZeroLoadGFs is the probe load for the zero-load latency
	// (default 0.05).
	ZeroLoadGFs float64
	// StartLoad seeds the upward search (default 0.4).
	StartLoad float64
	// MaxLoad caps the search (default 16).
	MaxLoad float64
	// Iters is the bisection depth (default 9, ~0.2% resolution).
	Iters int
}

func (c *SatConfig) defaults() {
	c.LatencyFactor = cmp.Or(c.LatencyFactor, 4)
	c.MinCompletion = cmp.Or(c.MinCompletion, 0.92)
	c.ZeroLoadGFs = cmp.Or(c.ZeroLoadGFs, 0.05)
	c.StartLoad = cmp.Or(c.StartLoad, 0.4)
	c.MaxLoad = cmp.Or(c.MaxLoad, 16)
	c.Iters = cmp.Or(c.Iters, 9)
}

// Validate checks the configuration as the search will use it (zero
// fields take their defaults first), aggregating every invalid field
// into a single *ConfigError. The search calls it before its first
// probe, so a bad configuration never costs a simulation.
func (c SatConfig) Validate() error {
	c.defaults()
	var fields []FieldError
	add := func(field, format string, args ...any) {
		fields = append(fields, FieldError{Field: field, Reason: fmt.Sprintf(format, args...)})
	}
	// finite reports (once) a NaN, infinite or negative field; the range
	// checks below only look at fields that passed it.
	finite := func(field string, v float64) bool {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			add(field, "%v must be finite and not negative", v)
			return false
		}
		return true
	}
	finite("LatencyFactor", c.LatencyFactor)
	finite("ZeroLoadGFs", c.ZeroLoadGFs)
	if finite("MinCompletion", c.MinCompletion) && c.MinCompletion > 1 {
		add("MinCompletion", "completion fraction %v exceeds 1", c.MinCompletion)
	}
	startOK, maxOK := finite("StartLoad", c.StartLoad), finite("MaxLoad", c.MaxLoad)
	if startOK && maxOK && c.StartLoad > c.MaxLoad {
		add("StartLoad", "start load %v exceeds MaxLoad %v", c.StartLoad, c.MaxLoad)
	}
	if c.Iters < 0 {
		add("Iters", "bisection depth %d must not be negative", c.Iters)
	}
	if len(fields) > 0 {
		return &ConfigError{Fields: fields, config: "SatConfig"}
	}
	return nil
}

// SatResult reports a saturation search outcome.
type SatResult struct {
	Network   string
	Benchmark string
	// SatLoadGFs is the highest stable offered load found.
	SatLoadGFs float64
	// ThroughputGFs is the accepted (delivered) throughput at that
	// load — the "saturation throughput" of Table 1. For multicast
	// traffic it exceeds the offered load because replicated deliveries
	// count at every destination.
	ThroughputGFs float64
	// ZeroLoadLatencyNs anchors the divergence criterion.
	ZeroLoadLatencyNs float64
	// AtSaturation is the full measurement at the stable boundary load.
	AtSaturation RunResult
}

// Saturation searches for the saturation throughput of one network under
// one benchmark on the shared default engine.
func Saturation(spec network.Spec, cfg SatConfig) (SatResult, error) {
	return DefaultEngine().Saturation(spec, cfg)
}

// Saturation runs the saturation search through the engine. The search
// is a plain bisection: each probe decides the next, so one search
// occupies one pool slot at a time, and every probe is memoized.
// Parallelism comes from running independent searches side by side
// (Prefetch in internal/experiments, one goroutine per network in
// cmd/loadsweep), never from guessing the next probe.
func (e *Engine) Saturation(spec network.Spec, cfg SatConfig) (SatResult, error) {
	return e.SaturationContext(context.Background(), spec, cfg)
}

// SaturationContext is Saturation with cancellation: every probe runs
// under ctx, so an abandoned search stops issuing new simulations.
func (e *Engine) SaturationContext(ctx context.Context, spec network.Spec, cfg SatConfig) (SatResult, error) {
	return saturationSearch(ctx, spec.Name, cfg, func(load float64) (RunResult, error) {
		c := cfg.Base
		c.LoadGFs = load
		return e.RunContext(ctx, spec, c)
	})
}

// SaturationWith runs the saturation search against an arbitrary serial
// runner (the mesh substrate reuses it); name labels error messages.
func SaturationWith(name string, cfg SatConfig, run func(load float64) (RunResult, error)) (SatResult, error) {
	return saturationSearch(context.Background(), name, cfg, run)
}

// saturationSearch is the search loop shared by every entry point. It
// validates cfg before the first probe.
//
// ctx is consulted between iterations, not just inside each probe: on a
// warm memo every probe is an instant hit that never observes
// cancellation, so without the explicit checks an abandoned search
// would happily run to completion. A canceled search returns a
// *CanceledError that unwraps to ctx.Err().
func saturationSearch(ctx context.Context, name string, cfg SatConfig, run func(load float64) (RunResult, error)) (SatResult, error) {
	cfg.defaults()
	if err := cfg.Validate(); err != nil {
		return SatResult{}, err
	}
	canceled := func(stage string) (SatResult, error) {
		return SatResult{}, &CanceledError{Network: name, Stage: stage, Err: ctx.Err()}
	}
	if ctx.Err() != nil {
		return canceled("saturation zero-load probe")
	}
	zero, err := run(cfg.ZeroLoadGFs)
	if err != nil {
		return SatResult{}, err
	}
	if zero.MeasuredPackets == 0 || zero.Completion == 0 {
		return SatResult{}, fmt.Errorf("core: zero-load probe of %s measured no packets; widen the windows", name)
	}
	saturated := func(r RunResult) bool {
		return r.Completion < cfg.MinCompletion ||
			r.AvgLatencyNs > cfg.LatencyFactor*zero.AvgLatencyNs
	}

	lo, hi := 0.0, cfg.StartLoad
	var loRes RunResult
	// Grow hi until it saturates (or the cap is hit).
	for {
		if ctx.Err() != nil {
			return canceled("saturation grow")
		}
		r, err := run(hi)
		if err != nil {
			return SatResult{}, err
		}
		if saturated(r) {
			break
		}
		lo, loRes = hi, r
		if hi >= cfg.MaxLoad {
			cfg.Iters = 0 // never saturated within the cap: report the cap
			break
		}
		hi = math.Min(2*hi, cfg.MaxLoad)
	}
	// Bisect the boundary.
	for i := 0; i < cfg.Iters; i++ {
		if ctx.Err() != nil {
			return canceled(fmt.Sprintf("saturation bisect iteration %d/%d", i+1, cfg.Iters))
		}
		mid := (lo + hi) / 2
		r, err := run(mid)
		if err != nil {
			return SatResult{}, err
		}
		if saturated(r) {
			hi = mid
		} else {
			lo, loRes = mid, r
		}
	}
	if lo == 0 {
		// Even StartLoad saturated and bisection never found a stable
		// point above zero; fall back to the zero-load probe.
		lo, loRes = cfg.ZeroLoadGFs, zero
	}
	return SatResult{
		Network:           name,
		Benchmark:         cfg.Base.Bench.Name(),
		SatLoadGFs:        lo,
		ThroughputGFs:     loRes.ThroughputGFs,
		ZeroLoadLatencyNs: zero.AvgLatencyNs,
		AtSaturation:      loRes,
	}, nil
}
