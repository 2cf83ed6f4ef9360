package core

import (
	"context"
	"fmt"

	"asyncnoc/internal/network"
)

// SweepPoint is one measurement of a latency-versus-offered-load curve.
type SweepPoint struct {
	// FractionOfSat is the point's position on the load grid.
	FractionOfSat float64
	// Result is the measurement at that offered load.
	Result RunResult
}

// LoadGrid returns `points` load values spread over (0, maxFraction] of
// the saturation load — the classic latency-throughput curve grid.
func LoadGrid(satLoad float64, points int, maxFraction float64) []float64 {
	if points < 1 || satLoad <= 0 || maxFraction <= 0 {
		return nil
	}
	out := make([]float64, points)
	for i := range out {
		out[i] = satLoad * maxFraction * float64(i+1) / float64(points)
	}
	return out
}

// LoadSweep measures the latency-throughput curve of one network under
// one benchmark: a saturation search anchors the grid, then every grid
// point runs concurrently on the pool. Grid points that coincide with
// saturation probes (the anchor load in particular) are memo hits.
func (e *Engine) LoadSweep(spec network.Spec, base RunConfig, points int, maxFraction float64) ([]SweepPoint, error) {
	return e.LoadSweepContext(context.Background(), spec, base, points, maxFraction)
}

// LoadSweepContext is LoadSweep with cancellation applied to the anchor
// search and every grid point.
func (e *Engine) LoadSweepContext(ctx context.Context, spec network.Spec, base RunConfig, points int, maxFraction float64) ([]SweepPoint, error) {
	if points < 1 {
		return nil, fmt.Errorf("core: sweep needs at least one point")
	}
	sat, err := e.SaturationContext(ctx, spec, SatConfig{Base: base})
	if err != nil {
		return nil, err
	}
	grid := LoadGrid(sat.SatLoadGFs, points, maxFraction)
	jobs := make([]Job, len(grid))
	for i, load := range grid {
		cfg := base
		cfg.LoadGFs = load
		jobs[i] = Job{Spec: spec, Cfg: cfg}
	}
	results, err := e.RunJobsContext(ctx, jobs)
	if err != nil {
		return nil, err
	}
	out := make([]SweepPoint, len(grid))
	for i, res := range results {
		out[i] = SweepPoint{
			FractionOfSat: maxFraction * float64(i+1) / float64(points),
			Result:        res,
		}
	}
	return out, nil
}
