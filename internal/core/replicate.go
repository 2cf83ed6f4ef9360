package core

import (
	"fmt"
	"math"

	"asyncnoc/internal/network"
	"asyncnoc/internal/stats"
)

// Replicated aggregates a run configuration over several seeds: mean and
// sample standard deviation of each reported metric. Simulation noise in
// this model comes only from the injection process and benchmark draws,
// so a handful of seeds gives tight intervals.
type Replicated struct {
	Network   string
	Benchmark string
	Seeds     int

	MeanLatencyNs, StdLatencyNs      float64
	MeanThroughputGFs, StdThroughput float64
	MeanPowerMW, StdPowerMW          float64
	MeanCompletion                   float64
	Runs                             []RunResult
}

// RunSeeds executes the configuration once per seed (cfg.Seed is
// replaced) on a network of any topology and aggregates the results, on
// the shared default engine.
func RunSeeds(spec network.Spec, cfg RunConfig, seeds []uint64) (Replicated, error) {
	return DefaultEngine().RunSeeds(spec, cfg, seeds)
}

// RunSeeds executes the configuration once per seed (cfg.Seed is
// replaced) concurrently on the pool and aggregates the results in seed
// order, so the aggregate is independent of completion order.
func (e *Engine) RunSeeds(spec network.Spec, cfg RunConfig, seeds []uint64) (Replicated, error) {
	if len(seeds) == 0 {
		return Replicated{}, fmt.Errorf("core: RunSeeds needs at least one seed")
	}
	jobs := make([]Job, len(seeds))
	for i, seed := range seeds {
		c := cfg
		c.Seed = seed
		jobs[i] = Job{Spec: spec, Cfg: c}
	}
	results, err := e.RunJobs(jobs)
	if err != nil {
		return Replicated{}, err
	}
	var lat, thr, pwr, cmp []float64
	out := Replicated{Seeds: len(seeds)}
	for _, r := range results {
		out.Network, out.Benchmark = r.Network, r.Benchmark
		out.Runs = append(out.Runs, r)
		lat = append(lat, r.AvgLatencyNs)
		thr = append(thr, r.ThroughputGFs)
		pwr = append(pwr, r.PowerMW)
		cmp = append(cmp, r.Completion)
	}
	out.MeanLatencyNs, out.StdLatencyNs = stats.Mean(lat), stats.StdDev(lat)
	out.MeanThroughputGFs, out.StdThroughput = stats.Mean(thr), stats.StdDev(thr)
	out.MeanPowerMW, out.StdPowerMW = stats.Mean(pwr), stats.StdDev(pwr)
	out.MeanCompletion = stats.Mean(cmp)
	return out, nil
}

// RelativeError returns the latency coefficient of variation (stddev /
// mean), a quick stability check for chosen measurement windows.
func (r Replicated) RelativeError() float64 {
	if r.MeanLatencyNs == 0 {
		return math.NaN()
	}
	return r.StdLatencyNs / r.MeanLatencyNs
}
