package main

import (
	"context"
	"time"

	"asyncnoc"
)

// CI-scale windows of cmd/experiments -quick: saturation probes, and the
// latency runs of the service workload.
const (
	quickSatWarmup  = 120 * asyncnoc.Nanosecond
	quickSatMeasure = 400 * asyncnoc.Nanosecond
	quickSatDrain   = 300 * asyncnoc.Nanosecond
	quickLatWarmup  = 200 * asyncnoc.Nanosecond
	quickLatMeasure = 1200 * asyncnoc.Nanosecond
	quickLatDrain   = 500 * asyncnoc.Nanosecond
	quickSatIters   = 7
)

type satPair struct {
	spec  asyncnoc.NetworkSpec
	bench asyncnoc.Benchmark
}

// satTable runs a slice of Fig 6a and Table 1 the way users run it: a
// saturation search per (network, benchmark) on one cold engine, then a
// latency run at 25% of the saturation it found. The latency runs use the
// paper's windows: at quick windows their p99 swings too much with the
// seed to bound.
type satTable struct {
	c     config
	pairs []satPair
	// eng is the last pass's engine, kept for the probe.
	eng *asyncnoc.Engine
}

func newSatTable(c config) workload { return &satTable{c: c} }

func (w *satTable) setup() error {
	w.pairs = w.pairs[:0]
	for _, spec := range []asyncnoc.NetworkSpec{
		asyncnoc.Baseline(8), asyncnoc.BasicNonSpeculative(8), asyncnoc.OptHybridSpeculative(8),
	} {
		for _, bench := range []asyncnoc.Benchmark{
			asyncnoc.UniformRandom(8), asyncnoc.MulticastFraction(8, 0.10), asyncnoc.Hotspot(8, 0),
		} {
			w.pairs = append(w.pairs, satPair{spec: spec, bench: bench})
		}
	}
	var jobs []simJob
	for _, pr := range w.pairs {
		jobs = append(jobs, simJob{spec: pr.spec, cfg: w.latencyConfig(pr.bench, 1)})
	}
	return buildOnce(jobs)
}

// latencyConfig is the Fig 6a measurement at the given offered load, at
// the paper's windows.
func (w *satTable) latencyConfig(bench asyncnoc.Benchmark, load float64) asyncnoc.RunConfig {
	return asyncnoc.RunConfig{Bench: bench, LoadGFs: load, Seed: w.c.seed,
		Warmup: paperWarmup, Measure: paperMeasure, Drain: paperDrain}
}

func (w *satTable) satConfig(bench asyncnoc.Benchmark) asyncnoc.SatConfig {
	return asyncnoc.SatConfig{
		Base: asyncnoc.RunConfig{Bench: bench, Seed: w.c.seed,
			Warmup: quickSatWarmup, Measure: quickSatMeasure, Drain: quickSatDrain},
		Iters: quickSatIters,
	}
}

func (w *satTable) run(p *pass) error {
	eng := asyncnoc.NewEngine(w.c.nproc)
	var sats []float64
	for _, pr := range w.pairs {
		label := pr.spec.Name + "/" + pr.bench.Name()
		p.attempted++
		t0 := now()
		s := p.begin()
		sat, err := eng.Saturation(pr.spec, w.satConfig(pr.bench))
		p.end(s, modCore, "Saturation")
		p.op(t0)
		if err != nil {
			p.fail("%s: saturation: %v", label, err)
			continue
		}
		sats = append(sats, sat.ThroughputGFs)
		p.attempted++
		t0 = now()
		s = p.begin()
		res, err := eng.Run(pr.spec, w.latencyConfig(pr.bench, sat.SatLoadGFs/4))
		p.end(s, modCore, "Run")
		p.step(t0)
		if err != nil {
			p.fail("%s: latency run: %v", label, err)
			continue
		}
		if res.Completion < 1 {
			p.fail("%s: completion %.4f at 25%% of saturation", label, res.Completion)
		}
		p.results = append(p.results, record(label, res))
		p.counts["sat:"+label] = sat.SatLoadGFs
	}
	// Speculative probes may still be computing when the last search
	// returns; they are work this pass started, so wait for them.
	t0 := now()
	snap := waitIdle(eng)
	p.step(t0)
	w.eng = eng
	p.counts["core.engine.sims"] = float64(snap.Started)
	p.counts["core.engine.hits"] = float64(snap.Hits)
	p.layer["core.engine.sims"] = float64(snap.Started)
	p.layer["core.engine.hits"] = float64(snap.Hits)
	p.layer["sim_sat_gfs"] = geomean(sats)
	if p.traced {
		search, _ := p.spanSum(modCore, "Saturation")
		lat, _ := p.spanSum(modCore, "Run")
		p.layer["core.sat_search_s"] = search.Seconds()
		p.layer["core.latency_run_s"] = lat.Seconds()
	}
	return nil
}

// waitIdle blocks until every simulation the engine has claimed has
// finished and returns the final counters.
func waitIdle(eng *asyncnoc.Engine) asyncnoc.EngineSnapshot {
	for {
		s := eng.Snapshot()
		if s.Completed == s.Misses {
			return s
		}
		time.Sleep(100 * time.Microsecond)
	}
}

func (w *satTable) teardown() {}

// probe measures how much of the speculative bisection was useful: the
// same searches on a 1-worker engine (which never speculates), served
// from the last pass's memo through the remote hook, need RemoteRuns
// simulations; the pass ran Started-len(pairs) for its searches.
func (w *satTable) probe(layer map[string]float64) error {
	warm := w.eng
	snap := warm.Snapshot()
	serial := asyncnoc.NewEngine(1)
	serial.SetRemote(func(ctx context.Context, spec asyncnoc.NetworkSpec, cfg asyncnoc.RunConfig) (asyncnoc.RunResult, error) {
		return warm.RunContext(ctx, spec, cfg)
	})
	for _, pr := range w.pairs {
		if _, err := serial.Saturation(pr.spec, w.satConfig(pr.bench)); err != nil {
			return err
		}
	}
	needed := serial.Snapshot().RemoteRuns
	ran := snap.Started - uint64(len(w.pairs))
	layer["core.engine.spec_useful_frac"] = frac(float64(needed), float64(ran))
	return nil
}

func (w *satTable) verify(*pass) []string { return nil }
