package main

import (
	"fmt"
	"time"

	"asyncnoc"
	"asyncnoc/internal/packet"
	"asyncnoc/internal/rng"
	"asyncnoc/internal/routing"
)

// Section 5.1 windows: the paper tables' latency and power runs.
const (
	paperWarmup  = 320 * asyncnoc.Nanosecond
	paperMeasure = 3200 * asyncnoc.Nanosecond
	paperDrain   = 800 * asyncnoc.Nanosecond
)

// quarterBaselineSat is a quarter of the Baseline network's saturation
// throughput per benchmark (EXPERIMENTS.md, Table 1): a load every
// architecture carries without saturating.
var quarterBaselineSat = map[string]float64{
	"UniformRandom":    1.47 / 4,
	"Shuffle":          1.46 / 4,
	"Hotspot":          0.29 / 4,
	"Multicast5":       1.27 / 4,
	"Multicast10":      1.29 / 4,
	"Multicast_static": 0.86 / 4,
}

type simJob struct {
	spec asyncnoc.NetworkSpec
	cfg  asyncnoc.RunConfig
}

// motSerial is the hot path every paper table pays: serial 8x8 MoT runs
// through Build, Sched.RunUntil and Collect, with no engine, store or
// shard group in the way.
type motSerial struct {
	c    config
	jobs []simJob
}

func newMotSerial(c config) workload { return &motSerial{c: c} }

func (w *motSerial) setup() error {
	specs := append(asyncnoc.AllNetworks(8),
		asyncnoc.WithStrategy(asyncnoc.OptHybridSpeculative(8), "PathBased"),
		asyncnoc.WithStrategy(asyncnoc.OptHybridSpeculative(8), "DPM"))
	w.jobs = w.jobs[:0]
	for _, spec := range specs {
		for _, bench := range asyncnoc.Benchmarks(8) {
			load, ok := quarterBaselineSat[bench.Name()]
			if !ok {
				return fmt.Errorf("no load for benchmark %s", bench.Name())
			}
			w.jobs = append(w.jobs, simJob{spec: spec, cfg: asyncnoc.RunConfig{
				Bench: bench, LoadGFs: load, Seed: w.c.seed,
				Warmup: paperWarmup, Measure: paperMeasure, Drain: paperDrain,
			}})
		}
	}
	return buildOnce(w.jobs)
}

// buildOnce constructs one network per distinct spec among jobs, so a bad
// spec or configuration fails in set-up, before anything is timed.
func buildOnce(jobs []simJob) error {
	seen := map[string]bool{}
	for _, j := range jobs {
		if seen[j.spec.Name] {
			continue
		}
		seen[j.spec.Name] = true
		if _, err := asyncnoc.Build(j.spec, j.cfg); err != nil {
			return fmt.Errorf("%s: %w", j.spec.Name, err)
		}
	}
	return nil
}

func (w *motSerial) run(p *pass) error {
	var events uint64
	var packets int
	var forwards, throttles int64
	var simTime time.Duration
	for _, j := range w.jobs {
		p.attempted++
		label := j.spec.Name + "/" + j.cfg.Bench.Name()
		t0 := now()
		s := p.begin()
		nw, err := asyncnoc.Build(j.spec, j.cfg)
		p.end(s, modNetwork, "Build")
		if err != nil {
			p.fail("%s: build: %v", label, err)
			continue
		}
		s = time.Now()
		nw.Sched.RunUntil(j.cfg.Warmup + j.cfg.Measure + j.cfg.Drain)
		d := time.Since(s)
		p.add(modSim, "RunUntil", d)
		simTime += d
		s = p.begin()
		res := asyncnoc.Collect(nw, j.cfg)
		p.end(s, modCore, "Collect")
		p.op(t0)
		if res.Completion < 1 {
			p.fail("%s: completion %.4f below saturation", label, res.Completion)
		}
		events += nw.Sched.Executed()
		packets += res.MeasuredPackets
		for l := 0; l < res.Levels; l++ {
			forwards += res.ForwardsPerLevel[l]
			throttles += res.ThrottlesPerLevel[l]
		}
		p.results = append(p.results, record(label, res))
	}
	p.counts["sim.events"] = float64(events)
	p.counts["network.packets"] = float64(packets)
	p.layer["sim.events"] = float64(events)
	p.layer["events_per_s"] = float64(events) / simTime.Seconds()
	p.layer["network.packets"] = float64(packets)
	p.layer["network.events_per_packet"] = frac(float64(events), float64(packets))
	p.layer["network.redundant_frac"] = frac(float64(throttles), float64(forwards+throttles))
	if p.traced {
		run, _ := p.spanSum(modSim, "RunUntil")
		build, nb := p.spanSum(modNetwork, "Build")
		collect, nc := p.spanSum(modCore, "Collect")
		p.layer["sim.run_s"] = run.Seconds()
		p.layer["sim.ns_per_event"] = frac(float64(run.Nanoseconds()), float64(events))
		p.layer["network.build_ms"] = frac(ms(build), float64(nb))
		p.layer["core.collect_ms"] = frac(ms(collect), float64(nc))
	}
	return nil
}

func (w *motSerial) teardown() {}

// probe times every routing strategy's Plan on the destination sets the
// workload's benchmarks draw, over the OptHybrid fabric the multicast
// strategies run on.
func (w *motSerial) probe(layer map[string]float64) error {
	nw, err := asyncnoc.Build(asyncnoc.OptHybridSpeculative(8), w.jobs[0].cfg)
	if err != nil {
		return err
	}
	fabric := routing.Fabric{Placement: nw.Placement}
	type injection struct {
		src   int
		dests packet.DestSet
	}
	var injections []injection
	for _, bench := range asyncnoc.Benchmarks(8) {
		r := rng.New(w.c.seed)
		for i := 0; i < 512; i++ {
			injections = append(injections, injection{src: i % 8, dests: bench.NextDests(i%8, r)})
		}
	}
	for _, name := range routing.StrategyNames() {
		strat, err := routing.StrategyByName(name)
		if err != nil {
			return err
		}
		plans := 0
		emit := func(routing.Plan) { plans++ }
		calls := 0
		t0 := time.Now()
		for time.Since(t0) < 50*time.Millisecond {
			for _, in := range injections {
				if err := strat.Plan(fabric, in.src, in.dests, emit); err != nil {
					return fmt.Errorf("%s plan: %w", name, err)
				}
			}
			calls += len(injections)
		}
		layer["routing.plan_ns."+name] = float64(time.Since(t0).Nanoseconds()) / float64(calls)
		layer["routing.packets_per_injection."+name] = float64(plans) / float64(calls)
	}
	return nil
}

func (w *motSerial) verify(*pass) []string { return nil }

func record(label string, r asyncnoc.RunResult) runRecord { return runRecord{label: label, res: r} }
