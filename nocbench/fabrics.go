package main

import (
	"time"

	"asyncnoc"
)

// Fabric runs: a chiplet composition long enough for the shard group to
// matter, and the 2D-mesh substrate's separate run loop.
const (
	fabricLoad  = 0.2
	chipletDies = 2 // interposer is chipletDies x chipletDies
	chipletDieN = 8
	meshSide    = 4
)

// eventCounter is an Instrument that reads a run's dispatched-event count
// once the simulation finishes (before a shard group closes).
type eventCounter struct {
	nw     *asyncnoc.Network
	events uint64
}

func (c *eventCounter) Attach(nw *asyncnoc.Network) error { c.nw = nw; return nil }

func (c *eventCounter) Finish() error {
	if g := c.nw.Group(); g != nil {
		c.events = g.Executed()
	} else {
		c.events = c.nw.Sched.Executed()
	}
	return nil
}

// inlineShards runs a sharded network's windows on the coordinator
// goroutine. The default parallel backend deadlocks on a multi-core host
// (a stale worker wake-up; see NOTES.md), so the benchmark pins the
// inline backend until that is fixed.
type inlineShards struct{}

func (inlineShards) Attach(nw *asyncnoc.Network) error {
	if g := nw.Group(); g != nil {
		g.SetParallel(false)
	}
	return nil
}

func (inlineShards) Finish() error { return nil }

type fabricJob struct {
	label string
	cfg   asyncnoc.RunConfig
}

// fabrics is the one workload in which the shard group, the chiplet
// die-to-die gateways and the mesh run loop do real work. Every chiplet
// run executes serially and at shards = nproc; the two results must be
// identical.
type fabrics struct {
	c       config
	chiplet asyncnoc.NetworkSpec
	chips   []fabricJob
	meshes  []asyncnoc.MeshSpec
	meshCfg []fabricJob
}

func newFabrics(c config) workload { return &fabrics{c: c} }

func (w *fabrics) window(bench asyncnoc.Benchmark) asyncnoc.RunConfig {
	return asyncnoc.RunConfig{Bench: bench, LoadGFs: fabricLoad, Seed: w.c.seed,
		Warmup: paperWarmup, Measure: paperMeasure, Drain: paperDrain}
}

func (w *fabrics) setup() error {
	p := asyncnoc.ChipletSerial(chipletDies, chipletDies)
	w.chiplet = asyncnoc.WithChiplet(asyncnoc.OptHybridSpeculative(chipletDieN), p)
	w.chips = w.chips[:0]
	for _, name := range []string{"UniformRandom", "Multicast10"} {
		bench, err := asyncnoc.ChipletBenchmarkByName(p, chipletDieN, name)
		if err != nil {
			return err
		}
		w.chips = append(w.chips, fabricJob{label: w.chiplet.Name + "/" + name, cfg: w.window(bench)})
	}
	w.meshes = []asyncnoc.MeshSpec{asyncnoc.MeshTree(meshSide, meshSide), asyncnoc.MeshSerial(meshSide, meshSide)}
	n := meshSide * meshSide
	w.meshCfg = []fabricJob{
		{label: "UniformRandom", cfg: w.window(asyncnoc.UniformRandom(n))},
		{label: "Multicast10", cfg: w.window(asyncnoc.MulticastFraction(n, 0.10))},
	}
	var jobs []simJob
	for _, j := range w.chips {
		jobs = append(jobs, simJob{spec: w.chiplet, cfg: j.cfg})
	}
	return buildOnce(jobs)
}

func (w *fabrics) run(p *pass) error {
	var events, packets, barriers, windows, extended, coalesced, mail, shardedEvents uint64
	var barrierNs int64
	var d2dPackets, d2dHops int64
	var d2dLat []float64
	var serialTime, shardedTime time.Duration
	for _, j := range w.chips {
		var serial asyncnoc.RunResult
		var serialEvents uint64
		for _, shards := range []int{1, w.c.nproc} {
			p.attempted++
			cfg := j.cfg
			cfg.Shards = shards
			ev := &eventCounter{}
			st := &asyncnoc.ShardStatsInstrument{Timing: p.traced}
			cfg.Instruments = []asyncnoc.Instrument{inlineShards{}, ev, st}
			t0 := now()
			res, err := asyncnoc.Run(w.chiplet, cfg)
			d := p.op(t0)
			p.add(modChiplet, "Run", d)
			if err != nil {
				p.fail("%s shards=%d: %v", j.label, shards, err)
				continue
			}
			if res.Completion < 1 {
				p.fail("%s shards=%d: completion %.4f below saturation", j.label, shards, res.Completion)
			}
			if shards == 1 {
				serial, serialEvents = res, ev.events
				serialTime += d
				events += ev.events
				packets += uint64(res.MeasuredPackets)
				d2dPackets += int64(res.D2DMeasuredPackets)
				d2dHops += res.D2DFlitHops
				d2dLat = append(d2dLat, res.AvgD2DLatencyNs)
				p.results = append(p.results, record(j.label, res))
				continue
			}
			shardedTime += d
			if res != serial {
				p.fail("%s: result at %d shards differs from the serial run", j.label, shards)
			}
			if ev.events != serialEvents {
				p.fail("%s: %d events at %d shards vs %d serial", j.label, ev.events, shards, serialEvents)
			}
			s, _, _ := st.Stats()
			barriers += s.Barriers
			windows += s.Windows
			extended += s.ExtendedWindows
			coalesced += s.CoalescedReplays
			mail += s.MailboxEvents
			barrierNs += s.BarrierNs
			shardedEvents += ev.events
		}
	}
	for _, spec := range w.meshes {
		for _, j := range w.meshCfg {
			label := spec.Name + "/" + j.label
			p.attempted++
			t0 := now()
			res, err := asyncnoc.RunMesh(spec, j.cfg)
			d := p.op(t0)
			p.add(modMesh, "RunMesh", d)
			if err != nil {
				p.fail("%s: %v", label, err)
				continue
			}
			if res.Completion < 1 {
				p.fail("%s: completion %.4f below saturation", label, res.Completion)
			}
			p.results = append(p.results, record(label, res))
		}
	}
	for k, v := range map[string]float64{
		"sim.events":            float64(events),
		"network.packets":       float64(packets),
		"sim.shard.barriers":    float64(barriers),
		"chiplet.d2d_flit_hops": float64(d2dHops),
	} {
		p.counts[k] = v
		p.layer[k] = v
	}
	p.layer["events_per_s"] = float64(events) / serialTime.Seconds()
	p.layer["sim.ns_per_event"] = frac(float64(serialTime.Nanoseconds()), float64(events))
	p.layer["network.events_per_packet"] = frac(float64(events), float64(packets))
	p.layer["sim.shard.windows"] = float64(windows)
	p.layer["sim.shard.extended_frac"] = frac(float64(extended), float64(windows))
	p.layer["sim.shard.coalesced_frac"] = frac(float64(coalesced), float64(barriers))
	p.layer["sim.shard.mail_events"] = float64(mail)
	p.layer["sim.shard.events_per_barrier"] = frac(float64(shardedEvents), float64(barriers))
	p.layer["sim.shard.speedup"] = frac(serialTime.Seconds(), shardedTime.Seconds())
	p.layer["chiplet.d2d_packets"] = float64(d2dPackets)
	p.layer["chiplet.d2d_latency_ns"] = geomean(d2dLat)
	if p.traced {
		p.layer["sim.shard.barrier_s"] = float64(barrierNs) / 1e9
		mesh, _ := p.spanSum(modMesh, "")
		p.layer["mesh.run_s"] = mesh.Seconds()
	}
	return nil
}

func (w *fabrics) teardown() {}

func (w *fabrics) probe(map[string]float64) error { return nil }

func (w *fabrics) verify(*pass) []string { return nil }
