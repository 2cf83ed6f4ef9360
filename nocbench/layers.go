package main

import "fmt"

// layerDef is one per-layer metric: printed on every workload, 0 with a
// reason where the workload does not exercise the layer.
type layerDef struct {
	name, unit string
	// where names the workloads that measure it (the n/a reason).
	where string
	// sample, when set, is the pass sample list the value is a quantile of.
	sample string
	q      float64
	// figure marks an end-to-end figure that has no bound; untraced runs
	// print these too.
	figure bool
}

const (
	wMot     = "mot-serial"
	wSat     = "sat-table"
	wFabrics = "fabrics-sharded"
	wService = "service"
)

var layerDefs = []layerDef{
	// End-to-end figures without a bound: the wall-clock twins of the
	// CPU metrics, the peak heap (its run-to-run spread is near the widest
	// bound allowed), and the metrics only one or two workloads have.
	{name: "wall_s", unit: "s", where: "all workloads", figure: true},
	{name: "op_wall_p50_ms", unit: "ms", where: "all workloads", sample: "op_wall_ms", q: 0.5, figure: true},
	{name: "peak_heap_mb", unit: "MiB", where: "all workloads", figure: true},
	{name: "events_per_s", unit: "1/s", where: wMot + ", " + wFabrics, figure: true},
	{name: "cold_req_p50_ms", unit: "ms", where: wService, sample: "cold_ms", q: 0.5, figure: true},
	{name: "warm_req_p50_us", unit: "us", where: wService, sample: "warm_us", q: 0.5, figure: true},
	{name: "warm_req_p99_us", unit: "us", where: wService, sample: "warm_us", q: 0.99, figure: true},
	{name: "store_req_p50_us", unit: "us", where: wService, sample: "store_us", q: 0.5, figure: true},
	{name: "sim_sat_gfs", unit: "GF/s", where: wSat, figure: true},
	{name: "fail_frac", unit: "frac", where: "all workloads", figure: true},

	{name: "sim.events", unit: "count", where: wMot + ", " + wFabrics},
	{name: "sim.run_s", unit: "s", where: wMot},
	{name: "sim.ns_per_event", unit: "ns", where: wMot + ", " + wFabrics},
	{name: "sim.shard.barriers", unit: "count", where: wFabrics},
	{name: "sim.shard.windows", unit: "count", where: wFabrics},
	{name: "sim.shard.extended_frac", unit: "frac", where: wFabrics},
	{name: "sim.shard.coalesced_frac", unit: "frac", where: wFabrics},
	{name: "sim.shard.mail_events", unit: "count", where: wFabrics},
	{name: "sim.shard.events_per_barrier", unit: "count", where: wFabrics},
	{name: "sim.shard.barrier_s", unit: "s", where: wFabrics},
	{name: "sim.shard.speedup", unit: "x", where: wFabrics},

	{name: "network.build_ms", unit: "ms", where: wMot},
	{name: "network.packets", unit: "count", where: wMot + ", " + wFabrics},
	{name: "network.events_per_packet", unit: "count", where: wMot + ", " + wFabrics},
	{name: "network.redundant_frac", unit: "frac", where: wMot},

	{name: "routing.plan_ns.SerialUnicast", unit: "ns", where: wMot},
	{name: "routing.plan_ns.TreeMulticast", unit: "ns", where: wMot},
	{name: "routing.plan_ns.SpeculativeMulticast", unit: "ns", where: wMot},
	{name: "routing.plan_ns.PathBased", unit: "ns", where: wMot},
	{name: "routing.plan_ns.DPM", unit: "ns", where: wMot},
	{name: "routing.packets_per_injection.SerialUnicast", unit: "count", where: wMot},
	{name: "routing.packets_per_injection.TreeMulticast", unit: "count", where: wMot},
	{name: "routing.packets_per_injection.SpeculativeMulticast", unit: "count", where: wMot},
	{name: "routing.packets_per_injection.PathBased", unit: "count", where: wMot},
	{name: "routing.packets_per_injection.DPM", unit: "count", where: wMot},

	{name: "core.collect_ms", unit: "ms", where: wMot},
	{name: "core.sat_search_s", unit: "s", where: wSat},
	{name: "core.latency_run_s", unit: "s", where: wSat},
	{name: "core.engine.sims", unit: "count", where: wSat + ", " + wService},
	{name: "core.engine.hits", unit: "count", where: wSat + ", " + wService},
	{name: "core.engine.spec_useful_frac", unit: "frac", where: wSat},
	{name: "core.engine.hit_us", unit: "us", where: wService},

	{name: "chiplet.d2d_packets", unit: "count", where: wFabrics},
	{name: "chiplet.d2d_flit_hops", unit: "count", where: wFabrics},
	{name: "chiplet.d2d_latency_ns", unit: "ns", where: wFabrics},

	{name: "mesh.run_s", unit: "s", where: wFabrics},

	{name: "store.get_us", unit: "us", where: wService},
	{name: "store.put_us", unit: "us", where: wService},
	{name: "store.hits", unit: "count", where: wService},
	{name: "store.misses", unit: "count", where: wService},
	{name: "store.writes", unit: "count", where: wService},

	{name: "service.server_ms", unit: "ms", where: wService, sample: "server_ms", q: 0.5},
	{name: "service.http_us", unit: "us", where: wService, sample: "http_us", q: 0.5},
	{name: "service.shed", unit: "count", where: wService},
	{name: "service.store_served", unit: "count", where: wService},
	{name: "service.store_cached_flags", unit: "count", where: wService},
}

// perLayer derives the per-layer metrics of a traced run. Values a pass
// records are medians over the passes that recorded them; sampled
// latencies are quantiles over every pass's samples; probe values come
// from the calls made after the passes. Host time is attributed to each
// module from the spans of the traced passes.
//
// It also returns the unbounded end-to-end figures on their own, which is
// all an untraced run can fill.
func perLayer(name string, traced, untraced []*pass, probe map[string]float64, failFrac float64) (figures, out []metric) {
	all := append(append([]*pass(nil), untraced...), traced...)
	for _, d := range layerDefs {
		m := metric{name: d.name, unit: d.unit}
		switch {
		case d.name == "fail_frac":
			m.value, m.n = failFrac, 1
		case d.sample != "":
			var xs []float64
			for _, p := range all {
				xs = append(xs, p.samples[d.sample]...)
			}
			m.value, m.n = quantile(xs, d.q), len(xs)
		default:
			if v, ok := probe[d.name]; ok {
				m.value, m.n = v, 1
				break
			}
			var xs []float64
			for _, p := range all {
				if v, ok := p.layer[d.name]; ok {
					xs = append(xs, v)
				}
			}
			m.value, m.n = median(xs), len(xs)
		}
		if m.n == 0 {
			m.na = fmt.Sprintf("not exercised on %s; measured on %s", name, d.where)
		}
		if d.figure {
			figures = append(figures, m)
		}
		out = append(out, m)
	}
	if len(traced) == 0 {
		return figures, out
	}

	// Host-time attribution: each module's share of the timed section,
	// from the spans around the benchmark's calls into it.
	var walls, untracedWalls []float64
	shares := map[string][]float64{}
	var covered []float64
	for _, p := range traced {
		walls = append(walls, p.wall.Seconds())
		var sum float64
		for _, mod := range modules {
			d, _ := p.spanSum(mod, "")
			shares[mod] = append(shares[mod], frac(d.Seconds(), p.wall.Seconds()))
			sum += d.Seconds()
		}
		covered = append(covered, frac(sum, p.wall.Seconds()))
	}
	for _, p := range untraced {
		untracedWalls = append(untracedWalls, p.wall.Seconds())
	}
	for _, mod := range modules {
		m := metric{name: mod + ".host_frac", unit: "frac", n: len(traced), value: median(shares[mod])}
		if m.value == 0 {
			m.na = fmt.Sprintf("no span of %s: the benchmark makes no timed call into it on %s", mod, name)
		}
		out = append(out, m)
	}
	out = append(out,
		metric{name: "bench.trace_overhead_frac", unit: "frac", n: len(walls) + len(untracedWalls),
			value: frac(median(walls), median(untracedWalls)) - 1},
		metric{name: "bench.residual_frac", unit: "frac", n: len(covered), value: 1 - median(covered)},
	)
	return figures, out
}
