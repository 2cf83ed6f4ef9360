// Command nocbench is the repository benchmark. It times the simulator,
// the experiment engine, the shard group and the simulation service from
// outside, through the calls a user of the library makes, and checks the
// outputs while it does.
//
//	nocbench --workload mot-serial --seed 2016 --seconds 20 --trace 0
//
// It runs the workload's fixed operation set ("a pass") repeatedly for
// --seconds, prints a human-readable report, and ends with one JSON line
// holding correct/attempted/failed and the metrics: the end-to-end set
// with --trace 0, the per-layer set with --trace 1. NOTES.md defines
// every metric. --workload all runs the four workloads in turn.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// A workload is one set of inputs the benchmark runs.
type workload interface {
	// setup prepares the next pass; it is timed as setup_s.
	setup() error
	// run executes the fixed operation set once: the timed section.
	run(p *pass) error
	// teardown releases what setup acquired (untimed).
	teardown()
	// probe makes the extra calls some per-layer metrics need. It runs
	// once, after the passes, and only in traced runs.
	probe(layer map[string]float64) error
	// verify compares the first pass against reference computations made
	// after the timed passes, returning one message per mismatch.
	verify(first *pass) []string
}

type workloadDef struct {
	name string
	make func(cfg config) workload
}

var workloads = []workloadDef{
	{"mot-serial", newMotSerial},
	{"sat-table", newSatTable},
	{"fabrics-sharded", newFabrics},
	{"service", newService},
}

// config is what every workload is built from. Workers and shards are set
// explicitly from the CPU count, never from the library's environment
// defaults.
type config struct {
	seed    uint64
	nproc   int
	scratch string
}

// overridingEnv lists the library environment variables that silently
// change what a run measures; the benchmark refuses to run under them.
var overridingEnv = []string{"ASYNCNOC_WORKERS", "ASYNCNOC_SHARDS", "ASYNCNOC_SHARD_EXEC"}

type metric struct {
	name, unit string
	n          int // sample count behind the value
	value      float64
	na         string // reason the metric does not apply, when set
}

func main() {
	wl := flag.String("workload", "", "workload name, or all")
	seed := flag.Uint64("seed", 2016, "workload seed")
	seconds := flag.Float64("seconds", 10, "measurement time per workload")
	trace := flag.Int("trace", 0, "1 prints the per-layer metrics from traced passes")
	scratch := flag.String("scratch", ".bench_build/tmp", "directory for temporary files")
	flag.Parse()

	for _, k := range overridingEnv {
		if v, ok := os.LookupEnv(k); ok {
			fmt.Fprintf(os.Stderr, "nocbench: refusing to run with %s=%q set: it changes what is measured\n", k, v)
			os.Exit(2)
		}
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "nocbench: --trace takes 0 or 1")
		os.Exit(2)
	}
	if *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "nocbench: --seconds must be positive")
		os.Exit(2)
	}
	var defs []workloadDef
	for _, d := range workloads {
		if *wl == "all" || *wl == d.name {
			defs = append(defs, d)
		}
	}
	if len(defs) == 0 {
		fmt.Fprintf(os.Stderr, "nocbench: unknown workload %q (have %s, all)\n", *wl, strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	if err := os.MkdirAll(*scratch, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "nocbench: %v\n", err)
		os.Exit(1)
	}
	cfg := config{seed: *seed, nproc: runtime.GOMAXPROCS(0), scratch: *scratch}
	fmt.Printf("machine: NumCPU=%d GOMAXPROCS=%d %s %s/%s; workers=shards=%d; %s unset\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH,
		cfg.nproc, strings.Join(overridingEnv, ", "))

	type result struct {
		Correct   bool                      `json:"correct"`
		Attempted int                       `json:"attempted"`
		Failed    int                       `json:"failed"`
		Metrics   map[string]map[string]any `json:"metrics"`
	}
	out := result{Metrics: map[string]map[string]any{}}
	for _, d := range defs {
		r, err := measure(d, cfg, time.Duration(*seconds*float64(time.Second)), *trace == 1)
		if err != nil {
			fmt.Fprintf(os.Stderr, "nocbench: %s: %v\n", d.name, err)
			os.Exit(1)
		}
		out.Attempted += r.attempted
		out.Failed += r.failed
		for _, m := range r.metrics {
			key := m.name
			if len(defs) > 1 {
				key = d.name + "/" + m.name
			}
			out.Metrics[key] = map[string]any{"value": m.value, "unit": m.unit}
		}
	}
	out.Correct = out.Failed == 0
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "nocbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func workloadNames() []string {
	var names []string
	for _, d := range workloads {
		names = append(names, d.name)
	}
	return names
}

type report struct {
	attempted, failed int
	metrics           []metric
}

// measure runs one workload for the given time and reports its metrics.
// Traced runs alternate untraced and traced passes, so the tracing
// overhead is measured within the run.
func measure(d workloadDef, cfg config, budget time.Duration, traced bool) (report, error) {
	w := d.make(cfg)
	var passes []*pass
	start := time.Now()
	for {
		p := newPass(traced && len(passes)%2 == 1)
		var err error
		for r := 0; r < setupReps && err == nil; r++ {
			if r > 0 {
				w.teardown()
			}
			t0 := time.Now()
			err = w.setup()
			p.setups = append(p.setups, time.Since(t0).Seconds())
		}
		if err == nil {
			runtime.GC() // start each timed section from the same heap state
			before := readMetric("/gc/heap/allocs:bytes")
			hs := startHeapSampler()
			c0 := cpuTime()
			t0 := time.Now()
			err = w.run(p)
			p.wall = time.Since(t0)
			p.cpu = cpuTime() - c0
			peak := hs.finish()
			p.allocBytes = readMetric("/gc/heap/allocs:bytes") - before
			if !p.traced {
				p.layer["wall_s"] = p.wall.Seconds()
				p.layer["peak_heap_mb"] = float64(peak) / (1 << 20)
				p.samples["op_wall_ms"] = p.ops
			}
		}
		w.teardown()
		if err != nil {
			return report{}, err
		}
		passes = append(passes, p)
		elapsed := time.Since(start)
		if len(passes) >= minPasses && elapsed+p.wall > budget {
			break
		}
	}

	first := passes[0]
	attempted, failed := 0, 0
	var msgs []string
	for i, p := range passes {
		attempted += p.attempted
		failed += len(p.failures)
		msgs = append(msgs, p.failures...)
		if i > 0 && len(p.failures) == 0 {
			if diff := compareDeterministic(first, p); diff != "" {
				failed++
				msgs = append(msgs, fmt.Sprintf("pass %d differs from pass 0: %s", i, diff))
			}
		}
	}
	if bad := w.verify(first); len(bad) > 0 {
		failed += len(bad)
		msgs = append(msgs, bad...)
	}
	if failed > attempted {
		failed = attempted
	}
	for i, m := range msgs {
		if i == 10 {
			fmt.Fprintf(os.Stderr, "nocbench: %s: ... %d more failures\n", d.name, len(msgs)-10)
			break
		}
		fmt.Fprintf(os.Stderr, "nocbench: %s: FAIL %s\n", d.name, m)
	}

	var untraced, tracedPasses []*pass
	for _, p := range passes {
		if p.traced {
			tracedPasses = append(tracedPasses, p)
		} else {
			untraced = append(untraced, p)
		}
	}
	e2e := endToEnd(passes, untraced)
	fmt.Printf("== %s: seed %d, %d passes (%d traced) in %.1f s; attempted %d, failed %d\n",
		d.name, cfg.seed, len(passes), len(tracedPasses), time.Since(start).Seconds(), attempted, failed)
	fmt.Printf("deterministic digest: %s\n", digest(first))
	fmt.Printf("pass CPU s:")
	for _, p := range passes {
		fmt.Printf(" %.3f", p.cpu.Seconds())
	}
	fmt.Printf("\npass wall s:")
	for _, p := range passes {
		fmt.Printf(" %.3f", p.wall.Seconds())
	}
	fmt.Println()
	printMetrics("end-to-end", e2e)
	rep := report{attempted: attempted, failed: failed, metrics: e2e}
	probe := map[string]float64{}
	if traced {
		if err := w.probe(probe); err != nil {
			return report{}, fmt.Errorf("probe: %w", err)
		}
	}
	figures, pl := perLayer(d.name, tracedPasses, untraced, probe, frac(float64(failed), float64(attempted)))
	if !traced {
		printMetrics("unbounded end-to-end", figures)
		return rep, nil
	}
	printMetrics("per-layer", pl)
	rep.metrics = pl
	return rep, nil
}

// setupReps is how many times each pass sets up (tearing down between).
const setupReps = 5

// minPasses is the fewest passes a run makes, however long they take: two
// let a run compare passes for determinism (and, traced, time one pass of
// each kind) while a slow host still finishes within a few budgets.
const minPasses = 2

// endToEnd derives the end-to-end metrics every workload reports. Host
// time is process CPU time: on a shared host the wall clock also counts
// time the process was not running, which varies run to run far more
// than the work does. The wall-clock figures are in the per-layer set.
func endToEnd(all, untraced []*pass) []metric {
	// Set-up takes about a millisecond, so one descheduling, GC cycle or
	// scavenger burst can multiply a sample. The fastest of a pass's
	// repetitions has seen none of them; the median over passes then
	// drops an outlying pass.
	var setups, allocs []float64
	for _, p := range all {
		best := p.setups[0]
		for _, s := range p.setups {
			best = math.Min(best, s)
		}
		setups = append(setups, best)
	}
	for _, p := range untraced {
		allocs = append(allocs, float64(p.allocBytes)/(1<<20))
	}
	lat, p99, pow := simMeans(all[0])
	nres := len(all[0].results)
	return []metric{
		{name: "setup_s", unit: "s", n: len(setups) * setupReps, value: median(setups)},
		{name: "host_cpu_s", unit: "s", n: len(untraced), value: passCPU(untraced)},
		{name: "op_cpu_ms", unit: "ms", n: len(untraced) * len(untraced[0].opsCPU), value: opCPU(untraced)},
		{name: "alloc_mb", unit: "MiB", n: len(allocs), value: median(allocs)},
		{name: "sim_latency_ns", unit: "ns", n: nres, value: lat},
		{name: "sim_latency_p99_ns", unit: "ns", n: nres, value: p99},
		{name: "sim_power_mw", unit: "mW", n: nres, value: pow},
	}
}

// passCPU estimates one pass's CPU time robustly: the sum over timed
// calls of each call's median across passes, plus the median CPU spent
// between calls. A burst of interference from other tenants then inflates
// one sample of one call instead of a whole pass. Passes that recorded
// different call sequences (after a failure) fall back to the median
// pass total.
func passCPU(passes []*pass) float64 {
	var totals, between []float64
	for _, p := range passes {
		totals = append(totals, p.cpu.Seconds())
		if len(p.steps) != len(passes[0].steps) {
			return median(totals)
		}
		sum := 0.0
		for _, s := range p.steps {
			sum += s
		}
		between = append(between, p.cpu.Seconds()-sum)
	}
	est := median(between)
	for i := range passes[0].steps {
		var xs []float64
		for _, p := range passes {
			xs = append(xs, p.steps[i])
		}
		est += median(xs)
	}
	return est
}

// opCPU is the typical CPU time of one unit operation: the geometric mean
// over a pass's operations of each operation's median across passes. A
// plain median would flip between clusters when a pass mixes operations
// of different sizes (chiplet and mesh runs, say).
func opCPU(passes []*pass) float64 {
	var meds []float64
	for i := range passes[0].opsCPU {
		var xs []float64
		for _, p := range passes {
			if i < len(p.opsCPU) {
				xs = append(xs, p.opsCPU[i])
			}
		}
		meds = append(meds, median(xs))
	}
	return geomean(meds)
}

func simMeans(p *pass) (lat, p99, pow float64) {
	var a, b, c []float64
	for _, r := range p.results {
		a = append(a, r.res.AvgLatencyNs)
		b = append(b, r.res.P99LatencyNs)
		c = append(c, r.res.PowerMW)
	}
	return geomean(a), geomean(b), geomean(c)
}

// compareDeterministic reports the first difference between two passes'
// simulated results and deterministic counts ("" when equal).
func compareDeterministic(a, b *pass) string {
	if len(a.results) != len(b.results) {
		return fmt.Sprintf("%d results vs %d", len(a.results), len(b.results))
	}
	for i := range a.results {
		if a.results[i] != b.results[i] {
			return fmt.Sprintf("result %s: %+v vs %+v", a.results[i].label, a.results[i], b.results[i])
		}
	}
	for k, v := range a.counts {
		if b.counts[k] != v {
			return fmt.Sprintf("count %s: %v vs %v", k, v, b.counts[k])
		}
	}
	return ""
}

// digest hashes a pass's deterministic outputs; equal seeds must print
// equal digests on every run.
func digest(p *pass) string {
	h := sha256.New()
	for _, r := range p.results {
		fmt.Fprintf(h, "%+v\n", r)
	}
	keys := make([]string, 0, len(p.counts))
	for k := range p.counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(h, "%s=%v\n", k, p.counts[k])
	}
	return fmt.Sprintf("%x", h.Sum(nil))[:16]
}

func printMetrics(kind string, ms []metric) {
	fmt.Printf("%s metrics:\n", kind)
	for _, m := range ms {
		if m.na != "" {
			fmt.Printf("  %-36s n/a  (%s)\n", m.name, m.na)
			continue
		}
		fmt.Printf("  %-36s %-14.6g %-6s n=%d\n", m.name, m.value, m.unit, m.n)
	}
}
