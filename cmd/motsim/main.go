// Command motsim runs one simulation of an asynchronous MoT multicast
// network and prints its measurements.
//
// Usage:
//
//	motsim -network OptHybridSpeculative -bench Multicast10 -load 0.4 \
//	       -n 8 -seed 1 -warmup 320 -measure 3200 -drain 800
//
// Loads are offered gigaflits per second per source; windows are in
// nanoseconds. The -topology flag selects the substrate: mot (default)
// runs one MoT die, chiplet:WxH composes a WxH interposer mesh of
// radix -n MoT dies (hierarchical benchmarks only and no fault layer, so
// -dests and every -fault* flag are rejected by name; results carry an
// intra-die versus die-to-die breakout), and mesh:WxH runs an
// asynchronous 2D mesh of XY routers (fixed-load runs and -sat under
// -strategy, with -trace-out and -hist; -network, -n, -dests, -draw,
// the MoT-tree views -util and -vcd, and every -fault* flag are rejected
// by name). With -sat the tool
// searches for the saturation throughput instead of running at a fixed
// load; the search bisects on the offered load, one probe at a time,
// through the experiment engine (-workers; default GOMAXPROCS) and finds
// the same boundary at any pool size. -util, -hist, -vcd and -trace-out then report the
// run at the saturation load.
//
// The -faults flag family enables the deterministic fault-injection
// layer with end-to-end CRC-checked retransmission:
//
//	motsim -network BasicHybridSpeculative -bench Multicast10 \
//	       -load 0.3 -faults 1e-4 -fault-seed 7
//
// reports fault, retransmission, and recovery counters alongside the
// usual measurements. Individual knobs (-fault-corrupt, -fault-drop,
// -fault-jitter, -fault-stuck tree/heap/port@after) select fault classes
// separately; -max-events arms the livelock watchdog explicitly.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"asyncnoc"
	"asyncnoc/internal/cliflags"
)

func main() {
	var (
		networkName = flag.String("network", "OptHybridSpeculative", "network architecture (use -list for names)")
		benchName   = flag.String("bench", "UniformRandom", "benchmark (use -list for names)")
		strategy    = flag.String("strategy", "", "multicast routing strategy (use -list for names; empty = the architecture's default)")
		topology    = cliflags.TopologyFlag()
		dests       = cliflags.Dests()
		n           = cliflags.N()
		load        = flag.Float64("load", 0.4, "offered load in GF/s per source")
		seed        = flag.Uint64("seed", 1, "random seed")
		warmup      = flag.Int("warmup", 320, "warmup window (ns)")
		measure     = flag.Int("measure", 3200, "measurement window (ns)")
		drain       = flag.Int("drain", 800, "drain window (ns)")
		sat         = flag.Bool("sat", false, "search for saturation throughput instead of a fixed-load run")
		workers     = cliflags.Workers("simulation")
		list        = flag.Bool("list", false, "list network and benchmark names")
		vcdPath     = flag.String("vcd", "", "dump handshake activity to this VCD file")
		util        = flag.Bool("util", false, "print per-level fanout utilization after the run")
		draw        = flag.Bool("draw", false, "print the fanout-tree placement diagram and exit")
		hist        = flag.Bool("hist", false, "print a latency histogram after the run")
		traceOut    = flag.String("trace-out", "", "stream the flit-lifecycle trace to this JSONL file (with -sat, traces the run at the saturation load)")
		profiles    = cliflags.Profiles()

		faults        = flag.Float64("faults", 0, "shorthand: corrupt AND drop rate per channel traversal")
		faultCorrupt  = flag.Float64("fault-corrupt", 0, "payload bit-flip probability per channel traversal")
		faultDrop     = flag.Float64("fault-drop", 0, "body-flit drop probability per channel traversal")
		faultJitter   = flag.Float64("fault-jitter", 0, "handshake-jitter probability per channel traversal")
		faultJitterPs = flag.Int64("fault-jitter-max", 0, "jitter bound in ps (0 = default)")
		faultSeed     = flag.Uint64("fault-seed", 1, "fault-schedule seed (independent of -seed)")
		faultRetries  = flag.Int("fault-retries", 0, "per-packet retransmission budget (0 = default)")
		faultTimeout  = flag.Int64("fault-timeout", 0, "base retransmission timeout in ps (0 = default)")
		faultStuck    = flag.String("fault-stuck", "", "wedge channels: comma-separated tree/heap/port@after entries")
		maxEvents     = flag.Uint64("max-events", 0, "watchdog event budget (0 = automatic for fault runs)")
	)
	flag.Parse()

	sel, err := cliflags.ParseTopology(*topology)
	if err != nil {
		fatal(err)
	}
	// The mesh has one architecture, no die radix (its W*H tiles are the
	// terminals), no fanout levels, no instruments, no fixed destination
	// sets and no fault layer; a composition addresses its dies with
	// hierarchical benchmarks and has no fault layer either.
	if err := sel.Check(flag.CommandLine, cliflags.Unsupported{
		Mesh:    []string{"network", "n", "util", "draw", "vcd", "dests", "fault*"},
		Chiplet: []string{"dests", "fault*"},
	}); err != nil {
		fatal(err)
	}

	if *list {
		fmt.Println("networks:")
		for _, s := range asyncnoc.AllNetworks(8) {
			fmt.Printf("  %s\n", s.Name)
		}
		fmt.Println("benchmarks:")
		for _, b := range asyncnoc.Benchmarks(8) {
			fmt.Printf("  %s\n", b.Name())
		}
		fmt.Println("strategies:")
		for _, name := range asyncnoc.StrategyNames() {
			fmt.Printf("  %s\n", name)
		}
		return
	}

	stop, err := profiles.Start("motsim")
	if err != nil {
		fatal(err)
	}
	defer stop()

	ns, err := asyncnoc.NetworkByName(*n, *networkName)
	if err != nil {
		fatal(err)
	}
	ns = asyncnoc.WithStrategy(ns, *strategy)
	if *faults > 0 {
		ns.Faults.CorruptRate = *faults
		ns.Faults.DropRate = *faults
	}
	if *faultCorrupt > 0 {
		ns.Faults.CorruptRate = *faultCorrupt
	}
	if *faultDrop > 0 {
		ns.Faults.DropRate = *faultDrop
	}
	if *faultJitter > 0 {
		ns.Faults.JitterRate = *faultJitter
	}
	ns.Faults.JitterMaxPs = *faultJitterPs
	ns.Faults.MaxRetries = *faultRetries
	ns.Faults.RetryTimeoutPs = *faultTimeout
	if *faultStuck != "" {
		stuck, err := parseStuck(*faultStuck)
		if err != nil {
			fatal(err)
		}
		ns.Faults.Stuck = stuck
	}
	if ns.Faults.Enabled() {
		ns.Faults.Seed = *faultSeed
	}
	if *draw {
		out, err := asyncnoc.DrawPlacement(ns)
		if err != nil {
			fatal(err)
		}
		fmt.Print(out)
		return
	}
	spec := sel.Spec(ns)
	bench, err := sel.Bench(*n, *benchName)
	if err != nil {
		fatal(err)
	}
	if *dests != "" {
		set, err := asyncnoc.ParseDests(*dests, *n)
		if err != nil {
			fatal(err)
		}
		bench = asyncnoc.FixedDests(*n, set)
	}
	cfg := asyncnoc.RunConfig{
		Bench:     bench,
		LoadGFs:   *load,
		Seed:      *seed,
		Warmup:    asyncnoc.Time(*warmup) * asyncnoc.Nanosecond,
		Measure:   asyncnoc.Time(*measure) * asyncnoc.Nanosecond,
		Drain:     asyncnoc.Time(*drain) * asyncnoc.Nanosecond,
		MaxEvents: *maxEvents,
	}

	var res asyncnoc.RunResult
	col := 18 // the value column of the "written" lines
	if *sat {
		sr, err := asyncnoc.NewEngine(*workers).Saturation(spec, asyncnoc.SatConfig{Base: cfg})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("network:               %s\n", sr.Network)
		fmt.Printf("benchmark:             %s\n", sr.Benchmark)
		fmt.Printf("saturation load:       %.3f GF/s per source\n", sr.SatLoadGFs)
		fmt.Printf("saturation throughput: %.3f GF/s per source (delivered)\n", sr.ThroughputGFs)
		fmt.Printf("zero-load latency:     %.2f ns\n", sr.ZeroLoadLatencyNs)
		fmt.Printf("latency at saturation: %.2f ns\n", sr.AtSaturation.AvgLatencyNs)
		// -util, -hist, -vcd and -trace-out report the run at the
		// saturation load: the engine finds the same load at any pool
		// size, so traces are byte-identical across -workers values.
		cfg.LoadGFs, res, col = sr.SatLoadGFs, sr.AtSaturation, 23
	}
	if *hist || *vcdPath != "" || *traceOut != "" {
		if res, err = runInstrumented(spec, cfg, *traceOut, *hist, *vcdPath); err != nil {
			fatal(err)
		}
		if *vcdPath != "" {
			fmt.Printf("%-*s%s\n", col, "vcd written:", *vcdPath)
		}
		if *traceOut != "" {
			fmt.Printf("%-*s%s\n", col, "trace written:", *traceOut)
		}
	} else if !*sat {
		if res, err = asyncnoc.Run(spec, cfg); err != nil {
			fatal(err)
		}
	}
	if !*sat {
		printResult(res, spec)
	}
	if *util {
		printUtilization(res)
	}
}

// printUtilization prints the window-scoped per-level fanout forwards and
// throttles of res and the network-wide redundant fraction.
func printUtilization(res asyncnoc.RunResult) {
	fmt.Printf("%-8s %12s %12s\n", "level", "forwards", "throttled")
	for lvl := 0; lvl < res.Levels; lvl++ {
		fmt.Printf("%-8d %12d %12d\n", lvl, res.ForwardsPerLevel[lvl], res.ThrottlesPerLevel[lvl])
	}
	fmt.Printf("redundant fraction: %.1f%%\n", 100*res.RedundantFraction)
}

// printResult prints the standard measurement block, the hierarchy
// breakout for chiplet compositions, and the fault counters for fault
// runs.
func printResult(res asyncnoc.RunResult, spec asyncnoc.NetworkSpec) {
	fmt.Printf("network:          %s\n", res.Network)
	fmt.Printf("benchmark:        %s\n", res.Benchmark)
	fmt.Printf("offered load:     %.3f GF/s per source\n", res.LoadGFs)
	fmt.Printf("avg latency:      %.2f ns\n", res.AvgLatencyNs)
	fmt.Printf("p50 latency:      %.2f ns\n", res.P50LatencyNs)
	fmt.Printf("p95 latency:      %.2f ns\n", res.P95LatencyNs)
	fmt.Printf("p99 latency:      %.2f ns\n", res.P99LatencyNs)
	fmt.Printf("throughput:       %.3f GF/s per source (delivered)\n", res.ThroughputGFs)
	fmt.Printf("network power:    %.2f mW\n", res.PowerMW)
	fmt.Printf("completion:       %.1f%% of %d measured packets\n", 100*res.Completion, res.MeasuredPackets)
	if spec.Chiplet != nil {
		fmt.Printf("intra-die:        %d packets, avg %.2f ns, p95 %.2f ns\n",
			res.MeasuredPackets-res.D2DMeasuredPackets, res.AvgIntraLatencyNs, res.P95IntraLatencyNs)
		fmt.Printf("die-to-die:       %d packets, avg %.2f ns, p95 %.2f ns\n",
			res.D2DMeasuredPackets, res.AvgD2DLatencyNs, res.P95D2DLatencyNs)
		fmt.Printf("d2d throughput:   %.3f GF/s per source (delivered)\n", res.D2DThroughputGFs)
		fmt.Printf("d2d link power:   %.2f mW over %d flit-hops\n", res.D2DPowerMW, res.D2DFlitHops)
	}
	if spec.Faults.Enabled() {
		fmt.Printf("faults injected:  %d\n", res.FaultsInjected)
		fmt.Printf("retransmissions:  %d\n", res.Retries)
		fmt.Printf("recovered flits:  %d\n", res.RecoveredFlits)
		fmt.Printf("lost flits:       %d (%d packet(s) written off)\n", res.LostFlits, res.LostPackets)
	}
}

// latencyCapture is a minimal instrument that holds onto the built
// network so the latency histogram can be read after the run.
type latencyCapture struct{ nw *asyncnoc.Network }

func (c *latencyCapture) Attach(nw *asyncnoc.Network) error { c.nw = nw; return nil }
func (c *latencyCapture) Finish() error                     { return nil }

// runInstrumented executes one run with the requested instruments riding
// along in RunConfig.Instruments: a JSONL trace sink, a latency
// histogram, and/or a VCD dump.
func runInstrumented(spec asyncnoc.NetworkSpec, cfg asyncnoc.RunConfig, tracePath string, hist bool, vcdPath string) (asyncnoc.RunResult, error) {
	var traceFile *os.File
	if tracePath != "" {
		f, err := os.Create(tracePath)
		if err != nil {
			return asyncnoc.RunResult{}, err
		}
		traceFile = f
		cfg.Instruments = append(cfg.Instruments, &asyncnoc.TraceInstrument{Out: f})
	}
	var vcdFile *os.File
	if vcdPath != "" {
		f, err := os.Create(vcdPath)
		if err != nil {
			return asyncnoc.RunResult{}, err
		}
		vcdFile = f
		cfg.Instruments = append(cfg.Instruments, &asyncnoc.VCDInstrument{Out: f})
	}
	var cap *latencyCapture
	if hist {
		cap = &latencyCapture{}
		cfg.Instruments = append(cfg.Instruments, cap)
	}
	res, err := asyncnoc.Run(spec, cfg)
	if err != nil {
		return asyncnoc.RunResult{}, err
	}
	if traceFile != nil {
		if err := traceFile.Close(); err != nil {
			return asyncnoc.RunResult{}, err
		}
	}
	if vcdFile != nil {
		if err := vcdFile.Close(); err != nil {
			return asyncnoc.RunResult{}, err
		}
	}
	if cap != nil {
		if samples := cap.nw.Rec.LatenciesNs(); len(samples) > 0 {
			fmt.Println("latency histogram (ns):")
			fmt.Print(asyncnoc.FormatLatencyHistogram(samples, 12, 40))
		}
	}
	return res, nil
}

// parseStuck parses the -fault-stuck syntax: comma-separated
// tree/heap/port@after entries, e.g. "0/2/0@3,1/1/1@0".
func parseStuck(s string) ([]asyncnoc.StuckChannel, error) {
	var out []asyncnoc.StuckChannel
	for _, entry := range strings.Split(s, ",") {
		var st asyncnoc.StuckChannel
		if _, err := fmt.Sscanf(entry, "%d/%d/%d@%d", &st.Tree, &st.Heap, &st.Port, &st.After); err != nil {
			return nil, fmt.Errorf("bad -fault-stuck entry %q (want tree/heap/port@after): %v", entry, err)
		}
		out = append(out, st)
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "motsim:", err)
	os.Exit(1)
}
