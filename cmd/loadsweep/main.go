// Command loadsweep prints the classic latency-versus-offered-load curve
// of one or more networks under a benchmark: a saturation search anchors
// each network's load grid, then every grid point is simulated.
//
//	loadsweep -bench Multicast10 -points 8
//
// Every network's sweep runs concurrently on the shared parallel
// experiment engine (-workers, or the ASYNCNOC_WORKERS environment
// variable; default GOMAXPROCS); the curves print in -networks order and
// are identical at any pool size.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"sync"

	"asyncnoc"
	"asyncnoc/internal/cliflags"
)

func main() {
	var (
		benchName = flag.String("bench", "UniformRandom", "benchmark name")
		networks  = flag.String("networks", "Baseline,BasicNonSpeculative,OptHybridSpeculative", "comma-separated network names")
		topology  = cliflags.TopologyFlag()
		n         = cliflags.N()
		points    = flag.Int("points", 8, "grid points up to max fraction of saturation")
		maxFrac   = flag.Float64("maxfrac", 0.95, "highest load as a fraction of saturation")
		seed      = flag.Uint64("seed", 7, "random seed")
		workers   = cliflags.Workers("simulation")
		cache     = flag.String("cache-dir", "", "persistent result store directory (shared warm cache)")
		server    = flag.String("server", "", "asyncnocd base URL; runs execute remotely with local fallback")
		httpAddr  = flag.String("http", "", "serve live expvar counters and pprof on this address (e.g. :8090)")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf   = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()

	eng := asyncnoc.NewEngine(*workers)
	if *cache != "" {
		st, err := asyncnoc.OpenStore(*cache)
		if err != nil {
			fatal(err)
		}
		defer st.Close() //nolint:errcheck // Close only flushes; errors are counted
		eng.SetStore(st)
		fmt.Fprintf(os.Stderr, "store: persistent cache at %s\n", st.Dir())
	}
	if *server != "" {
		eng.SetRemote(asyncnoc.NewServiceClient(*server).Runner())
		fmt.Fprintf(os.Stderr, "server: submitting runs to %s (local fallback on failure)\n", *server)
	}
	if *cpuProf != "" {
		stop, err := asyncnoc.StartCPUProfile(*cpuProf)
		if err != nil {
			fatal(err)
		}
		defer stop() //nolint:errcheck
	}
	if *memProf != "" {
		defer func() {
			if err := asyncnoc.WriteHeapProfile(*memProf); err != nil {
				fmt.Fprintln(os.Stderr, "loadsweep:", err)
			}
		}()
	}
	networkList := strings.Split(*networks, ",")
	progress := asyncnoc.NewSweepProgress(len(networkList))
	if *httpAddr != "" {
		mon, err := asyncnoc.StartMonitor(*httpAddr, eng, progress)
		if err != nil {
			fatal(err)
		}
		defer mon.Close()
		fmt.Fprintf(os.Stderr, "monitor: http://%s/debug/vars\n", mon.Addr())
	}
	sel, err := cliflags.ParseTopology(*topology)
	if err != nil {
		fatal(err)
	}
	if sel.Kind == "mesh" {
		fatal(fmt.Errorf("loadsweep sweeps MoT networks; -topology mesh:%dx%d is not supported", sel.W, sel.H))
	}
	bench, err := sel.Bench(*n, *benchName)
	if err != nil {
		fatal(err)
	}
	base := asyncnoc.RunConfig{
		Bench: bench, Seed: *seed,
		Warmup:  200 * asyncnoc.Nanosecond,
		Measure: 1200 * asyncnoc.Nanosecond,
		Drain:   600 * asyncnoc.Nanosecond,
	}
	// The sweeps are independent, so they run side by side on the shared
	// engine; each saturation search is serial, and running several at
	// once is what keeps a multi-worker pool busy. Results print in flag
	// order, and a failing network stops the output at its turn, exactly
	// as a one-at-a-time loop would.
	type sweep struct {
		spec asyncnoc.NetworkSpec
		pts  []asyncnoc.SweepPoint
		err  error
	}
	sweeps := make([]sweep, len(networkList))
	var wg sync.WaitGroup
	for i, name := range networkList {
		wg.Add(1)
		go func(sw *sweep, name string) {
			defer wg.Done()
			spec, err := asyncnoc.NetworkByName(*n, strings.TrimSpace(name))
			if err != nil {
				sw.err = err
				return
			}
			sw.spec = sel.Compose(spec)
			sw.pts, sw.err = eng.LoadSweep(sw.spec, base, *points, *maxFrac)
			progress.JobDone()
		}(&sweeps[i], name)
	}
	wg.Wait()
	for _, sw := range sweeps {
		if sw.err != nil {
			fatal(sw.err)
		}
		fmt.Printf("\n%s / %s\n", sw.spec.Name, bench.Name())
		fmt.Printf("%10s %12s %12s %12s %10s\n", "frac sat", "load GF/s", "latency ns", "thr GF/s", "complete")
		for _, p := range sw.pts {
			fmt.Printf("%10.2f %12.3f %12.2f %12.3f %9.0f%%\n",
				p.FractionOfSat, p.Result.LoadGFs, p.Result.AvgLatencyNs,
				p.Result.ThroughputGFs, 100*p.Result.Completion)
		}
	}
	if snap := eng.Snapshot(); snap.HasStore {
		fmt.Fprintf(os.Stderr, "store: %d hits, %d misses, %d corrupt healed, %d writes (%d errors)\n",
			snap.Store.Hits, snap.Store.Misses, snap.Store.Corrupt,
			snap.Store.Writes, snap.Store.WriteErrors)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "loadsweep:", err)
	os.Exit(1)
}
