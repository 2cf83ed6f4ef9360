// Command loadsweep prints the classic latency-versus-offered-load curve
// of one or more networks under a benchmark: a saturation search anchors
// each network's load grid, then every grid point is simulated.
//
//	loadsweep -bench Multicast10 -points 8
//
// Every network's sweep runs concurrently on the shared parallel
// experiment engine (-workers, or the ASYNCNOC_WORKERS environment
// variable; default GOMAXPROCS); the curves print in -networks order and
// are identical at any pool size; a network named twice sweeps once.
//
// The -topology flag selects the substrate: mot (default) sweeps single
// MoT dies, chiplet:WxH composes each network onto a WxH interposer mesh
// of radix -n dies (hierarchical benchmarks only), and mesh:WxH sweeps
// an asynchronous 2D mesh of XY routers. The mesh has one architecture
// and no die radix, so -networks and -n are rejected there by name:
//
//	loadsweep -topology mesh:4x4 -bench Multicast10 -points 4
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
		engine    = cliflags.Engine()
		profiles  = cliflags.Profiles()
	)
	flag.Parse()

	sel, err := cliflags.ParseTopology(*topology)
	if err != nil {
		fatal(err)
	}
	// The mesh has one architecture and no die radix.
	if err := sel.Check(flag.CommandLine, cliflags.Unsupported{Mesh: []string{"networks", "n"}}); err != nil {
		fatal(err)
	}
	// Each network name resolves to its run spec in flag order; a name
	// whose spec an earlier name already resolved to (every name on a
	// mesh, which has one architecture) sweeps once.
	type sweep struct {
		spec asyncnoc.NetworkSpec
		pts  []asyncnoc.SweepPoint
		err  error
	}
	var sweeps []sweep
	seen := map[string]bool{}
	for _, name := range strings.Split(*networks, ",") {
		ns, err := asyncnoc.NetworkByName(*n, strings.TrimSpace(name))
		if err != nil {
			sweeps = append(sweeps, sweep{err: err})
			continue
		}
		spec := sel.Spec(ns)
		if !seen[spec.Name] {
			seen[spec.Name] = true
			sweeps = append(sweeps, sweep{spec: spec})
		}
	}
	eng := asyncnoc.NewEngine(*workers)
	progress := asyncnoc.NewSweepProgress(len(sweeps))
	stop, err := profiles.Start("loadsweep")
	if err != nil {
		fatal(err)
	}
	defer stop()
	closeEngine, err := engine.Attach(eng, progress)
	if err != nil {
		fatal(err)
	}
	defer closeEngine()
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
	var wg sync.WaitGroup
	for i := range sweeps {
		if sw := &sweeps[i]; sw.err == nil {
			wg.Add(1)
			go func() {
				defer wg.Done()
				sw.pts, sw.err = eng.LoadSweep(sw.spec, base, *points, *maxFrac)
				progress.JobDone()
			}()
		}
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
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "loadsweep:", err)
	os.Exit(1)
}
