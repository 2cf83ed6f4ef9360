// Command experiments regenerates every table and figure of the paper's
// evaluation section (Section 5) and prints them as text tables:
//
//   - node-level area/latency results (Section 5.2(a))
//   - Fig. 6(a): contribution-trajectory network latency
//   - Fig. 6(b): design-space network latency
//   - Fig. 7: the multicast-scheme shootout across routing strategies
//   - Table 1: saturation throughput and total network power
//   - the addressing-scheme comparison (Section 5.2(d))
//
// Fig. 6(a)/6(b), Fig. 7, and Table 1 carry extra rows for the related-
// work routing strategies (path-based multicast and Dynamic Partition
// Merging), and the addressing comparison their header-cost columns.
//
// With -quick the measurement windows shrink to CI scale (~seconds);
// without it the paper-scale windows run in a few minutes.
//
// Independent simulations run through the shared experiment engine: a
// bounded worker pool (-workers, or the ASYNCNOC_WORKERS environment
// variable; default GOMAXPROCS) with a memo that computes measurement
// points shared between tables only once. Results are consumed in
// deterministic order, so the tables are bit-identical at any pool size.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"asyncnoc"
	"asyncnoc/internal/cliflags"
	"asyncnoc/internal/experiments"
)

func main() {
	var (
		quick    = flag.Bool("quick", false, "CI-scale measurement windows")
		seed     = flag.Uint64("seed", 2016, "random seed")
		workers  = cliflags.Workers("simulation")
		topology = cliflags.TopologyFlag()
		sats     = flag.Bool("satloads", false, "also print the raw saturation loads")
		faults   = flag.Bool("faults", false, "also run the fault-injection robustness sweep")
		csvDir   = flag.String("csv", "", "also write each table as CSV into this directory")
		n        = cliflags.N()
		util     = flag.Bool("util", false, "also print the per-level fanout utilization table")
		engine   = cliflags.Engine()
		profiles = cliflags.Profiles()
	)
	flag.Parse()

	sel, err := cliflags.ParseTopology(*topology)
	check(err)
	// The hierarchy table has no utilization, fault-sweep or saturation
	// diagnostics of its own.
	check(sel.Check(flag.CommandLine, cliflags.Unsupported{Chiplet: []string{"util", "faults", "satloads"}}))

	start := time.Now()
	s := experiments.NewSuite(*quick)
	s.N = *n
	s.Seed = *seed
	s.Workers = *workers

	stop, err := profiles.Start("experiments")
	check(err)
	defer stop()
	closeEngine, err := engine.Attach(s.Engine(), nil)
	check(err)
	defer closeEngine()

	emit := func(name string, t *experiments.Table) {
		fmt.Println(t.Format())
		if *csvDir != "" {
			path := filepath.Join(*csvDir, name+".csv")
			if err := os.WriteFile(path, []byte(t.CSV()), 0o644); err != nil {
				check(err)
			}
		}
	}

	// The selection resolved over the suite's headline network picks the
	// mode: the paper's tables on one die, the hierarchy table on a
	// composition's interposer, and no table on a mesh.
	switch spec := sel.Spec(asyncnoc.OptHybridSpeculative(*n)); {
	case spec.Mesh != nil:
		check(fmt.Errorf("the evaluation suite measures MoT networks; -topology %s is not supported", sel))
	case spec.Chiplet != nil:
		// Hierarchy-table mode: instead of the paper's single-die tables,
		// measure every architecture composed onto the interposer mesh
		// and break the results out per hierarchy level.
		ct, err := s.ChipletTable(spec.Chiplet)
		check(err)
		emit("chiplet_hierarchy", ct)
		fmt.Printf("regenerated chiplet experiments in %.1fs\n", time.Since(start).Seconds())
		printEngineStats(s.Engine())
		return
	}

	nodeTable, err := experiments.NodeLevel()
	check(err)
	emit("node_level", nodeTable)

	addr, err := experiments.Addressing()
	check(err)
	emit("addressing", addr)

	fig6a, err := s.Fig6a()
	check(err)
	emit("fig6a_latency", fig6a)

	fig6b, err := s.Fig6b()
	check(err)
	emit("fig6b_latency", fig6b)

	fig7, err := s.Fig7Shootout()
	check(err)
	emit("fig7_shootout", fig7)

	thr, err := s.Table1Throughput()
	check(err)
	emit("table1_throughput", thr)

	pwr, err := s.Table1Power()
	check(err)
	emit("table1_power", pwr)

	if *util {
		ut, err := s.UtilizationTable()
		check(err)
		emit("utilization", ut)
		// Cache health rides along with the utilization diagnostics: the
		// same run that inspects fanout efficiency usually wants to know
		// whether the shared result cache is pulling its weight.
		if snap := s.Engine().Snapshot(); snap.HasStore {
			fmt.Printf("cache health: %d store hits, %d misses, %d corrupt entries healed, %d writes (%d errors), %d evicted\n\n",
				snap.Store.Hits, snap.Store.Misses, snap.Store.Corrupt,
				snap.Store.Writes, snap.Store.WriteErrors, snap.Store.Evictions)
		}
	}

	if *faults {
		sweep, err := s.FaultSweep(nil)
		check(err)
		emit("fault_sweep", sweep)
	}

	if *sats {
		fmt.Println("== saturation loads (diagnostics) ==")
		for _, line := range s.SatLoads() {
			fmt.Println("  " + line)
		}
		fmt.Println()
	}
	fmt.Printf("regenerated all experiments in %.1fs\n", time.Since(start).Seconds())
	printEngineStats(s.Engine())
}

// printEngineStats reports on stderr how many simulations actually ran
// and how many of those stopped once their result was final, beside the
// memo's hits and misses (a miss the store served runs nothing). The
// store's counters follow when the engine flags close.
func printEngineStats(e *asyncnoc.Engine) {
	snap := e.Snapshot()
	fmt.Fprintf(os.Stderr, "engine: %d simulations, %d stopped at a final result, %d memo hits, %d memo misses, %d workers\n",
		snap.Started, snap.FinalStops, snap.Hits, snap.Misses, snap.Workers)
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}
