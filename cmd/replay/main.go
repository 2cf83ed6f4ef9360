// Command replay runs an explicit traffic schedule (a recorded or
// hand-crafted workload) through one of the networks and reports the
// measurements of every injected packet.
//
// The schedule is CSV with one injection per line:
//
//	time_ns,src,dest[,dest...]
//	0.0,2,5
//	1.5,0,1,4,6
//
// Example:
//
//	replay -network OptHybridSpeculative -file workload.csv
package main

import (
	"flag"
	"fmt"
	"os"

	"asyncnoc"
	"asyncnoc/internal/cliflags"
)

func main() {
	var (
		networkName = flag.String("network", "OptHybridSpeculative", "network architecture")
		topology    = cliflags.TopologyFlag()
		n           = cliflags.N()
		file        = flag.String("file", "", "CSV schedule file (time_ns,src,dest[,dest...])")
		drain       = flag.Int("drain", 2000, "extra simulated time after the last injection (ns)")
		cpuProf     = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf     = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()
	if *file == "" {
		fatal(fmt.Errorf("need -file"))
	}
	// Flat schedules address one die's terminal space; composed and mesh
	// topologies have no schedule format (see core.RunSchedule).
	if sel, err := cliflags.ParseTopology(*topology); err != nil {
		fatal(err)
	} else if sel.Kind != "mot" {
		fatal(fmt.Errorf("replay supports only -topology mot; a %s schedule has no CSV format", sel.Kind))
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
				fmt.Fprintln(os.Stderr, "replay:", err)
			}
		}()
	}
	spec, err := asyncnoc.NetworkByName(*n, *networkName)
	if err != nil {
		fatal(err)
	}
	sched, err := parseSchedule(*file, *n)
	if err != nil {
		fatal(err)
	}
	res, err := asyncnoc.RunSchedule(spec, sched, asyncnoc.Time(*drain)*asyncnoc.Nanosecond)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("network:        %s\n", res.Network)
	fmt.Printf("packets:        %d\n", res.MeasuredPackets)
	fmt.Printf("avg latency:    %.2f ns\n", res.AvgLatencyNs)
	fmt.Printf("p95 latency:    %.2f ns\n", res.P95LatencyNs)
	fmt.Printf("completion:     %.1f%%\n", 100*res.Completion)
	fmt.Printf("network power:  %.2f mW\n", res.PowerMW)
}

// parseSchedule reads and validates a CSV schedule file against a
// network of n terminals (see asyncnoc.ParseSchedule for the format and
// its checks).
func parseSchedule(path string, n int) (asyncnoc.Schedule, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return asyncnoc.ParseSchedule(f, path, n)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "replay:", err)
	os.Exit(1)
}
