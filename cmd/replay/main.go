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
// Sources and destinations are terminal numbers: 0..n-1 on an n x n MoT
// die (-topology mot, the default), and the W*H tiles in row-major order
// on a 2D mesh (-topology mesh:WxH, up to 64 tiles; -network and -n are
// rejected there by name). A chiplet composition has no flat terminal
// space, so its replay fails.
//
// Example:
//
//	replay -network OptHybridSpeculative -file workload.csv
//	replay -topology mesh:4x4 -file workload.csv
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
		profiles    = cliflags.Profiles()
	)
	flag.Parse()
	if *file == "" {
		fatal(fmt.Errorf("need -file"))
	}
	sel, err := cliflags.ParseTopology(*topology)
	if err != nil {
		fatal(err)
	}
	// The mesh has one architecture and no die radix.
	if err := sel.Check(flag.CommandLine, cliflags.Unsupported{Mesh: []string{"network", "n"}}); err != nil {
		fatal(err)
	}
	stop, err := profiles.Start("replay")
	if err != nil {
		fatal(err)
	}
	defer stop()
	ns, err := asyncnoc.NetworkByName(*n, *networkName)
	if err != nil {
		fatal(err)
	}
	spec := sel.Spec(ns)
	sched, err := parseSchedule(*file, spec.Terminals())
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
