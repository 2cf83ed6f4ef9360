// Mesh comparison: the paper's future work proposes extending local
// speculation to alternative topologies such as a 2D mesh. This example
// puts the two topologies side by side at equal terminal count (16):
//
//   - the 16x16 variant MoT with the OptHybridSpeculative architecture
//     (constant 8-hop paths, local speculation), and
//   - a 4x4 mesh with an asynchronous 5-port XY router, running both
//     serial multicast and tree-based (destination-encoded) multicast.
//
// The mesh's serial-vs-tree gap mirrors the paper's core MoT result on
// the alternative topology; the cross-topology rows show the latency and
// power character of each fabric under identical traffic.
package main

import (
	"fmt"
	"log"

	"asyncnoc"
)

func main() {
	const terminals = 16
	cfg := asyncnoc.RunConfig{
		Bench:   asyncnoc.MulticastFraction(terminals, 0.10),
		LoadGFs: 0.25,
		Seed:    11,
		Warmup:  320 * asyncnoc.Nanosecond,
		Measure: 3200 * asyncnoc.Nanosecond,
		Drain:   1000 * asyncnoc.Nanosecond,
	}

	fmt.Println("Multicast10 at 0.25 GF/s per terminal, 16 terminals:")
	fmt.Printf("%-28s %12s %12s %12s %12s\n",
		"network", "latency ns", "p95 ns", "thr GF/s", "power mW")

	row := func(name string, res asyncnoc.RunResult) {
		fmt.Printf("%-28s %12.2f %12.2f %12.3f %12.2f\n",
			name, res.AvgLatencyNs, res.P95LatencyNs, res.ThroughputGFs, res.PowerMW)
	}

	for _, spec := range []asyncnoc.NetworkSpec{
		asyncnoc.Baseline(terminals),
		asyncnoc.OptHybridSpeculative(terminals),
		asyncnoc.MeshSerial(4, 4),
		asyncnoc.MeshTree(4, 4),
	} {
		res, err := asyncnoc.Run(spec, cfg)
		if err != nil {
			log.Fatal(err)
		}
		name := spec.Name
		if spec.Mesh == nil {
			name = "MoT16 " + name
		}
		row(name, res)
	}

	fmt.Println("\nnotes:")
	fmt.Println("  - MoT paths are a constant 8 nodes; mesh paths average ~3.7 routers but each")
	fmt.Println("    router is ~5x the area and ~1.5x the forward latency of a MoT node.")
	fmt.Println("  - the serial-vs-tree multicast gap reappears on the mesh, as the paper predicts.")
}
