// Ablation benchmarks for the design choices DESIGN.md calls out:
// handshake protocol (two-phase vs four-phase), packet length (how much
// channel pre-allocation buys), and speculation depth (the full placement
// design space at 16x16).
package asyncnoc_test

import (
	"fmt"
	"testing"

	"asyncnoc"
)

func satOf(b *testing.B, spec asyncnoc.NetworkSpec, bench asyncnoc.Benchmark) asyncnoc.SatResult {
	b.Helper()
	res, err := asyncnoc.NewEngine(0).Saturation(spec, asyncnoc.SatConfig{
		Base: asyncnoc.RunConfig{
			Bench: bench, Seed: 7,
			Warmup:  120 * asyncnoc.Nanosecond,
			Measure: 400 * asyncnoc.Nanosecond,
			Drain:   300 * asyncnoc.Nanosecond,
		},
		Iters: 7,
	})
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkAblationProtocol quantifies the paper's Section 2 protocol
// choice: two-phase (NRZ) signaling needs one round trip per transaction,
// four-phase (RZ) needs two — measured as saturation throughput on the
// headline network.
func BenchmarkAblationProtocol(b *testing.B) {
	var lines []string
	for i := 0; i < b.N; i++ {
		lines = lines[:0]
		bench := asyncnoc.UniformRandom(8)
		two := satOf(b, asyncnoc.OptHybridSpeculative(8), bench)
		four := satOf(b, asyncnoc.WithFourPhase(asyncnoc.OptHybridSpeculative(8)), bench)
		lines = append(lines,
			fmt.Sprintf("two-phase:  %.2f GF/s per source", two.ThroughputGFs),
			fmt.Sprintf("four-phase: %.2f GF/s per source (%.0f%% of two-phase)",
				four.ThroughputGFs, 100*four.ThroughputGFs/two.ThroughputGFs))
		if four.ThroughputGFs >= two.ThroughputGFs {
			b.Fatal("four-phase not slower than two-phase")
		}
	}
	for _, l := range lines {
		b.Log(l)
	}
}

// BenchmarkAblationPacketLength sweeps the packet length: the channel
// pre-allocation optimization touches only body/tail flits, so its
// benefit over the unoptimized non-speculative design must grow with
// packet length.
func BenchmarkAblationPacketLength(b *testing.B) {
	var lines []string
	for i := 0; i < b.N; i++ {
		lines = lines[:0]
		bench := asyncnoc.UniformRandom(8)
		for _, length := range []int{2, 5, 9} {
			basic := asyncnoc.BasicNonSpeculative(8)
			basic.PacketLen = length
			opt, err := asyncnoc.NetworkByName(8, "OptNonSpeculative")
			if err != nil {
				b.Fatal(err)
			}
			opt.PacketLen = length
			sb := satOf(b, basic, bench)
			so := satOf(b, opt, bench)
			lines = append(lines, fmt.Sprintf(
				"len %d: basic %.2f, optimized %.2f GF/s (+%.0f%%)",
				length, sb.ThroughputGFs, so.ThroughputGFs,
				100*(so.ThroughputGFs-sb.ThroughputGFs)/sb.ThroughputGFs))
		}
	}
	for _, l := range lines {
		b.Log(l)
	}
}

// BenchmarkAblationSpeculationDepth sweeps every legal speculation
// placement of a 16x16 MoT under Multicast10 at a fixed load, reporting
// the latency/power/address-size trade of the full design space the
// paper samples at three points.
func BenchmarkAblationSpeculationDepth(b *testing.B) {
	var lines []string
	for i := 0; i < b.N; i++ {
		lines = lines[:0]
		const n, levels = 16, 4
		for mask := 0; mask < 1<<(levels-1); mask++ {
			spec := make([]bool, levels)
			for lvl := 0; lvl < levels-1; lvl++ {
				spec[lvl] = mask&(1<<lvl) != 0
			}
			net := asyncnoc.CustomHybrid(n, spec)
			res, err := asyncnoc.Run(net, asyncnoc.RunConfig{
				Bench:   asyncnoc.MulticastFraction(n, 0.10),
				LoadGFs: 0.30,
				Seed:    5,
				Warmup:  150 * asyncnoc.Nanosecond,
				Measure: 900 * asyncnoc.Nanosecond,
				Drain:   400 * asyncnoc.Nanosecond,
			})
			if err != nil {
				b.Fatal(err)
			}
			lines = append(lines, fmt.Sprintf("%-14s lat %.2f ns  pwr %.1f mW",
				net.Name, res.AvgLatencyNs, res.PowerMW))
		}
	}
	for _, l := range lines {
		b.Log(l)
	}
}

// BenchmarkFutureWorkMesh runs the paper's future-work topology: serial
// vs tree-based multicast on a 4x4 asynchronous 2D mesh, alongside the
// 16x16 MoT hybrid at the same terminal count.
func BenchmarkFutureWorkMesh(b *testing.B) {
	var lines []string
	for i := 0; i < b.N; i++ {
		lines = lines[:0]
		cfg := asyncnoc.RunConfig{
			Bench:   asyncnoc.MulticastFraction(16, 0.10),
			LoadGFs: 0.25,
			Seed:    11,
			Warmup:  200 * asyncnoc.Nanosecond,
			Measure: 1200 * asyncnoc.Nanosecond,
			Drain:   600 * asyncnoc.Nanosecond,
		}
		mot, err := asyncnoc.Run(asyncnoc.OptHybridSpeculative(16), cfg)
		if err != nil {
			b.Fatal(err)
		}
		serial, err := asyncnoc.RunMesh(asyncnoc.MeshSerial(4, 4), cfg)
		if err != nil {
			b.Fatal(err)
		}
		tree, err := asyncnoc.RunMesh(asyncnoc.MeshTree(4, 4), cfg)
		if err != nil {
			b.Fatal(err)
		}
		lines = append(lines,
			fmt.Sprintf("MoT16 OptHybrid: %.2f ns, %.1f mW", mot.AvgLatencyNs, mot.PowerMW),
			fmt.Sprintf("Mesh4x4 serial:  %.2f ns, %.1f mW", serial.AvgLatencyNs, serial.PowerMW),
			fmt.Sprintf("Mesh4x4 tree:    %.2f ns, %.1f mW", tree.AvgLatencyNs, tree.PowerMW))
		if tree.AvgLatencyNs >= serial.AvgLatencyNs {
			b.Fatal("tree multicast not faster than serial on the mesh")
		}
	}
	for _, l := range lines {
		b.Log(l)
	}
}

// BenchmarkAblationClocking compares the asynchronous networks against
// their synchronous (clocked) counterparts at equal load: the async
// designs win on average-case latency and pay no clock-tree power — the
// GALS motivation of Section 1.
func BenchmarkAblationClocking(b *testing.B) {
	var lines []string
	for i := 0; i < b.N; i++ {
		lines = lines[:0]
		cfg := asyncnoc.RunConfig{
			Bench:   asyncnoc.MulticastFraction(8, 0.10),
			LoadGFs: 0.35,
			Seed:    13,
			Warmup:  200 * asyncnoc.Nanosecond,
			Measure: 1200 * asyncnoc.Nanosecond,
			Drain:   600 * asyncnoc.Nanosecond,
		}
		for _, spec := range []asyncnoc.NetworkSpec{
			asyncnoc.BasicNonSpeculative(8),
			asyncnoc.OptHybridSpeculative(8),
		} {
			async, err := asyncnoc.Run(spec, cfg)
			if err != nil {
				b.Fatal(err)
			}
			sync, err := asyncnoc.Run(asyncnoc.WithSynchronous(spec), cfg)
			if err != nil {
				b.Fatal(err)
			}
			lines = append(lines, fmt.Sprintf(
				"%-24s async %.2f ns / %.1f mW   sync %.2f ns / %.1f mW",
				spec.Name, async.AvgLatencyNs, async.PowerMW, sync.AvgLatencyNs, sync.PowerMW))
			if sync.PowerMW <= async.PowerMW || sync.AvgLatencyNs <= async.AvgLatencyNs {
				b.Fatal("synchronous variant unexpectedly cheaper")
			}
		}
	}
	for _, l := range lines {
		b.Log(l)
	}
}
