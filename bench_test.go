// Benchmark harness regenerating every table and figure of the paper's
// evaluation section. Each benchmark runs the corresponding experiment at
// CI-scale measurement windows and logs the resulting table; ns/op is the
// wall time of regenerating that experiment. Run the cmd/experiments
// binary for the full paper-scale windows.
//
//	go test -bench=. -benchmem
package asyncnoc_test

import (
	"testing"

	"asyncnoc"
	"asyncnoc/internal/experiments"
)

// suiteFor builds a quick suite sized for benchmarking runs.
func suiteFor(b *testing.B) *experiments.Suite {
	b.Helper()
	return experiments.NewSuite(true)
}

// BenchmarkNodeLevelResults regenerates the Section 5.2(a) node table
// from the gate-level netlists.
func BenchmarkNodeLevelResults(b *testing.B) {
	var out *experiments.Table
	for i := 0; i < b.N; i++ {
		t, err := experiments.NodeLevel()
		if err != nil {
			b.Fatal(err)
		}
		out = t
	}
	b.Log("\n" + out.Format())
}

// BenchmarkChipletHierarchy regenerates the composed-topology table: a
// 2x2 interposer mesh of 4x4 MoT dies, every architecture plus the
// strategy variants, with per-hierarchy-level (intra-die vs die-to-die)
// measurements.
func BenchmarkChipletHierarchy(b *testing.B) {
	var out *experiments.Table
	for i := 0; i < b.N; i++ {
		s := suiteFor(b)
		s.N = 4
		t, err := s.ChipletTable(asyncnoc.ChipletSerial(2, 2))
		if err != nil {
			b.Fatal(err)
		}
		out = t
	}
	b.Log("\n" + out.Format())
}

// BenchmarkMeshRun runs the four 4x4 mesh simulations of the nocbench
// fabrics workload: tree and serial multicast, each under UniformRandom
// and Multicast10, at 0.2 GF/s per tile over the paper's windows.
func BenchmarkMeshRun(b *testing.B) {
	benches := []asyncnoc.Benchmark{asyncnoc.UniformRandom(16), asyncnoc.MulticastFraction(16, 0.10)}
	for i := 0; i < b.N; i++ {
		for _, spec := range []asyncnoc.NetworkSpec{asyncnoc.MeshTree(4, 4), asyncnoc.MeshSerial(4, 4)} {
			for _, bench := range benches {
				cfg := asyncnoc.DefaultRunConfig(16)
				cfg.Bench, cfg.LoadGFs, cfg.Seed = bench, 0.2, 2016
				if _, err := asyncnoc.Run(spec, cfg); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

// BenchmarkFig6aLatency regenerates the contribution-trajectory latency
// figure (Fig. 6a): Baseline vs BasicNonSpeculative vs the two hybrids,
// six benchmarks, at 25% of each network's saturation.
func BenchmarkFig6aLatency(b *testing.B) {
	var out *experiments.Table
	for i := 0; i < b.N; i++ {
		s := suiteFor(b)
		t, err := s.Fig6a()
		if err != nil {
			b.Fatal(err)
		}
		out = t
	}
	b.Log("\n" + out.Format())
}

// BenchmarkFig6bLatency regenerates the design-space latency figure
// (Fig. 6b): the three optimized networks with increasing speculation.
func BenchmarkFig6bLatency(b *testing.B) {
	var out *experiments.Table
	for i := 0; i < b.N; i++ {
		s := suiteFor(b)
		t, err := s.Fig6b()
		if err != nil {
			b.Fatal(err)
		}
		out = t
	}
	b.Log("\n" + out.Format())
}

// BenchmarkTable1Throughput regenerates the saturation-throughput half of
// Table 1 (6 networks x 6 benchmarks).
func BenchmarkTable1Throughput(b *testing.B) {
	var out *experiments.Table
	for i := 0; i < b.N; i++ {
		s := suiteFor(b)
		t, err := s.Table1Throughput()
		if err != nil {
			b.Fatal(err)
		}
		out = t
	}
	b.Log("\n" + out.Format())
}

// BenchmarkTable1Power regenerates the total-network-power half of
// Table 1 (6 networks x 4 benchmarks at 25% of Baseline saturation).
func BenchmarkTable1Power(b *testing.B) {
	var out *experiments.Table
	for i := 0; i < b.N; i++ {
		s := suiteFor(b)
		t, err := s.Table1Power()
		if err != nil {
			b.Fatal(err)
		}
		out = t
	}
	b.Log("\n" + out.Format())
}

// BenchmarkAddressingScheme regenerates the Section 5.2(d) address-size
// comparison for 8x8 and 16x16 MoTs.
func BenchmarkAddressingScheme(b *testing.B) {
	var out *experiments.Table
	for i := 0; i < b.N; i++ {
		t, err := experiments.Addressing()
		if err != nil {
			b.Fatal(err)
		}
		out = t
	}
	b.Log("\n" + out.Format())
}
