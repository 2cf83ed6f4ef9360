package experiments

import (
	"fmt"

	"asyncnoc/internal/chiplet"
	"asyncnoc/internal/core"
	"asyncnoc/internal/network"
	"asyncnoc/internal/traffic"
)

// ChipletTable measures the hierarchical composition: every architecture
// (plus the routing-strategy variants on the headline hybrid network)
// composed onto the given interposer mesh, under the hierarchical
// Multicast10 benchmark, with the measurements broken out per hierarchy
// level — intra-die deliveries against die-to-die crossings.
func (s *Suite) ChipletTable(p *chiplet.Params) (*Table, error) {
	bench, err := chiplet.ByName(p, s.N, "Multicast10")
	if err != nil {
		return nil, err
	}
	specs := core.AllSpecs(s.N)
	specs = withStrategies(specs, core.OptHybridSpeculative(s.N), shootoutStrategies...)
	for i := range specs {
		specs[i] = core.WithChiplet(specs[i], p)
	}
	const load = 0.3
	results, err := s.runMatrix(specs, []traffic.Benchmark{bench},
		func(network.Spec, traffic.Benchmark) (core.RunConfig, error) {
			return core.RunConfig{
				Bench: bench, LoadGFs: load, Seed: s.Seed,
				Warmup: s.LatWarmup, Measure: s.LatMeasure, Drain: s.LatDrain,
			}, nil
		})
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title: fmt.Sprintf("Chiplet composition (%s): per-hierarchy-level results under Multicast10 at %.2f GF/s",
			p.Tag(s.N), load),
		Columns: []string{"network", "avg ns", "intra ns", "d2d ns", "d2d pkts", "thr GF/s", "pwr mW", "d2d mW"},
		Notes: []string{fmt.Sprintf("%dx%d interposer mesh of %dx%d MoT dies; D2D link: %d beat(s)/flit, %d ps/hop, %.2f pJ/beat/hop",
			p.MeshW, p.MeshH, s.N, s.N, p.BeatsPerFlit(), int64(p.HopPs), p.BeatPJPerHop)},
	}
	for i, spec := range specs {
		r := results[i][0]
		t.Rows = append(t.Rows, []string{
			spec.Name,
			fmt.Sprintf("%.2f", r.AvgLatencyNs),
			fmt.Sprintf("%.2f", r.AvgIntraLatencyNs),
			fmt.Sprintf("%.2f", r.AvgD2DLatencyNs),
			fmt.Sprintf("%d/%d", r.D2DMeasuredPackets, r.MeasuredPackets),
			fmt.Sprintf("%.3f", r.ThroughputGFs),
			fmt.Sprintf("%.2f", r.PowerMW),
			fmt.Sprintf("%.2f", r.D2DPowerMW),
		})
	}
	return t, nil
}
