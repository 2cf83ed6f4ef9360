package asyncnoc_test

import (
	"io"
	"strings"
	"testing"

	"asyncnoc"
	"asyncnoc/internal/analytic"
)

func TestAllNetworks(t *testing.T) {
	nets := asyncnoc.AllNetworks(8)
	if len(nets) != 6 {
		t.Fatalf("AllNetworks returned %d", len(nets))
	}
	for _, spec := range nets {
		got, err := asyncnoc.NetworkByName(8, spec.Name)
		if err != nil {
			t.Errorf("NetworkByName(%q): %v", spec.Name, err)
		}
		if got.Name != spec.Name {
			t.Errorf("round trip changed name: %q", got.Name)
		}
	}
	if _, err := asyncnoc.NetworkByName(8, "bogus"); err == nil {
		t.Error("bogus network accepted")
	}
}

func TestBenchmarksFacade(t *testing.T) {
	bs := asyncnoc.Benchmarks(8)
	if len(bs) != 6 {
		t.Fatalf("Benchmarks returned %d", len(bs))
	}
	if _, err := asyncnoc.BenchmarkByName(8, "Multicast10"); err != nil {
		t.Error(err)
	}
	if asyncnoc.UniformRandom(8).Name() != "UniformRandom" ||
		asyncnoc.Hotspot(8, 0).Name() != "Hotspot" ||
		asyncnoc.MulticastFraction(8, 0.05).Name() != "Multicast5" {
		t.Error("benchmark constructor names wrong")
	}
	for _, name := range []string{"Shuffle", "Multicast_static"} {
		if b, err := asyncnoc.BenchmarkByName(8, name); err != nil || b.Name() != name {
			t.Errorf("BenchmarkByName(%q) = %v, %v", name, b, err)
		}
	}
}

func TestRunFacade(t *testing.T) {
	res, err := asyncnoc.Run(asyncnoc.OptHybridSpeculative(8), asyncnoc.RunConfig{
		Bench:   asyncnoc.UniformRandom(8),
		LoadGFs: 0.3,
		Seed:    1,
		Warmup:  100 * asyncnoc.Nanosecond,
		Measure: 300 * asyncnoc.Nanosecond,
		Drain:   300 * asyncnoc.Nanosecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.AvgLatencyNs <= 0 || res.Completion != 1 {
		t.Errorf("degenerate result %+v", res)
	}
}

func TestNodeCostsFacade(t *testing.T) {
	costs, err := asyncnoc.NodeCosts()
	if err != nil {
		t.Fatal(err)
	}
	if len(costs) != 6 {
		t.Fatalf("NodeCosts returned %d rows", len(costs))
	}
	var spec, nonspec asyncnoc.NodeCost
	for _, c := range costs {
		switch c.Name {
		case "speculative-fanout":
			spec = c
		case "non-speculative-fanout":
			nonspec = c
		}
	}
	if spec.ForwardPs != 52 || nonspec.ForwardPs != 299 {
		t.Errorf("forward latencies %d/%d, want 52/299", spec.ForwardPs, nonspec.ForwardPs)
	}
	if spec.AreaUm2 >= nonspec.AreaUm2 {
		t.Error("speculative node not smaller")
	}
}

func TestAddressSizesFacade(t *testing.T) {
	sz, err := asyncnoc.AddressSizesFor(8)
	if err != nil {
		t.Fatal(err)
	}
	if sz.Baseline != 3 || sz.NonSpeculative != 14 || sz.Hybrid != 12 || sz.AllSpeculative != 8 {
		t.Errorf("8x8 sizes %+v", sz)
	}
}

func TestCustomHybridFacade(t *testing.T) {
	spec := asyncnoc.CustomHybrid(8, []bool{false, true, false})
	if !strings.Contains(spec.Name, "NSN") {
		t.Errorf("custom name %q", spec.Name)
	}
	res, err := asyncnoc.Run(spec, asyncnoc.RunConfig{
		Bench:   asyncnoc.MulticastFraction(8, 0.10),
		LoadGFs: 0.25,
		Seed:    2,
		Warmup:  100 * asyncnoc.Nanosecond,
		Measure: 300 * asyncnoc.Nanosecond,
		Drain:   300 * asyncnoc.Nanosecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completion != 1 {
		t.Errorf("custom placement incomplete: %+v", res)
	}
	// An illegal placement (speculative last level) must be rejected.
	bad := asyncnoc.CustomHybrid(8, []bool{false, false, true})
	if _, err := asyncnoc.Run(bad, asyncnoc.RunConfig{
		Bench: asyncnoc.UniformRandom(8), LoadGFs: 0.2, Seed: 1,
		Warmup: 10, Measure: 100, Drain: 10,
	}); err == nil {
		t.Error("speculative last level accepted")
	}
}

// TestInstrumentedRun exercises NewNetwork + Trace + manual injection —
// the Figure 4 pathway of examples/trace.
func TestInstrumentedRun(t *testing.T) {
	nw, err := asyncnoc.NewNetwork(asyncnoc.BasicHybridSpeculative(8))
	if err != nil {
		t.Fatal(err)
	}
	nw.Rec.SetWindow(0, 1<<62)
	throttles := 0
	nw.Trace = func(ev asyncnoc.TraceEvent) {
		if ev.Kind == asyncnoc.TraceThrottle {
			throttles++
		}
	}
	if _, err := nw.Inject(0, asyncnoc.Dests(7)); err != nil {
		t.Fatal(err)
	}
	nw.Sched.Run()
	if throttles != 5 {
		t.Errorf("throttled %d flits, want 5 (speculative root's wrong copy)", throttles)
	}
}

// TestCustomBenchmark verifies that external code can implement Benchmark
// through the Rand alias.
type pairBench struct{}

func (pairBench) Name() string { return "pairs" }
func (pairBench) NextDests(src int, r *asyncnoc.Rand) asyncnoc.DestSet {
	return asyncnoc.Dests(r.Intn(4), 4+r.Intn(4))
}

func TestCustomBenchmark(t *testing.T) {
	res, err := asyncnoc.Run(asyncnoc.OptHybridSpeculative(8), asyncnoc.RunConfig{
		Bench:   pairBench{},
		LoadGFs: 0.25,
		Seed:    3,
		Warmup:  100 * asyncnoc.Nanosecond,
		Measure: 300 * asyncnoc.Nanosecond,
		Drain:   400 * asyncnoc.Nanosecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completion != 1 {
		t.Errorf("custom benchmark incomplete: %+v", res)
	}
	// Pair multicast: delivered throughput must exceed offered.
	if res.ThroughputGFs < 0.35 {
		t.Errorf("throughput %v does not reflect 2-way replication", res.ThroughputGFs)
	}
}

// TestMoTToolsRejectMesh: the tools that read a MoT die's fanout trees
// (the analytic model, the placement drawing and the VCD dump) return an
// error naming a mesh spec instead of modelling a MoT of its tile count.
func TestMoTToolsRejectMesh(t *testing.T) {
	spec := asyncnoc.MeshTree(4, 4)
	check := func(what string, err error) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), spec.Name) || !strings.Contains(err.Error(), "mesh") {
			t.Errorf("%s of %s: %v, want an error naming the mesh", what, spec.Name, err)
		}
	}
	_, err := analytic.ZeroLoadLatency(spec, 0, 5)
	check("ZeroLoadLatency", err)
	_, err = analytic.StageCycles(spec)
	check("StageCycles", err)
	_, err = analytic.CapacityGFs(spec)
	check("CapacityGFs", err)
	_, err = asyncnoc.DrawPlacement(spec)
	check("DrawPlacement", err)
	nw, err := asyncnoc.NewNetwork(spec)
	if err != nil {
		t.Fatal(err)
	}
	check("VCDInstrument.Attach", (&asyncnoc.VCDInstrument{Out: io.Discard}).Attach(nw))
}
