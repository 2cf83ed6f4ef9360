package mesh_test

// Run-level mesh tests: they drive the mesh through core's shared run
// path, which imports this package, so they live in the external test
// package.

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"runtime"
	"testing"

	"asyncnoc/internal/core"
	"asyncnoc/internal/mesh"
	"asyncnoc/internal/network"
	"asyncnoc/internal/sim"
	"asyncnoc/internal/traffic"
)

func treeSpec(w, h int) network.Spec {
	return network.Spec{Name: "MeshTree", N: w * h, PacketLen: 5, Mesh: &mesh.Size{W: w, H: h}}
}

func serialSpec(w, h int) network.Spec {
	s := treeSpec(w, h)
	s.Name, s.Serial = "MeshSerial", true
	return s
}

func run(spec network.Spec, cfg core.RunConfig) (core.RunResult, error) {
	return core.Run(spec, cfg)
}

func TestTreeBeatsSerialMulticastLatency(t *testing.T) {
	// The future-work analogue of the paper's core result: tree-based
	// multicast beats serial unicasts on a mesh too.
	cfg := core.RunConfig{
		Bench:   traffic.Multicast{N: 16, Frac: 0.2},
		LoadGFs: 0.15,
		Seed:    4,
		Warmup:  200 * sim.Nanosecond,
		Measure: 1000 * sim.Nanosecond,
		Drain:   600 * sim.Nanosecond,
	}
	tree, err := run(treeSpec(4, 4), cfg)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := run(serialSpec(4, 4), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if tree.Completion != 1 || serial.Completion != 1 {
		t.Fatalf("incomplete runs: tree %v serial %v", tree.Completion, serial.Completion)
	}
	if tree.AvgLatencyNs >= serial.AvgLatencyNs {
		t.Errorf("tree multicast (%.2f ns) not faster than serial (%.2f ns)",
			tree.AvgLatencyNs, serial.AvgLatencyNs)
	}
}

func TestDeterministicRuns(t *testing.T) {
	cfg := core.RunConfig{
		Bench:   traffic.UniformRandom{N: 16},
		LoadGFs: 0.3,
		Seed:    9,
		Warmup:  100 * sim.Nanosecond,
		Measure: 400 * sim.Nanosecond,
		Drain:   300 * sim.Nanosecond,
	}
	a, err := run(treeSpec(4, 4), cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := run(treeSpec(4, 4), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("same-seed mesh runs diverged:\n%+v\n%+v", a, b)
	}
}

// The mesh runs on one scheduler, so Shards > 1 is a *ConfigError
// naming the field rather than a silent serial run; one shard is the
// serial run itself.
func TestMeshRejectsShards(t *testing.T) {
	cfg := core.RunConfig{
		Bench:   traffic.UniformRandom{N: 16},
		LoadGFs: 0.3,
		Seed:    9,
		Warmup:  100 * sim.Nanosecond,
		Measure: 400 * sim.Nanosecond,
		Drain:   300 * sim.Nanosecond,
	}
	want, err := run(treeSpec(4, 4), cfg)
	if err != nil {
		t.Fatal(err)
	}
	one := cfg
	one.Shards = 1
	if got, err := run(treeSpec(4, 4), one); err != nil || got != want {
		t.Errorf("Shards=1: %v, diverged from serial:\n%+v\n%+v", err, got, want)
	}
	four := cfg
	four.Shards = 4
	_, err = run(treeSpec(4, 4), four)
	var ce *core.ConfigError
	if !errors.As(err, &ce) || len(ce.Fields) != 1 || ce.Fields[0].Field != "Shards" {
		t.Fatalf("Shards=4 on a mesh: error %v (%T), want a *ConfigError naming Shards", err, err)
	}
}

func TestMeshSaturation(t *testing.T) {
	if testing.Short() {
		t.Skip("saturation search is slow")
	}
	base := core.RunConfig{
		Bench: traffic.Shuffle{N: 16}, Seed: 3,
		Warmup: 100 * sim.Nanosecond, Measure: 350 * sim.Nanosecond, Drain: 300 * sim.Nanosecond,
	}
	sat, err := core.NewEngine(1).Saturation(treeSpec(4, 4), core.SatConfig{Base: base, Iters: 6})
	if err != nil {
		t.Fatal(err)
	}
	if sat.SatLoadGFs <= 0.1 || sat.SatLoadGFs > 6 {
		t.Errorf("implausible mesh saturation %v", sat.SatLoadGFs)
	}
	if sat.AtSaturation.Completion < 0.92 {
		t.Errorf("unstable point reported: %+v", sat.AtSaturation)
	}
}

// TestMeshSaturationPinned locks the engine's mesh searches, whose
// probes stop at their verdicts, to the SatResult JSON the same searches
// returned when every probe ran to its end (digests of that JSON).
func TestMeshSaturationPinned(t *testing.T) {
	want := map[string]string{
		"MeshTree/UniformRandom":   "43ac3295da90d783b158de0a05dc6f44675e3fe0d94fe62d48238f2ff9b163c0",
		"MeshTree/Multicast10":     "7cc6c8b7666f66675028d523d67d7e285d8cfa72043f47beaba602879a92c0c4",
		"MeshSerial/UniformRandom": "6437a7292cbc3d000671fdbb14dcff026ad59342a051fad57c2cd1ee0f8c5f39",
		"MeshSerial/Multicast10":   "599afd779ef86586c7619496a8c2b71e6806964c7a64975316208528c602e818",
	}
	e := core.NewEngine(2)
	for _, spec := range []network.Spec{treeSpec(4, 4), serialSpec(4, 4)} {
		for _, bench := range []traffic.Benchmark{traffic.UniformRandom{N: 16}, traffic.Multicast{N: 16, Frac: 0.10}} {
			base := core.RunConfig{Bench: bench, Seed: 2016,
				Warmup: 100 * sim.Nanosecond, Measure: 400 * sim.Nanosecond, Drain: 300 * sim.Nanosecond}
			sat, err := e.Saturation(spec, core.SatConfig{Base: base, Iters: 7})
			if err != nil {
				t.Fatal(err)
			}
			js, err := json.Marshal(sat)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(js)
			name := spec.Name + "/" + bench.Name()
			if got := hex.EncodeToString(sum[:]); got != want[name] {
				t.Errorf("%s: SatResult digest %s, want %s:\n%s", name, got, want[name], js)
			}
		}
	}
}

// paperCfg is the Section 5.1 setup at seed 2016 and 0.2 GF/s per tile.
func paperCfg(bench traffic.Benchmark) core.RunConfig {
	return core.RunConfig{
		Bench: bench, LoadGFs: 0.2, Seed: 2016,
		Warmup: core.DefaultWarmup, Measure: core.DefaultMeasure, Drain: core.DefaultDrain,
	}
}

// TestMeshResultsPinned locks the 4x4 mesh figures that predate the
// shared run path: moving the mesh onto core's injector, guarded loop
// and collector must leave every figure the mesh reported before
// unchanged, and adds the P50/P99 the old mesh harness never filled in.
func TestMeshResultsPinned(t *testing.T) {
	cases := []struct {
		spec                 network.Spec
		bench                traffic.Benchmark
		avg, p95, thru, powr float64
		packets              int
	}{
		{treeSpec(4, 4), traffic.UniformRandom{N: 16}, 2.041057028514323, 4.137899999999998, 0.1948046875, 43.144916855014365, 1999},
		{treeSpec(4, 4), traffic.Multicast{N: 16, Frac: 0.10}, 2.2837523620090026, 4.677, 0.34548828125, 57.84159356262951, 2011},
		{serialSpec(4, 4), traffic.UniformRandom{N: 16}, 2.0451965982992157, 4.1624, 0.1948046875, 43.144916855014365, 1999},
		{serialSpec(4, 4), traffic.Multicast{N: 16, Frac: 0.10}, 5.736934361014428, 25.6085, 0.344453125, 75.94147476181539, 2011},
	}
	for _, c := range cases {
		res, err := run(c.spec, paperCfg(c.bench))
		if err != nil {
			t.Fatalf("%s/%s: %v", c.spec.Name, c.bench.Name(), err)
		}
		if res.AvgLatencyNs != c.avg || res.P95LatencyNs != c.p95 || res.ThroughputGFs != c.thru ||
			res.PowerMW != c.powr || res.Completion != 1 || res.MeasuredPackets != c.packets {
			t.Errorf("%s/%s drifted: %+v", c.spec.Name, c.bench.Name(), res)
		}
		if res.P50LatencyNs <= 0 || res.P99LatencyNs < res.P95LatencyNs || res.P50LatencyNs > res.P95LatencyNs {
			t.Errorf("%s/%s: percentiles P50 %v P95 %v P99 %v", c.spec.Name, c.bench.Name(),
				res.P50LatencyNs, res.P95LatencyNs, res.P99LatencyNs)
		}
	}
}

// The mesh honours the same watchdog as the MoT: an event budget far
// below the run's needs aborts it with a LivelockError.
func TestMeshEventBudget(t *testing.T) {
	cfg := paperCfg(traffic.UniformRandom{N: 16})
	cfg.MaxEvents = 1000
	_, err := run(treeSpec(4, 4), cfg)
	var le *core.LivelockError
	if !errors.As(err, &le) {
		t.Fatalf("err = %v, want *core.LivelockError", err)
	}
	if le.Events <= cfg.MaxEvents {
		t.Errorf("livelock reported at %d events, budget %d", le.Events, cfg.MaxEvents)
	}
}

// A cancelled context aborts a mesh run between event batches.
func TestMeshContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := core.RunContext(ctx, treeSpec(4, 4), paperCfg(traffic.UniformRandom{N: 16}))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// A mesh run allocates its in-flight working set, not its traffic:
// packets recycle through the mesh's freelist and the router and NI
// queues are rings, so a window ten times the paper's allocates no more
// than the recorder's latency buffer adds.
func TestMeshMemoryIndependentOfSpan(t *testing.T) {
	const limit = 1 << 20
	// The first build derives the router timing from its netlist once
	// per process; keep that out of the measured runs.
	if _, err := network.New(treeSpec(4, 4)); err != nil {
		t.Fatal(err)
	}
	for _, spec := range []network.Spec{treeSpec(4, 4), serialSpec(4, 4)} {
		cfg := paperCfg(traffic.Multicast{N: 16, Frac: 0.10})
		cfg.Measure = 32 * sim.Microsecond
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := run(spec, cfg)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if res.Completion != 1 {
			t.Errorf("%s: completion %v", spec.Name, res.Completion)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > limit {
			t.Errorf("%s: a %v measure window allocated %d bytes, want <= %d",
				spec.Name, cfg.Measure, got, limit)
		}
	}
}
