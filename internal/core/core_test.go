package core

import (
	"context"
	"errors"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"asyncnoc/internal/chiplet"
	"asyncnoc/internal/fault"
	"asyncnoc/internal/mesh"
	"asyncnoc/internal/network"
	"asyncnoc/internal/node"
	"asyncnoc/internal/packet"
	"asyncnoc/internal/sim"
	"asyncnoc/internal/timing"
	"asyncnoc/internal/topology"
	"asyncnoc/internal/traffic"
)

func TestNamedSpecs(t *testing.T) {
	specs := AllSpecs(8)
	if len(specs) != 6 {
		t.Fatalf("AllSpecs returned %d networks, want 6", len(specs))
	}
	wantNames := []string{
		NameBaseline, NameBasicNonSpec, NameBasicHybridSpec,
		NameOptHybridSpec, NameOptNonSpec, NameOptAllSpec,
	}
	for i, s := range specs {
		if s.Name != wantNames[i] {
			t.Errorf("spec %d = %q, want %q", i, s.Name, wantNames[i])
		}
		if err := s.Validate(); err != nil {
			t.Errorf("%s invalid: %v", s.Name, err)
		}
		if s.PacketLen != DefaultPacketLen {
			t.Errorf("%s packet length %d, want %d", s.Name, s.PacketLen, DefaultPacketLen)
		}
	}
}

func TestSpecArchitectures(t *testing.T) {
	if !Baseline(8).Serial {
		t.Error("baseline must be serial")
	}
	if s := BasicHybridSpeculative(8); s.Scheme != topology.Hybrid ||
		s.SpecKind != node.Spec || s.NonSpecKind != node.NonSpec {
		t.Error("basic hybrid mix wrong")
	}
	if s := OptHybridSpeculative(8); s.SpecKind != node.OptSpec || s.NonSpecKind != node.OptNonSpec {
		t.Error("opt hybrid mix wrong")
	}
	if s := OptAllSpeculative(8); s.Scheme != topology.AllSpeculative {
		t.Error("all-speculative scheme wrong")
	}
	if s := OptNonSpeculative(8); s.Scheme != topology.NonSpeculative || s.NonSpecKind != node.OptNonSpec {
		t.Error("opt non-speculative mix wrong")
	}
}

func TestCaseStudyGroups(t *testing.T) {
	ct := ContributionTrajectory(8)
	if len(ct) != 4 || ct[0].Name != NameBaseline || ct[3].Name != NameOptHybridSpec {
		t.Errorf("contribution trajectory wrong: %+v", ct)
	}
	ds := DesignSpace(8)
	if len(ds) != 3 || ds[0].Name != NameOptNonSpec || ds[2].Name != NameOptAllSpec {
		t.Errorf("design space wrong: %+v", ds)
	}
}

func TestSpecByName(t *testing.T) {
	s, err := SpecByName(8, NameOptHybridSpec)
	if err != nil || s.Name != NameOptHybridSpec {
		t.Errorf("SpecByName failed: %v", err)
	}
	if _, err := SpecByName(8, "nope"); err == nil {
		t.Error("unknown name accepted")
	}
}

func testCfg(bench traffic.Benchmark, load float64) RunConfig {
	return RunConfig{
		Bench: bench, LoadGFs: load, Seed: 11,
		Warmup:  100 * sim.Nanosecond,
		Measure: 300 * sim.Nanosecond,
		Drain:   300 * sim.Nanosecond,
	}
}

func TestRunConfigValidation(t *testing.T) {
	good := testCfg(traffic.UniformRandom{N: 8}, 0.3)
	if err := good.Validate(); err != nil {
		t.Errorf("good config rejected: %v", err)
	}
	bad := good
	bad.Bench = nil
	if bad.Validate() == nil {
		t.Error("nil benchmark accepted")
	}
	bad = good
	bad.LoadGFs = 0
	if bad.Validate() == nil {
		t.Error("zero load accepted")
	}
	bad = good
	bad.Measure = 0
	if bad.Validate() == nil {
		t.Error("zero measure window accepted")
	}
}

func TestRunProducesMeasurements(t *testing.T) {
	for _, spec := range AllSpecs(8) {
		r, err := Run(spec, testCfg(traffic.UniformRandom{N: 8}, 0.3))
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		if r.Network != spec.Name || r.Benchmark != "UniformRandom" {
			t.Errorf("labels wrong: %+v", r)
		}
		if r.MeasuredPackets == 0 {
			t.Errorf("%s: no packets measured", spec.Name)
		}
		if r.Completion != 1 {
			t.Errorf("%s: completion %v at light load", spec.Name, r.Completion)
		}
		if r.AvgLatencyNs <= 0 || r.ThroughputGFs <= 0 || r.PowerMW <= 0 {
			t.Errorf("%s: degenerate measurements %+v", spec.Name, r)
		}
		if r.P95LatencyNs < r.AvgLatencyNs*0.5 {
			t.Errorf("%s: P95 %v inconsistent with mean %v", spec.Name, r.P95LatencyNs, r.AvgLatencyNs)
		}
	}
}

// composed2x2 is OptHybridSpeculative composed as a 2x2 interposer of
// 4x4 dies, with the named hierarchical benchmark over it.
func composed2x2(t testing.TB, bench string) (network.Spec, traffic.Benchmark) {
	t.Helper()
	p := chiplet.Default(2, 2)
	b, err := chiplet.ByName(p, 4, bench)
	if err != nil {
		t.Fatal(err)
	}
	return WithChiplet(OptHybridSpeculative(4), p), b
}

// checkRejectsShards requires Shards > 1 on spec, a single die, to be a
// *ConfigError naming the field through Run, Build, the engine's
// saturation search, and the engine even when a serial run of the same
// job key is already memoized (JobKey ignores Shards, so the check must
// precede the memo lookup).
func checkRejectsShards(t *testing.T, spec network.Spec, cfg RunConfig) {
	t.Helper()
	sharded := cfg
	sharded.Shards = 4
	wantShardsErr := func(path string, err error) {
		t.Helper()
		var ce *ConfigError
		if !errors.As(err, &ce) || len(ce.Fields) != 1 || ce.Fields[0].Field != "Shards" {
			t.Fatalf("%s: error %v (%T), want a *ConfigError naming Shards", path, err, err)
		}
	}
	_, err := Run(spec, sharded)
	wantShardsErr("Run", err)
	_, err = Build(spec, sharded)
	wantShardsErr("Build", err)

	e := NewEngine(1)
	if _, err := e.Run(spec, cfg); err != nil {
		t.Fatal(err)
	}
	if JobKey(spec, sharded) != JobKey(spec, cfg) {
		t.Fatal("JobKey depends on Shards; the memo-hit case is not exercised")
	}
	_, err = e.Run(spec, sharded)
	wantShardsErr("Engine.Run after a serial memo hit", err)
	if hits, _ := e.Stats(); hits != 0 {
		t.Errorf("rejected run consulted the memo (%d hits)", hits)
	}
	_, err = e.Saturation(spec, SatConfig{Base: sharded, Iters: 2})
	wantShardsErr("Engine.Saturation", err)
}

// A run shards by die, so Shards > 1 on a fault-free single die is a
// *ConfigError on every entry path.
func TestSingleDieRejectsShards(t *testing.T) {
	checkRejectsShards(t, OptHybridSpeculative(8), testCfg(traffic.UniformRandom{N: 8}, 0.3))
}

// A sharded run executes every window on the calling goroutine:
// driving a 4-shard composition with GOMAXPROCS >= 2 starts no
// goroutine. The composition has four dies, so Build clamps the
// requested 9 shards to 4.
func TestShardedRunStartsNoGoroutines(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(runtime.GOMAXPROCS(0), 2)))
	spec, b := composed2x2(t, "UniformRandom")
	cfg := testCfg(b, 0.3)
	cfg.Shards = 9
	before := runtime.NumGoroutine()
	nw, err := Build(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	g := nw.Group()
	if g == nil || g.Shards() != 4 {
		t.Fatalf("Build with Shards: 9 on 4 dies returned group %v, want 4 shards", g)
	}
	defer g.Close()
	g.RunUntil(runSpan(cfg))
	if g.Executed() == 0 {
		t.Fatal("sharded run dispatched nothing")
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("sharded run left %d goroutines, %d before it", after, before)
	}
}

func TestRunDeterministicAcrossCalls(t *testing.T) {
	cfg := testCfg(traffic.Multicast{N: 8, Frac: 0.10}, 0.4)
	a, err := Run(OptHybridSpeculative(8), cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(OptHybridSpeculative(8), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("same seed diverged:\n%+v\n%+v", a, b)
	}
}

func TestRunSeedMatters(t *testing.T) {
	cfg := testCfg(traffic.UniformRandom{N: 8}, 0.4)
	a, _ := Run(Baseline(8), cfg)
	cfg.Seed = 12
	b, _ := Run(Baseline(8), cfg)
	if a.AvgLatencyNs == b.AvgLatencyNs && a.ThroughputGFs == b.ThroughputGFs {
		t.Error("different seeds produced identical measurements")
	}
}

func TestOfferedLoadRealized(t *testing.T) {
	// At a light load the accepted unicast throughput must track the
	// offered load closely.
	cfg := testCfg(traffic.UniformRandom{N: 8}, 0.5)
	cfg.Measure = 600 * sim.Nanosecond
	r, err := Run(Baseline(8), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.ThroughputGFs < 0.4 || r.ThroughputGFs > 0.6 {
		t.Errorf("accepted %v GF/s at offered 0.5", r.ThroughputGFs)
	}
}

func TestMulticastDeliversMoreFlits(t *testing.T) {
	// Delivered throughput counts every destination copy: multicast
	// traffic must deliver more than its offered injection rate.
	cfg := testCfg(traffic.MulticastStatic{N: 8, Sources: 3}, 0.3)
	r, err := Run(BasicNonSpeculative(8), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.ThroughputGFs <= 0.35 {
		t.Errorf("multicast replication invisible: delivered %v at offered 0.3", r.ThroughputGFs)
	}
}

func TestSaturationSearch(t *testing.T) {
	if testing.Short() {
		t.Skip("saturation search is slow")
	}
	base := RunConfig{
		Bench: traffic.Shuffle{N: 8}, Seed: 3,
		Warmup: 100 * sim.Nanosecond, Measure: 300 * sim.Nanosecond, Drain: 250 * sim.Nanosecond,
	}
	sat, err := Saturation(Baseline(8), SatConfig{Base: base, Iters: 6})
	if err != nil {
		t.Fatal(err)
	}
	if sat.SatLoadGFs < 0.5 || sat.SatLoadGFs > 6 {
		t.Errorf("implausible saturation load %v", sat.SatLoadGFs)
	}
	if sat.ThroughputGFs <= 0 || sat.ZeroLoadLatencyNs <= 0 {
		t.Errorf("degenerate saturation result %+v", sat)
	}
	// The network must actually be stable at the reported load.
	if sat.AtSaturation.Completion < 0.92 {
		t.Errorf("reported stable point has completion %v", sat.AtSaturation.Completion)
	}
}

// TestSatConfigValidate: a bad search configuration fails with a typed
// *ConfigError naming the field, before any probe is simulated.
func TestSatConfigValidate(t *testing.T) {
	base := RunConfig{Bench: traffic.UniformRandom{N: 8}, Seed: 1, Measure: 100 * sim.Nanosecond}
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name  string
		cfg   SatConfig
		field string
	}{
		{"NaN latency factor", SatConfig{LatencyFactor: nan}, "LatencyFactor"},
		{"negative latency factor", SatConfig{LatencyFactor: -4}, "LatencyFactor"},
		{"Inf min completion", SatConfig{MinCompletion: inf}, "MinCompletion"},
		{"min completion above 1", SatConfig{MinCompletion: 1.5}, "MinCompletion"},
		{"negative zero-load probe", SatConfig{ZeroLoadGFs: -0.05}, "ZeroLoadGFs"},
		{"NaN start load", SatConfig{StartLoad: nan}, "StartLoad"},
		{"-Inf max load", SatConfig{MaxLoad: math.Inf(-1)}, "MaxLoad"},
		{"negative iters", SatConfig{Iters: -1}, "Iters"},
		{"start above default cap", SatConfig{StartLoad: 20}, "StartLoad"},
		{"default start above cap", SatConfig{MaxLoad: 0.3}, "StartLoad"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tc.cfg.Base = base
			_, err := saturationSearch(context.Background(), "probe", tc.cfg, runProber(func(float64) (RunResult, error) {
				t.Fatal("search simulated a probe despite an invalid configuration")
				return RunResult{}, nil
			}))
			var ce *ConfigError
			if !errors.As(err, &ce) {
				t.Fatalf("error %v (%T), want *ConfigError", err, err)
			}
			if len(ce.Fields) != 1 || ce.Fields[0].Field != tc.field {
				t.Fatalf("ConfigError fields %v, want exactly %s", ce.Fields, tc.field)
			}
			if !strings.Contains(err.Error(), "SatConfig") {
				t.Errorf("error %q does not name SatConfig", err)
			}
		})
	}
	if err := (SatConfig{Base: base, StartLoad: 2, MaxLoad: 2}).Validate(); err != nil {
		t.Errorf("StartLoad == MaxLoad rejected: %v", err)
	}
	e := NewEngine(2)
	if _, err := e.Saturation(Baseline(8), SatConfig{Base: base, Iters: -3}); err == nil {
		t.Fatal("engine search accepted negative Iters")
	}
	if n := e.Snapshot().Started; n != 0 {
		t.Fatalf("engine simulated %d probes for an invalid configuration", n)
	}
}

func TestSaturationHotspotIdenticalAcrossNetworks(t *testing.T) {
	if testing.Short() {
		t.Skip("saturation search is slow")
	}
	// The paper's signature hotspot result: every network saturates at
	// the same point because the bottleneck is the destination's fanin
	// tree, identical in all architectures.
	base := RunConfig{
		Bench: traffic.Hotspot{N: 8, Hot: 0}, Seed: 3,
		Warmup: 100 * sim.Nanosecond, Measure: 300 * sim.Nanosecond, Drain: 250 * sim.Nanosecond,
	}
	var loads []float64
	for _, spec := range AllSpecs(8) {
		sat, err := Saturation(spec, SatConfig{Base: base, Iters: 6})
		if err != nil {
			t.Fatal(err)
		}
		loads = append(loads, sat.SatLoadGFs)
	}
	for i := 1; i < len(loads); i++ {
		if loads[i] < loads[0]*0.9 || loads[i] > loads[0]*1.1 {
			t.Errorf("hotspot saturation differs: %v", loads)
		}
	}
}

func TestZeroLoadProbeFailure(t *testing.T) {
	// Windows too small to measure anything must error, not bisect.
	base := RunConfig{
		Bench: traffic.UniformRandom{N: 8}, Seed: 1,
		Warmup: 1, Measure: 2, Drain: 1,
	}
	if _, err := Saturation(Baseline(8), SatConfig{Base: base}); err == nil {
		t.Error("unmeasurable windows accepted")
	}
}

func TestLoadGrid(t *testing.T) {
	grid := LoadGrid(2.0, 4, 1.0)
	want := []float64{0.5, 1.0, 1.5, 2.0}
	if len(grid) != 4 {
		t.Fatalf("grid %v", grid)
	}
	for i := range want {
		if grid[i] != want[i] {
			t.Fatalf("grid %v, want %v", grid, want)
		}
	}
	if LoadGrid(0, 4, 1) != nil || LoadGrid(2, 0, 1) != nil || LoadGrid(2, 4, 0) != nil {
		t.Error("degenerate grids not nil")
	}
}

func TestLoadSweepMonotoneLatency(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	base := RunConfig{
		Bench: traffic.UniformRandom{N: 8}, Seed: 9,
		Warmup: 100 * sim.Nanosecond, Measure: 400 * sim.Nanosecond, Drain: 300 * sim.Nanosecond,
	}
	pts, err := LoadSweep(OptHybridSpeculative(8), base, 4, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 4 {
		t.Fatalf("%d points", len(pts))
	}
	// Latency grows with load; throughput tracks offered load.
	if pts[3].Result.AvgLatencyNs <= pts[0].Result.AvgLatencyNs {
		t.Errorf("latency not increasing: %.2f -> %.2f",
			pts[0].Result.AvgLatencyNs, pts[3].Result.AvgLatencyNs)
	}
	for _, p := range pts {
		if p.Result.ThroughputGFs < 0.8*p.Result.LoadGFs {
			t.Errorf("accepted %.3f far below offered %.3f at stable load",
				p.Result.ThroughputGFs, p.Result.LoadGFs)
		}
	}
	if _, err := LoadSweep(Baseline(8), base, 0, 0.9); err == nil {
		t.Error("zero points accepted")
	}
}

func TestFourPhaseSlower(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	base := RunConfig{
		Bench: traffic.Shuffle{N: 8}, Seed: 3,
		Warmup: 100 * sim.Nanosecond, Measure: 300 * sim.Nanosecond, Drain: 250 * sim.Nanosecond,
	}
	two, err := Saturation(OptHybridSpeculative(8), SatConfig{Base: base, Iters: 6})
	if err != nil {
		t.Fatal(err)
	}
	fourSpec := OptHybridSpeculative(8)
	fourSpec.Protocol = timing.FourPhase
	four, err := Saturation(fourSpec, SatConfig{Base: base, Iters: 6})
	if err != nil {
		t.Fatal(err)
	}
	if four.ThroughputGFs >= two.ThroughputGFs {
		t.Errorf("four-phase (%.2f) not slower than two-phase (%.2f)",
			four.ThroughputGFs, two.ThroughputGFs)
	}
	// Delivery correctness is protocol-independent.
	if four.AtSaturation.Completion < 0.92 {
		t.Errorf("four-phase completion %v", four.AtSaturation.Completion)
	}
}

func TestRunSeeds(t *testing.T) {
	cfg := testCfg(traffic.UniformRandom{N: 8}, 0.3)
	rep, err := RunSeeds(OptHybridSpeculative(8), cfg, []uint64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Seeds != 3 || len(rep.Runs) != 3 {
		t.Fatalf("replication bookkeeping wrong: %+v", rep)
	}
	if rep.MeanLatencyNs <= 0 || rep.MeanThroughputGFs <= 0 || rep.MeanPowerMW <= 0 {
		t.Errorf("degenerate means: %+v", rep)
	}
	if rep.MeanCompletion != 1 {
		t.Errorf("completion %v at light load", rep.MeanCompletion)
	}
	if rep.StdLatencyNs == 0 {
		t.Error("distinct seeds produced zero variance (suspicious)")
	}
	if re := rep.RelativeError(); re <= 0 || re > 0.5 {
		t.Errorf("relative error %v implausible", re)
	}
	if _, err := RunSeeds(Baseline(8), cfg, nil); err == nil {
		t.Error("empty seed list accepted")
	}
}

func TestSynchronousVariant(t *testing.T) {
	spec := Synchronous(BasicNonSpeculative(8))
	// Slowest node: unoptimized non-speculative at 299 ps + margin.
	if spec.SyncPeriod != 299+SyncClockMargin {
		t.Errorf("sync period %v, want %v", spec.SyncPeriod, 299+SyncClockMargin)
	}
	if spec.Name != NameBasicNonSpec+"(sync)" {
		t.Errorf("sync name %q", spec.Name)
	}
	// Correctness is unchanged; latency and power both degrade at low
	// load (clock quantization + clock tree) — the GALS motivation.
	cfg := testCfg(traffic.Multicast{N: 8, Frac: 0.10}, 0.3)
	async, err := Run(BasicNonSpeculative(8), cfg)
	if err != nil {
		t.Fatal(err)
	}
	sync, err := Run(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sync.Completion != 1 {
		t.Fatalf("sync variant incomplete: %+v", sync)
	}
	if sync.AvgLatencyNs <= async.AvgLatencyNs {
		t.Errorf("sync latency %.2f not above async %.2f (worst-case quantization)",
			sync.AvgLatencyNs, async.AvgLatencyNs)
	}
	if sync.PowerMW <= async.PowerMW {
		t.Errorf("sync power %.2f not above async %.2f (clock tree)",
			sync.PowerMW, async.PowerMW)
	}
}

func TestSynchronousBaselinePeriod(t *testing.T) {
	spec := Synchronous(Baseline(8))
	// Serial baseline: slowest of baseline fanout (263) and fanin (190).
	if spec.SyncPeriod != 263+SyncClockMargin {
		t.Errorf("baseline sync period %v", spec.SyncPeriod)
	}
}

func TestRunSchedule(t *testing.T) {
	sched := Schedule{
		{At: 0, Src: 0, Dests: 1 << 7},
		{At: 500, Src: 3, Dests: 1<<1 | 1<<6},
		{At: 500, Src: 5, Dests: 1 << 0},
	}
	res, err := RunSchedule(OptHybridSpeculative(8), sched, 2000*sim.Nanosecond)
	if err != nil {
		t.Fatal(err)
	}
	if res.MeasuredPackets != 3 || res.Completion != 1 {
		t.Fatalf("schedule run incomplete: %+v", res)
	}
	if res.AvgLatencyNs <= 0 {
		t.Errorf("no latency measured: %+v", res)
	}
	// Replay shares Run's collector: the figures the replay harness
	// reported before are unchanged, and P50/P99 are now filled in.
	if res.AvgLatencyNs != 1.598 || res.P95LatencyNs != 1.598 ||
		res.ThroughputGFs != 0.0012496875781054736 || res.PowerMW != 0.05083618260634838 {
		t.Errorf("schedule replay drifted: %+v", res)
	}
	if res.P50LatencyNs <= 0 || res.P99LatencyNs <= 0 {
		t.Errorf("schedule replay P50 %v / P99 %v not collected", res.P50LatencyNs, res.P99LatencyNs)
	}
	// Determinism of replay.
	res2, err := RunSchedule(OptHybridSpeculative(8), sched, 2000*sim.Nanosecond)
	if err != nil {
		t.Fatal(err)
	}
	if res != res2 {
		t.Error("schedule replay not deterministic")
	}
}

// TestRunScheduleMesh: a schedule replays on a 2D mesh through the same
// harness, addressing its tiles with the flat destination mask (a
// multicast, a unicast, a packet to its own tile and a broadcast),
// deterministically and to completion, and is validated against the
// mesh's tile count.
func TestRunScheduleMesh(t *testing.T) {
	sched := Schedule{
		{At: 0, Src: 0, Dests: 1<<15 | 1<<5 | 1<<10},
		{At: 500, Src: 12, Dests: 1 << 3},
		{At: 500, Src: 6, Dests: 1<<6 | 1<<7},
		{At: 1200, Src: 15, Dests: packet.Range(0, 16)},
	}
	spec := MeshTree(4, 4)
	res, err := RunSchedule(spec, sched, 2000*sim.Nanosecond)
	if err != nil {
		t.Fatal(err)
	}
	if res.Network != spec.Name || res.MeasuredPackets != len(sched) || res.Completion != 1 || res.AvgLatencyNs <= 0 {
		t.Fatalf("mesh schedule run incomplete: %+v", res)
	}
	again, err := RunSchedule(spec, sched, 2000*sim.Nanosecond)
	if err != nil {
		t.Fatal(err)
	}
	if res != again {
		t.Errorf("mesh schedule replay not deterministic:\n%+v\nvs\n%+v", res, again)
	}
	if _, err := RunSchedule(spec, Schedule{{At: 0, Src: 16, Dests: 1}}, 0); err == nil {
		t.Error("a source past the mesh's 16 tiles was accepted")
	}
}

// TestMeshSpecFieldMatrix walks every network.Spec field on a 4x4 mesh
// spec: setting the field either changes the mesh's result or makes
// Validate fail with an error naming the field. A field added to Spec
// without a row here fails the test.
func TestMeshSpecFieldMatrix(t *testing.T) {
	rows := map[string]struct {
		set     func(*network.Spec)
		rejects bool
	}{
		"Name":        {set: func(s *network.Spec) { s.Name = "Renamed" }},
		"N":           {set: func(s *network.Spec) { s.N = 8 }, rejects: true},
		"PacketLen":   {set: func(s *network.Spec) { s.PacketLen = 4 }},
		"Scheme":      {set: func(s *network.Spec) { s.Scheme = topology.Hybrid }, rejects: true},
		"SpecLevels":  {set: func(s *network.Spec) { s.SpecLevels = []bool{true, false, true, false} }, rejects: true},
		"SpecKind":    {set: func(s *network.Spec) { s.SpecKind = node.OptSpec }, rejects: true},
		"NonSpecKind": {set: func(s *network.Spec) { s.NonSpecKind = node.OptNonSpec }, rejects: true},
		"Serial":      {set: func(s *network.Spec) { s.Serial = true }},
		"Strategy":    {set: func(s *network.Spec) { s.Strategy = "DPM" }},
		"Protocol":    {set: func(s *network.Spec) { s.Protocol = timing.FourPhase }, rejects: true},
		"SyncPeriod":  {set: func(s *network.Spec) { s.SyncPeriod = 2 * sim.Nanosecond }, rejects: true},
		"Faults":      {set: func(s *network.Spec) { s.Faults = fault.Config{Seed: 1, DropRate: 1e-3} }, rejects: true},
		"Chiplet":     {set: func(s *network.Spec) { s.Chiplet = chiplet.Default(2, 2) }, rejects: true},
		"Mesh":        {set: func(s *network.Spec) { s.Mesh = &mesh.Size{W: 8, H: 2} }},
	}
	cfg := quickWindows(RunConfig{Bench: traffic.Multicast{N: 16, Frac: 0.10}, LoadGFs: 0.3, Seed: 2016})
	base, err := Run(MeshTree(4, 4), cfg)
	if err != nil {
		t.Fatal(err)
	}
	fields := reflect.TypeOf(network.Spec{})
	for i := 0; i < fields.NumField(); i++ {
		name := fields.Field(i).Name
		row, ok := rows[name]
		if !ok {
			t.Errorf("Spec.%s has no row: does it act on a mesh, or does Validate reject it?", name)
			continue
		}
		spec := MeshTree(4, 4)
		row.set(&spec)
		err := spec.Validate()
		if row.rejects {
			if err == nil || !strings.Contains(err.Error(), name) {
				t.Errorf("%s on a mesh: Validate returned %v, want an error naming the field", name, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s on a mesh: %v", name, err)
			continue
		}
		if res, err := Run(spec, cfg); err != nil || res == base {
			t.Errorf("%s on a mesh: err %v, and the result did not change", name, err)
		}
	}
}

func TestScheduleValidation(t *testing.T) {
	cases := []Schedule{
		{},
		{{At: -1, Src: 0, Dests: 1}},
		{{At: 0, Src: 9, Dests: 1}},
		{{At: 0, Src: 0, Dests: 0}},
		{{At: 0, Src: 0, Dests: 1 << 9}},
	}
	for i, s := range cases {
		if err := s.Validate(8); err == nil {
			t.Errorf("case %d: invalid schedule accepted", i)
		}
	}
	if _, err := RunSchedule(Baseline(8), Schedule{{At: 0, Src: 0, Dests: 1}}, -1); err == nil {
		t.Error("negative drain accepted")
	}
	good := Schedule{{At: 5, Src: 0, Dests: 1}, {At: 2, Src: 1, Dests: 2}}
	if good.End() != 5 {
		t.Errorf("End() = %v", good.End())
	}
}
