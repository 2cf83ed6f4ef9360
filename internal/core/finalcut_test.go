package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"testing"

	"asyncnoc/internal/metrics"
	"asyncnoc/internal/network"
	"asyncnoc/internal/sim"
	"asyncnoc/internal/traffic"
)

// fullSpan is a no-op instrument. An instrumented run covers its whole
// span, so a run carrying one is the reference that a run stopping at
// its final result must equal.
type fullSpan struct{}

func (fullSpan) Attach(*network.Network) error { return nil }
func (fullSpan) Finish() error                 { return nil }

// quarterBaselineSat is a quarter of the Baseline network's saturation
// throughput per benchmark at paper scale (EXPERIMENTS.md, Table 1): a
// load every architecture carries without saturating.
var quarterBaselineSat = map[string]float64{
	"UniformRandom":    1.47 / 4,
	"Shuffle":          1.46 / 4,
	"Hotspot":          0.29 / 4,
	"Multicast5":       1.27 / 4,
	"Multicast10":      1.29 / 4,
	"Multicast_static": 0.86 / 4,
}

// quickWindows are cmd/experiments -quick's windows.
func quickWindows(cfg RunConfig) RunConfig {
	cfg.Warmup, cfg.Measure, cfg.Drain = 120*sim.Nanosecond, 400*sim.Nanosecond, 300*sim.Nanosecond
	return cfg
}

// paperWindows are the Section 5.1 windows.
func paperWindows(cfg RunConfig) RunConfig {
	cfg.Warmup, cfg.Measure, cfg.Drain = DefaultWarmup, DefaultMeasure, DefaultDrain
	return cfg
}

// finalCutNets is the network cache of every run checkFinalCut checks:
// each builds on the storage an earlier check left, of its own spec or
// (after an eviction) none, while its instrumented reference always
// builds fresh.
var finalCutNets = netCache{limit: 2}

// checkFinalCut runs cfg as an engine's RunContext does and over its
// whole span, requires equal results, and reports whether the run
// stopped at its final result.
func checkFinalCut(t testing.TB, spec network.Spec, cfg RunConfig) (RunResult, bool) {
	t.Helper()
	got, cut, err := runContext(context.Background(), spec, cfg, &finalCutNets)
	if err != nil {
		t.Fatalf("%s: %v", describeRun(spec.Name, cfg), err)
	}
	full := cfg
	full.Instruments = []Instrument{fullSpan{}}
	want, err := Run(spec, full)
	if err != nil {
		t.Fatalf("%s full span: %v", describeRun(spec.Name, cfg), err)
	}
	if got != want {
		t.Fatalf("%s: the run stopped at its final result (cut %v) differs from the full-span run:\n%+v\nvs\n%+v",
			describeRun(spec.Name, cfg), cut, got, want)
	}
	return got, cut
}

func describeRun(name string, cfg RunConfig) string {
	return fmt.Sprintf("%s/%s load %.4f seed %d windows %v/%v/%v shards %d",
		name, cfg.Bench.Name(), cfg.LoadGFs, cfg.Seed, cfg.Warmup, cfg.Measure, cfg.Drain, cfg.Shards)
}

// meshRun runs cfg on a mesh through the shared harness, under stop.
func meshRun(t testing.TB, spec network.Spec, cfg RunConfig, final bool) (RunResult, bool) {
	t.Helper()
	h, err := newHarness(spec, cfg.Shards, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.arm(cfg); err != nil {
		t.Fatal(err)
	}
	g := h.guard(runSpan(cfg), 0)
	var stop func() bool
	if final {
		stop = h.final
	}
	cut, err := g.run(context.Background(), stop)
	if err != nil {
		t.Fatal(err)
	}
	return h.collect(cfg.Bench.Name(), cfg.LoadGFs), cut
}

// TestFinalCutMatchesFullRuns: a run that stops at the first chunk
// boundary where its result is final returns the full-span run's
// RunResult, on the nocbench mot-serial grid at quick and paper windows,
// across a load ladder up to past saturation and on 4x4 meshes; every
// run below saturation does stop early; and a sharded chiplet run
// returns the serial chiplet run's result.
func TestFinalCutMatchesFullRuns(t *testing.T) {
	windows := []func(RunConfig) RunConfig{quickWindows, paperWindows}
	if testing.Short() {
		windows = windows[:1]
	}
	specs := append(AllSpecs(8),
		WithStrategy(OptHybridSpeculative(8), "PathBased"),
		WithStrategy(OptHybridSpeculative(8), "DPM"))
	for _, win := range windows {
		for _, spec := range specs {
			for _, bench := range traffic.StandardSuite(8) {
				for _, seed := range []uint64{2016, 7} {
					cfg := win(RunConfig{Bench: bench, LoadGFs: quarterBaselineSat[bench.Name()], Seed: seed})
					if res, cut := checkFinalCut(t, spec, cfg); !cut {
						t.Errorf("%s: below saturation (completion %v) but ran its whole span",
							describeRun(spec.Name, cfg), res.Completion)
					}
				}
			}
		}
	}

	// A load ladder on two pairs, from near zero load to past the
	// quick-scale saturation the engine's search finds.
	for _, p := range []struct {
		spec  network.Spec
		bench traffic.Benchmark
	}{
		{OptHybridSpeculative(8), traffic.UniformRandom{N: 8}},
		{Baseline(8), traffic.Multicast{N: 8, Frac: 0.10}},
	} {
		sc := quickSatConfig(p.bench, 2016)
		sat, err := NewEngine(1).Saturation(p.spec, sc)
		if err != nil {
			t.Fatal(err)
		}
		for _, l := range []struct {
			load  float64
			below bool
		}{{0.05, true}, {sat.SatLoadGFs / 4, true}, {sat.SatLoadGFs * 0.95, false}, {sat.SatLoadGFs * 3, false}} {
			cfg := sc.Base
			cfg.LoadGFs = l.load
			res, cut := checkFinalCut(t, p.spec, cfg)
			switch {
			case l.below && !cut:
				t.Errorf("%s: below saturation (completion %v) but ran its whole span", describeRun(p.spec.Name, cfg), res.Completion)
			case l.load > sat.SatLoadGFs && (res.Completion == 1 || cut):
				t.Errorf("%s: past saturation, completion %v and cut %v; want completion < 1 and the whole span",
					describeRun(p.spec.Name, cfg), res.Completion, cut)
			}
		}
	}

	// 4x4 meshes through Run.
	for _, spec := range []network.Spec{MeshTree(4, 4), MeshSerial(4, 4)} {
		for _, bench := range []traffic.Benchmark{traffic.UniformRandom{N: 16}, traffic.Multicast{N: 16, Frac: 0.10}} {
			cfg := RunConfig{Bench: bench, LoadGFs: 0.3, Seed: 9,
				Warmup: 200 * sim.Nanosecond, Measure: 1000 * sim.Nanosecond, Drain: 600 * sim.Nanosecond}
			got, err := Run(spec, cfg)
			if err != nil {
				t.Fatal(err)
			}
			want, _ := meshRun(t, spec, cfg, false)
			if got != want {
				t.Fatalf("%s: Run differs from the full-span run:\n%+v\nvs\n%+v", describeRun(spec.Name, cfg), got, want)
			}
			if _, cut := meshRun(t, spec, cfg, true); !cut {
				t.Errorf("%s: mesh below saturation ran its whole span", describeRun(spec.Name, cfg))
			}
		}
	}

	// A sharded chiplet run returns the serial one's result. Chiplet
	// runs cover their whole span (simRun.finalStop), so neither stops
	// early.
	spec, b := composed2x2(t, "Multicast10")
	cfg := quickWindows(RunConfig{Bench: b, LoadGFs: 0.3, Seed: 2016})
	serial, _ := checkFinalCut(t, spec, cfg)
	cfg.Shards = 2
	if sharded, _ := checkFinalCut(t, spec, cfg); sharded != serial {
		t.Errorf("sharded chiplet run differs from the serial run:\n%+v\nvs\n%+v", sharded, serial)
	}
}

// TestBudgetExceededOnlyInDrain: an event budget that the full span
// exceeds only after the result is final no longer fails the run, which
// returns the full run's result; the same budget still aborts a run that
// covers its whole span.
func TestBudgetExceededOnlyInDrain(t *testing.T) {
	spec := OptHybridSpeculative(8)
	cfg := quickWindows(RunConfig{Bench: traffic.UniformRandom{N: 8}, LoadGFs: 0.4, Seed: 2016})
	r, err := startRun(spec, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	stopped, err := r.g.run(context.Background(), r.finalStop())
	if err != nil || !stopped {
		t.Fatalf("run did not stop at its final result: stopped %v, err %v", stopped, err)
	}
	budget := r.h.clock.Executed()
	want, cut := checkFinalCut(t, spec, cfg)
	if !cut {
		t.Fatal("run did not stop at its final result")
	}

	cfg.MaxEvents = budget
	got, err := Run(spec, cfg)
	if err != nil {
		t.Fatalf("budget of %d events, exceeded only in the drain: %v", budget, err)
	}
	if got != want {
		t.Fatalf("budgeted run differs from the full run:\n%+v\nvs\n%+v", got, want)
	}
	cfg.Instruments = []Instrument{fullSpan{}}
	var le *LivelockError
	if _, err := Run(spec, cfg); !errors.As(err, &le) {
		t.Fatalf("full span under a budget of %d events: err %v, want a *LivelockError", budget, err)
	}
}

// TestEngineCountsFinalStops: EngineSnapshot.FinalStops counts the
// engine's simulations that stopped at a final result, and no others.
func TestEngineCountsFinalStops(t *testing.T) {
	spec := OptHybridSpeculative(8)
	cfg := quickWindows(RunConfig{Bench: traffic.UniformRandom{N: 8}, LoadGFs: 0.4, Seed: 2016})
	e := NewEngine(1)
	for range 2 { // the second run is a memo hit
		if _, err := e.Run(spec, cfg); err != nil {
			t.Fatal(err)
		}
	}
	past := cfg
	past.LoadGFs = 4 // never final: measured packets are still pending at the end
	instrumented := cfg
	instrumented.Instruments = []Instrument{fullSpan{}}
	for _, c := range []RunConfig{past, instrumented} {
		if _, err := e.Run(spec, c); err != nil {
			t.Fatal(err)
		}
	}
	if s := e.Snapshot(); s.Started != 3 || s.FinalStops != 1 {
		t.Fatalf("started %d, final stops %d; want 3 and 1", s.Started, s.FinalStops)
	}
}

// TestProbeFinalBeforeVerdict: a probe whose criterion sits exactly on
// the run's own mean latency stays undecided to its final result; it is
// collected and published as a full run, not suspended as a stable
// bound.
func TestProbeFinalBeforeVerdict(t *testing.T) {
	spec := OptHybridSpeculative(8)
	cfg := quickWindows(RunConfig{Bench: traffic.UniformRandom{N: 8}, LoadGFs: 0.4, Seed: 2016})
	want, cut := checkFinalCut(t, spec, cfg)
	if !cut {
		t.Fatal("run did not stop at its final result")
	}
	crit := metrics.SatCriterion{MaxLatencyNs: want.AvgLatencyNs, MinCompletion: 0.5}
	e := NewEngine(1)
	p, err := e.probe(context.Background(), spec, cfg, crit)
	if err != nil {
		t.Fatal(err)
	}
	dp, ok := p.(doneProbe)
	if !ok || dp.res != want || p.saturated() {
		t.Fatalf("probe is %T %+v, want a stable full run equal to %+v", p, p, want)
	}
	if s := e.Snapshot(); s.Started != 1 || s.FinalStops != 1 || s.InFlight() != 0 {
		t.Fatalf("after the probe: %+v", s)
	}
	if got, src, err := e.RunSource(context.Background(), spec, cfg); err != nil || src != SourceMemo || got != want {
		t.Fatalf("the probe's run is not in the memo: source %d, err %v", src, err)
	}
}

// FuzzFinalCut draws a run (architecture, benchmark, seed, load and
// windows up to about 700 ns; see drawRun) and requires the run that
// stops at its final result to equal the full-span run.
func FuzzFinalCut(f *testing.F) {
	f.Add([]byte{3, 0, 1, 40, 60, 200, 200})  // below saturation: stops early
	f.Add([]byte{0, 2, 5, 250, 40, 100, 250}) // past saturation: whole span
	f.Add([]byte{5, 4, 9, 60, 80, 200, 0})    // no drain
	f.Fuzz(func(t *testing.T, data []byte) {
		var b [7]byte
		copy(b[:], data)
		spec, cfg := drawRun(b)
		checkFinalCut(t, spec, cfg)
	})
}

// TestFinalCutProperty is FuzzFinalCut over a fixed draw.
func TestFinalCutProperty(t *testing.T) {
	cases := 60
	if testing.Short() {
		cases = 15
	}
	rng := rand.New(rand.NewPCG(25, 2016))
	cuts := 0
	for i := 0; i < cases; i++ {
		var b [7]byte
		for j := range b {
			b[j] = byte(rng.Uint32())
		}
		spec, cfg := drawRun(b)
		if _, cut := checkFinalCut(t, spec, cfg); cut {
			cuts++
		}
	}
	t.Logf("%d of %d runs stopped at their final result", cuts, cases)
	if cuts == 0 || cuts == cases {
		t.Errorf("%d of %d runs stopped early; want both kinds", cuts, cases)
	}
}
