// Chiplet-composition locks: the hierarchical topology layer must (a)
// deliver every injected packet under all five routing strategies, (b)
// produce byte-identical results and traces at any shard count (one die
// per shard region), and (c) hold a golden table for the reference
// 2x2-of-4x4 composition. A larger 8x8-of-8x8 system (4096 terminals)
// runs under ASYNCNOC_SCALE=1 (see `make chiplet-scale`).
package asyncnoc_test

import (
	"bytes"
	"fmt"
	"os"
	"testing"

	"asyncnoc"
)

// chipletSpec composes the named architecture into a w x h mesh of
// radix-n MoT dies with the default serialized interposer.
func chipletSpec(t *testing.T, arch string, n, w, h int) asyncnoc.NetworkSpec {
	t.Helper()
	spec, err := asyncnoc.NetworkByName(n, arch)
	if err != nil {
		t.Fatal(err)
	}
	return asyncnoc.WithChiplet(spec, asyncnoc.ChipletSerial(w, h))
}

func chipletCfg(t *testing.T, spec asyncnoc.NetworkSpec) asyncnoc.RunConfig {
	t.Helper()
	bench, err := asyncnoc.ChipletBenchmarkByName(spec.Chiplet, spec.N, "Multicast10")
	if err != nil {
		t.Fatal(err)
	}
	return asyncnoc.RunConfig{
		Bench:   bench,
		LoadGFs: 0.3,
		Seed:    2016,
		Warmup:  100 * asyncnoc.Nanosecond,
		Measure: 300 * asyncnoc.Nanosecond,
		Drain:   600 * asyncnoc.Nanosecond,
	}
}

// chipletLine renders the golden-lock string: the flat measurements plus
// the per-hierarchy-level breakout (intra-die vs die-to-die).
func chipletLine(res asyncnoc.RunResult) string {
	return fmt.Sprintf("lat=%.4f thr=%.4f pwr=%.4f compl=%.4f n=%d d2dn=%d d2dlat=%.4f intralat=%.4f d2dthr=%.4f d2dpwr=%.4f d2dhops=%d",
		res.AvgLatencyNs, res.ThroughputGFs, res.PowerMW, res.Completion, res.MeasuredPackets,
		res.D2DMeasuredPackets, res.AvgD2DLatencyNs, res.AvgIntraLatencyNs,
		res.D2DThroughputGFs, res.D2DPowerMW, res.D2DFlitHops)
}

// TestChipletGolden2x2of4x4 locks the reference composition: four 4x4
// MoT dies on a 2x2 interposer, all six architectures.
func TestChipletGolden2x2of4x4(t *testing.T) {
	want := map[string]string{
		"Baseline@2x2of4":               "lat=5.1731 thr=0.4329 pwr=30.4430 compl=1.0000 n=316 d2dn=231 d2dlat=6.0094 intralat=2.9003 d2dthr=0.3242 d2dpwr=6.4687 d2dhops=1565",
		"BasicNonSpeculative@2x2of4":    "lat=4.1221 thr=0.4329 pwr=30.0607 compl=1.0000 n=316 d2dn=231 d2dlat=4.8847 intralat=2.0497 d2dthr=0.3242 d2dpwr=6.4687 d2dhops=1565",
		"BasicHybridSpeculative@2x2of4": "lat=3.6720 thr=0.4327 pwr=32.3056 compl=1.0000 n=316 d2dn=231 d2dlat=4.4393 intralat=1.5866 d2dthr=0.3242 d2dpwr=6.4687 d2dhops=1565",
		"OptHybridSpeculative@2x2of4":   "lat=3.5484 thr=0.4325 pwr=30.9134 compl=1.0000 n=316 d2dn=231 d2dlat=4.3310 intralat=1.4216 d2dthr=0.3240 d2dpwr=6.4687 d2dhops=1565",
		"OptNonSpeculative@2x2of4":      "lat=3.7518 thr=0.4325 pwr=29.1380 compl=1.0000 n=316 d2dn=231 d2dlat=4.5340 intralat=1.6260 d2dthr=0.3240 d2dpwr=6.4687 d2dhops=1565",
		"OptAllSpeculative@2x2of4":      "lat=3.5484 thr=0.4325 pwr=30.9134 compl=1.0000 n=316 d2dn=231 d2dlat=4.3310 intralat=1.4216 d2dthr=0.3240 d2dpwr=6.4687 d2dhops=1565",
	}
	for _, base := range asyncnoc.AllNetworks(4) {
		spec := asyncnoc.WithChiplet(base, asyncnoc.ChipletSerial(2, 2))
		res, err := asyncnoc.Run(spec, chipletCfg(t, spec))
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		if res.Completion != 1 {
			t.Errorf("%s: completion %.4f, want 1.0", spec.Name, res.Completion)
		}
		if res.D2DMeasuredPackets == 0 || res.D2DFlitHops == 0 {
			t.Errorf("%s: no D2D activity recorded (%d packets, %d flit-hops)",
				spec.Name, res.D2DMeasuredPackets, res.D2DFlitHops)
		}
		got := chipletLine(res)
		if want[spec.Name] == "" {
			t.Logf("GOLDEN %s: %s", spec.Name, got)
			continue
		}
		if got != want[spec.Name] {
			t.Errorf("%s drifted:\n got  %s\n want %s", spec.Name, got, want[spec.Name])
		}
	}
}

// chipletTracedRun executes one instrumented composed run at the given
// shard count and returns the result plus the full JSONL trace.
func chipletTracedRun(t *testing.T, spec asyncnoc.NetworkSpec, shards int) (asyncnoc.RunResult, []byte) {
	t.Helper()
	var buf bytes.Buffer
	cfg := chipletCfg(t, spec)
	cfg.Shards = shards
	cfg.Instruments = []asyncnoc.Instrument{&asyncnoc.TraceInstrument{Out: &buf}}
	res, err := asyncnoc.Run(spec, cfg)
	if err != nil {
		t.Fatalf("%s shards=%d: %v", spec.Name, shards, err)
	}
	return res, buf.Bytes()
}

// TestChipletShardDeterminism extends the shard-determinism contract to
// the composed topology: one die per shard region, results and traces
// byte-identical at every shard count under all five routing schemes.
// The 2x2 composition covers the reference golden geometry; the 2x4
// composition has eight dies, so shards=8 exercises the adaptive
// horizon extension and coalesced barriers at the full shard fan-out
// (every die its own region, every pair lookahead interposer-widened).
func TestChipletShardDeterminism(t *testing.T) {
	cases := []struct {
		w, h int
		ks   []int
	}{
		{2, 2, []int{2, 4}},
		{2, 4, []int{2, 4, 8}},
	}
	for _, c := range cases {
		base := chipletSpec(t, "OptHybridSpeculative", 4, c.w, c.h)
		specs := []asyncnoc.NetworkSpec{base}
		for _, strat := range asyncnoc.StrategyNames() {
			specs = append(specs, asyncnoc.WithStrategy(base, strat))
		}
		for _, spec := range specs {
			spec, ks := spec, c.ks
			t.Run(spec.Name, func(t *testing.T) {
				t.Parallel()
				wantRes, wantTrace := chipletTracedRun(t, spec, 1)
				if len(wantTrace) == 0 {
					t.Fatal("serial reference produced an empty trace")
				}
				if wantRes.D2DMeasuredPackets == 0 {
					t.Error("no D2D packets measured")
				}
				for _, k := range ks {
					gotRes, gotTrace := chipletTracedRun(t, spec, k)
					if gotRes != wantRes {
						t.Errorf("shards=%d result diverged:\n got %+v\nwant %+v", k, gotRes, wantRes)
					}
					if !bytes.Equal(gotTrace, wantTrace) {
						t.Errorf("shards=%d trace differs from serial (%d vs %d bytes): %s",
							k, len(gotTrace), len(wantTrace), firstTraceDiff(gotTrace, wantTrace))
					}
				}
			})
		}
	}
}

// TestChipletValidation pins the composition layer's error surface.
func TestChipletValidation(t *testing.T) {
	spec := chipletSpec(t, "OptHybridSpeculative", 4, 2, 2)
	if _, err := asyncnoc.NewNetwork(spec); err != nil {
		t.Fatalf("composed build: %v", err)
	}
	nw, err := asyncnoc.NewNetwork(spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nw.Inject(0, asyncnoc.Dests(1)); err == nil {
		t.Error("flat Inject accepted on a chiplet composition")
	}
	if err := nw.InjectWide(0, make([]asyncnoc.DestSet, 3)); err == nil {
		t.Error("InjectWide accepted a wrong-length mask slice")
	}
	if err := nw.InjectWide(0, make([]asyncnoc.DestSet, 4)); err == nil {
		t.Error("InjectWide accepted all-empty masks")
	}

	// A flat benchmark cannot address a composition.
	cfg := chipletCfg(t, spec)
	cfg.Bench = asyncnoc.UniformRandom(4)
	if _, err := asyncnoc.Run(spec, cfg); err == nil {
		t.Error("Run accepted a flat benchmark on a chiplet composition")
	}

	// Faults are unsupported on compositions.
	faulty := spec
	faulty.Faults.CorruptRate = 1e-4
	if _, err := asyncnoc.NewNetwork(faulty); err == nil {
		t.Error("composed build accepted a fault config")
	}

	// Dies wider than the destination mask must compose, not scale up.
	big, err := asyncnoc.NetworkByName(128, "OptHybridSpeculative")
	if err != nil {
		t.Fatal(err)
	}
	if _, nerr := asyncnoc.NewNetwork(big); nerr == nil {
		t.Error("single die with radix 128 accepted (DestSet is 64-bit)")
	}
}

// TestChipletScale8x8of8x8 is the paper-scale deliverable: an 8x8
// interposer of 8x8 MoT dies — 4096 terminals — run end-to-end under
// all five routing strategies with per-hierarchy-level tables, byte
// -identical at shards 1, 2, 4, and 8. Gated behind ASYNCNOC_SCALE=1:
// it simulates thousands of nodes and takes minutes.
func TestChipletScale8x8of8x8(t *testing.T) {
	if os.Getenv("ASYNCNOC_SCALE") == "" {
		t.Skip("set ASYNCNOC_SCALE=1 (or run `make chiplet-scale`) for the 8x8-of-8x8 system test")
	}
	base := chipletSpec(t, "OptHybridSpeculative", 8, 8, 8)
	specs := []asyncnoc.NetworkSpec{}
	for _, strat := range asyncnoc.StrategyNames() {
		specs = append(specs, asyncnoc.WithStrategy(base, strat))
	}
	t.Logf("%-42s %10s %10s %10s %10s %10s", "network", "lat(ns)", "intra(ns)", "d2d(ns)", "thr(GF/s)", "d2d(mW)")
	for _, spec := range specs {
		bench, err := asyncnoc.ChipletBenchmarkByName(spec.Chiplet, spec.N, "Multicast10")
		if err != nil {
			t.Fatal(err)
		}
		cfg := asyncnoc.RunConfig{
			Bench:   bench,
			LoadGFs: 0.2,
			Seed:    2016,
			Warmup:  50 * asyncnoc.Nanosecond,
			Measure: 150 * asyncnoc.Nanosecond,
			Drain:   600 * asyncnoc.Nanosecond,
		}
		var ref asyncnoc.RunResult
		var refTrace []byte
		for i, k := range []int{1, 2, 4, 8} {
			cfg.Shards = k
			var buf bytes.Buffer
			cfg.Instruments = []asyncnoc.Instrument{&asyncnoc.TraceInstrument{Out: &buf}}
			res, err := asyncnoc.Run(spec, cfg)
			if err != nil {
				t.Fatalf("%s shards=%d: %v", spec.Name, k, err)
			}
			if i == 0 {
				ref, refTrace = res, buf.Bytes()
				if len(refTrace) == 0 {
					t.Fatalf("%s: serial reference produced an empty trace", spec.Name)
				}
				continue
			}
			if res != ref {
				t.Errorf("%s: shards=%d diverged:\n got %+v\nwant %+v", spec.Name, k, res, ref)
			}
			if !bytes.Equal(buf.Bytes(), refTrace) {
				t.Errorf("%s: shards=%d trace differs from serial (%d vs %d bytes): %s",
					spec.Name, k, buf.Len(), len(refTrace), firstTraceDiff(buf.Bytes(), refTrace))
			}
		}
		if ref.D2DMeasuredPackets == 0 {
			t.Errorf("%s: no D2D packets at 4096 terminals", spec.Name)
		}
		t.Logf("%-42s %10.2f %10.2f %10.2f %10.3f %10.2f",
			ref.Network, ref.AvgLatencyNs, ref.AvgIntraLatencyNs, ref.AvgD2DLatencyNs,
			ref.ThroughputGFs, ref.D2DPowerMW)
	}
}
