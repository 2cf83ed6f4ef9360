package asyncnoc_test

import (
	"fmt"
	"io"
	"strings"
	"testing"

	"asyncnoc"
)

// matrixTopo is one topology of TestCompositionMatrix.
type matrixTopo struct {
	name   string
	faults []bool
	// replays says a schedule replays on the topology; a chiplet
	// composition has no flat terminal space to address.
	replays bool
	// build returns the cell's spec and benchmark, and the field the run
	// must reject ("" when it must run).
	build func(strategy string, faults, instrumented bool) (asyncnoc.NetworkSpec, string, asyncnoc.Benchmark, error)
}

// TestCompositionMatrix crosses the run surface's independent options at
// CI scale: single-die MoT, a 2x2 composition of radix-4 dies and a 4x4
// mesh, each with the fault layer off and on, under all five routing
// strategies, with instruments off and on. Every cell either runs and
// delivers packets or fails with an error that names the rejected field:
// the fault layer is single-die MoT only. An
// instrumented cell's trace instrument must see events. Each topology
// also goes through the other run entries (checkRunEntries).
func TestCompositionMatrix(t *testing.T) {
	faultCfg := asyncnoc.FaultConfig{Seed: 3, CorruptRate: 1e-3, DropRate: 1e-3}
	topos := []matrixTopo{
		{"mot", []bool{false, true}, true, func(strategy string, faults, _ bool) (asyncnoc.NetworkSpec, string, asyncnoc.Benchmark, error) {
			spec := asyncnoc.WithStrategy(asyncnoc.OptHybridSpeculative(8), strategy)
			if faults {
				spec.Faults = faultCfg
			}
			bench, err := asyncnoc.BenchmarkByName(8, "Multicast10")
			return spec, "", bench, err
		}},
		{"chiplet2x2of4", []bool{false, true}, false, func(strategy string, faults, _ bool) (asyncnoc.NetworkSpec, string, asyncnoc.Benchmark, error) {
			spec := asyncnoc.WithChiplet(asyncnoc.WithStrategy(asyncnoc.OptHybridSpeculative(4), strategy), asyncnoc.ChipletSerial(2, 2))
			rejected := ""
			if faults {
				spec.Faults = faultCfg
				rejected = "Faults"
			}
			bench, err := asyncnoc.ChipletBenchmarkByName(spec.Chiplet, spec.N, "Multicast10")
			return spec, rejected, bench, err
		}},
		{"mesh4x4", []bool{false, true}, true, func(strategy string, faults, _ bool) (asyncnoc.NetworkSpec, string, asyncnoc.Benchmark, error) {
			spec := asyncnoc.MeshTree(4, 4)
			spec.Strategy = strategy
			rejected := ""
			if faults {
				spec.Faults = faultCfg
				rejected = "Faults"
			}
			bench, err := asyncnoc.BenchmarkByName(16, "Multicast10")
			return spec, rejected, bench, err
		}},
	}
	for _, tp := range topos {
		t.Run(tp.name+"/entries", func(t *testing.T) { checkRunEntries(t, tp) })
		for _, faults := range tp.faults {
			for _, strategy := range asyncnoc.StrategyNames() {
				for _, instrumented := range []bool{false, true} {
					name := fmt.Sprintf("%s/faults=%v/%s/instruments=%v", tp.name, faults, strategy, instrumented)
					t.Run(name, func(t *testing.T) {
						ts, rejected, bench, err := tp.build(strategy, faults, instrumented)
						if err != nil {
							t.Fatal(err)
						}
						cfg := asyncnoc.RunConfig{
							Bench: bench, LoadGFs: 0.2, Seed: 5,
							Warmup:  100 * asyncnoc.Nanosecond,
							Measure: 300 * asyncnoc.Nanosecond,
							Drain:   300 * asyncnoc.Nanosecond,
						}
						tr := &asyncnoc.TraceInstrument{Out: io.Discard}
						if instrumented {
							cfg.Instruments = []asyncnoc.Instrument{tr}
						}
						res, err := asyncnoc.Run(ts, cfg)
						if rejected != "" {
							if err == nil || !strings.Contains(err.Error(), rejected) {
								t.Fatalf("got %v, want an error naming %s", err, rejected)
							}
							return
						}
						if err != nil {
							t.Fatal(err)
						}
						if res.MeasuredPackets == 0 || res.Completion == 0 {
							t.Errorf("%d measured packets, completion %v", res.MeasuredPackets, res.Completion)
						}
						if instrumented && (tr.Sink == nil || tr.Sink.Events() == 0) {
							t.Error("the trace instrument saw no events")
						}
					})
				}
			}
		}
	}
}

// checkRunEntries drives one topology's fault-free spec under its
// default strategy through RunSeeds, LoadSweep and RunSchedule. Seed
// replicas and sweeps run on every topology; a schedule runs where it
// replays and is rejected with one error elsewhere.
func checkRunEntries(t *testing.T, tp matrixTopo) {
	ts, _, bench, err := tp.build("", false, false)
	if err != nil {
		t.Fatal(err)
	}
	cfg := asyncnoc.RunConfig{
		Bench: bench, LoadGFs: 0.2, Seed: 5,
		Warmup:  100 * asyncnoc.Nanosecond,
		Measure: 300 * asyncnoc.Nanosecond,
		Drain:   300 * asyncnoc.Nanosecond,
	}
	rep, err := asyncnoc.RunSeeds(ts, cfg, []uint64{1, 2})
	if err != nil {
		t.Fatalf("RunSeeds: %v", err)
	}
	if rep.Seeds != 2 || rep.Network != ts.Name || rep.MeanCompletion == 0 {
		t.Errorf("RunSeeds: %+v", rep)
	}
	pts, err := asyncnoc.LoadSweep(ts, cfg, 2, 0.5)
	if err != nil {
		t.Fatalf("LoadSweep: %v", err)
	}
	if len(pts) != 2 || pts[0].Result.MeasuredPackets == 0 || pts[1].Result.LoadGFs <= pts[0].Result.LoadGFs {
		t.Errorf("LoadSweep: %+v", pts)
	}
	sched := asyncnoc.Schedule{
		{At: 0, Src: 0, Dests: asyncnoc.Dests(1, 2, 7)},
		{At: 400, Src: 3, Dests: asyncnoc.Dests(0)},
	}
	res, err := asyncnoc.RunSchedule(ts, sched, 1000*asyncnoc.Nanosecond)
	if !tp.replays {
		if err == nil || !strings.Contains(err.Error(), "chiplet composition") {
			t.Errorf("RunSchedule: got %v, want the chiplet rejection", err)
		}
		return
	}
	if err != nil {
		t.Fatalf("RunSchedule: %v", err)
	}
	if res.MeasuredPackets != len(sched) || res.Completion != 1 {
		t.Errorf("RunSchedule: %+v", res)
	}
}
