package analytic

import (
	"testing"

	"asyncnoc/internal/core"
	"asyncnoc/internal/network"
	"asyncnoc/internal/packet"
	"asyncnoc/internal/sim"
	"asyncnoc/internal/timing"
	"asyncnoc/internal/traffic"
)

// simHeaderLatency runs one quiet unicast and returns the exact header
// flight time observed by the simulator.
func simHeaderLatency(t *testing.T, spec network.Spec, src, dest int) sim.Time {
	t.Helper()
	nw, err := network.New(spec)
	if err != nil {
		t.Fatal(err)
	}
	nw.Rec.SetWindow(0, 1<<62)
	var delivered sim.Time = -1
	nw.Trace = func(ev network.TraceEvent) {
		if ev.Kind == network.TraceDeliver && ev.Flit.IsHeader() {
			delivered = ev.At
		}
	}
	if _, err := nw.Inject(src, packet.Dest(dest)); err != nil {
		t.Fatal(err)
	}
	nw.Sched.Run()
	if delivered < 0 {
		t.Fatal("header never delivered")
	}
	return delivered
}

// TestZeroLoadExact is the end-to-end timing-fidelity check: for every
// architecture and several (src, dest) pairs, the simulated quiet-network
// header latency equals the analytic sum of netlist paths to the
// picosecond.
func TestZeroLoadExact(t *testing.T) {
	pairs := [][2]int{{0, 0}, {0, 7}, {3, 4}, {5, 2}, {7, 7}}
	for _, spec := range core.AllSpecs(8) {
		for _, pr := range pairs {
			want, err := ZeroLoadLatency(spec, pr[0], pr[1])
			if err != nil {
				t.Fatal(err)
			}
			got := simHeaderLatency(t, spec, pr[0], pr[1])
			if got != want {
				t.Errorf("%s %d->%d: sim %v, analytic %v", spec.Name, pr[0], pr[1], got, want)
			}
		}
	}
}

func TestZeroLoadExact16(t *testing.T) {
	spec := core.OptHybridSpeculative(16)
	want, err := ZeroLoadLatency(spec, 2, 13)
	if err != nil {
		t.Fatal(err)
	}
	if got := simHeaderLatency(t, spec, 2, 13); got != want {
		t.Errorf("16x16: sim %v, analytic %v", got, want)
	}
}

func TestZeroLoadSyncAndFourPhase(t *testing.T) {
	syncSpec := core.Synchronous(core.BasicNonSpeculative(8))
	want, err := ZeroLoadLatency(syncSpec, 1, 6)
	if err != nil {
		t.Fatal(err)
	}
	if got := simHeaderLatency(t, syncSpec, 1, 6); got != want {
		t.Errorf("sync: sim %v, analytic %v", got, want)
	}
	fourSpec := core.OptHybridSpeculative(8)
	fourSpec.Protocol = timing.FourPhase
	want, err = ZeroLoadLatency(fourSpec, 1, 6)
	if err != nil {
		t.Fatal(err)
	}
	if got := simHeaderLatency(t, fourSpec, 1, 6); got != want {
		t.Errorf("four-phase: sim %v, analytic %v", got, want)
	}
}

func TestZeroLoadValidation(t *testing.T) {
	if _, err := ZeroLoadLatency(core.Baseline(8), -1, 0); err == nil {
		t.Error("negative src accepted")
	}
	if _, err := ZeroLoadLatency(core.Baseline(8), 0, 8); err == nil {
		t.Error("out-of-range dest accepted")
	}
}

func TestStageCycles(t *testing.T) {
	stages, err := StageCycles(core.Baseline(8))
	if err != nil {
		t.Fatal(err)
	}
	// 3 fanout levels + fanin.
	if len(stages) != 4 {
		t.Fatalf("%d stages, want 4", len(stages))
	}
	// Baseline root: 263 fwd + 106 ack + 100 wire + 60 NI = 529.
	if stages[0].HeaderPs != 529 {
		t.Errorf("root stage %v ps, want 529", stages[0].HeaderPs)
	}
	// Fanin: 190 + 106 + 100 = 396.
	if stages[3].HeaderPs != 396 {
		t.Errorf("fanin stage %v ps, want 396", stages[3].HeaderPs)
	}
	// Packet averaging: uniform-class stages average to themselves.
	if stages[0].PacketAvgPs(5) != 529 {
		t.Errorf("uniform stage average %v", stages[0].PacketAvgPs(5))
	}
	// Opt non-speculative mixes header and body classes.
	opt, err := StageCycles(core.OptNonSpeculative(8))
	if err != nil {
		t.Fatal(err)
	}
	if opt[1].HeaderPs == opt[1].BodyPs {
		t.Error("opt non-speculative stage has no body fast path")
	}
}

// TestCapacityBoundsSaturation anchors the simulator's contention-free
// saturation (Shuffle) against the analytic ceiling: measured saturation
// must not exceed capacity, and must reach a reasonable fraction of it
// (the latency-divergence criterion triggers below the hard ceiling).
func TestCapacityBoundsSaturation(t *testing.T) {
	if testing.Short() {
		t.Skip("saturation search is slow")
	}
	for _, spec := range []network.Spec{core.Baseline(8), core.OptHybridSpeculative(8)} {
		cap, err := CapacityGFs(spec)
		if err != nil {
			t.Fatal(err)
		}
		sat, err := core.NewEngine(0).Saturation(spec, core.SatConfig{
			Base: core.RunConfig{
				Bench: traffic.Shuffle{N: 8}, Seed: 5,
				Warmup: 100 * sim.Nanosecond, Measure: 400 * sim.Nanosecond, Drain: 300 * sim.Nanosecond,
			},
			Iters: 6,
		})
		if err != nil {
			t.Fatal(err)
		}
		if sat.SatLoadGFs > cap*1.02 {
			t.Errorf("%s: measured saturation %.3f exceeds analytic capacity %.3f",
				spec.Name, sat.SatLoadGFs, cap)
		}
		if sat.SatLoadGFs < cap*0.5 {
			t.Errorf("%s: measured saturation %.3f far below capacity %.3f",
				spec.Name, sat.SatLoadGFs, cap)
		}
	}
}
