package core

import (
	"runtime"
	"testing"

	"asyncnoc/internal/chiplet"
	"asyncnoc/internal/fault"
	"asyncnoc/internal/network"
	"asyncnoc/internal/sim"
	"asyncnoc/internal/traffic"
)

// TestSteadyStateAllocSoak is the pooled memory model's soak guarantee: a
// long run allocates only while the per-run pools grow to their
// high-water marks, so the second half of the run must be close to
// allocation-free. The bound is loose enough for a late ring or slab
// doubling but orders of magnitude below per-packet allocation (the
// second half injects tens of thousands of packets). The +faults
// subtests hold fault runs, whose corrupt and dropped flits are
// retransmitted, to the same bound, and the composition subtests a 2x2
// chiplet system of 8x8 dies under the wide benchmarks, whose
// die-to-die legs cross the interposer. Skipped with -short.
func TestSteadyStateAllocSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc soak skipped with -short")
	}
	var specs []network.Spec
	for _, spec := range AllSpecs(8) {
		specs = append(specs, spec)
		spec.Name += "+faults"
		spec.Faults = fault.Config{Seed: 1, CorruptRate: 1e-3, DropRate: 1e-3}
		specs = append(specs, spec)
	}
	cfg := RunConfig{
		Bench: traffic.Multicast{N: 8, Frac: 0.10}, LoadGFs: 0.25, Seed: 1,
		Warmup: 320 * sim.Nanosecond, Measure: 25600 * sim.Nanosecond,
		Drain: 800 * sim.Nanosecond,
	}
	for _, spec := range specs {
		t.Run(spec.Name, func(t *testing.T) { soakSecondHalf(t, spec, cfg) })
	}
	p := chiplet.Default(2, 2)
	composed := WithChiplet(OptHybridSpeculative(8), p)
	for _, name := range []string{"UniformRandom", "Multicast10"} {
		t.Run(composed.Name+"/"+name, func(t *testing.T) {
			b, err := chiplet.ByName(p, 8, name)
			if err != nil {
				t.Fatal(err)
			}
			wide := cfg
			wide.Bench, wide.LoadGFs = b, 0.2
			soakSecondHalf(t, composed, wide)
		})
	}
}

// soakSecondHalf builds spec for cfg, runs the first half of its span,
// and fails when the second half allocates more than 500 times.
func soakSecondHalf(t *testing.T, spec network.Spec, cfg RunConfig) {
	nw, err := Build(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	total := cfg.Warmup + cfg.Measure + cfg.Drain
	nw.Sched.RunUntil(total / 2)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	nw.Sched.RunUntil(total)
	runtime.ReadMemStats(&after)
	if delta := after.Mallocs - before.Mallocs; delta > 500 {
		t.Errorf("%s: %d allocations in the second half of the run, want ~0", spec.Name, delta)
	}
}

// TestTrackingMemoryIndependentOfSpan: per-packet delivery tracking
// grows to the run's in-flight high-water mark, not to its span, so
// building the same network for a 10x longer measurement window may
// allocate only the larger latency buffer up front — 8 bytes per extra
// expected measured packet, with the injector's 9/8 headroom.
func TestTrackingMemoryIndependentOfSpan(t *testing.T) {
	spec := AllSpecs(8)[len(AllSpecs(8))-1]
	short := RunConfig{
		Bench: traffic.Multicast{N: 8, Frac: 0.10}, LoadGFs: 0.25, Seed: 1,
		Warmup: 320 * sim.Nanosecond, Measure: 3200 * sim.Nanosecond,
		Drain: 800 * sim.Nanosecond,
	}
	long := short
	long.Measure *= 10
	built := func(cfg RunConfig) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		nw, err := Build(spec, cfg)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		runtime.KeepAlive(nw)
		return after.TotalAlloc - before.TotalAlloc
	}
	built(short) // first use initializes package-level tables
	base, grown := built(short), built(long)
	meanGapPs := float64(spec.PacketLen) / short.LoadGFs * 1000
	extraPackets := float64(long.Measure-short.Measure) / meanGapPs * float64(spec.N) * 9 / 8
	// The slack covers size-class and page rounding of the buffer.
	limit := uint64(8*extraPackets) + 16<<10
	if grown > base+limit {
		t.Errorf("%s: Build allocated %d B for Measure %v and %d B for %v; the longer window may add at most %d B",
			spec.Name, base, short.Measure, grown, long.Measure, limit)
	}
}
