package network

import (
	"testing"

	"asyncnoc/internal/packet"
)

// BenchmarkNITransaction pins the pooled NI hot path at zero steady-state
// allocations: one op is a complete transaction — inject a unicast,
// queue it at its source, send its flits, traverse the fabric, and
// deliver/recycle at the sink. The warmup loop grows every pool (packet
// freelist, source rings, recorder slab) to its high-water mark; after
// ResetTimer the run must not touch the heap (gated at 0 allocs/op by
// bench/baseline.json). It also reports events/op, the kernel dispatches
// one transaction costs, and ns/event, so a change in ns/op splits into
// more events versus slower events.
func BenchmarkNITransaction(b *testing.B) {
	nw, err := New(optHybrid(8))
	if err != nil {
		b.Fatal(err)
	}
	// An empty measurement window keeps the recorder's latency samples
	// out of the loop; delivery tracking itself still runs in full.
	nw.Rec.SetWindow(0, 0)
	for s := 0; s < 8; s++ {
		if _, err := nw.Inject(s, packet.Dests(1, 4, 7)); err != nil {
			b.Fatal(err)
		}
		nw.Sched.Run()
	}
	b.ReportAllocs()
	b.ResetTimer()
	ev0 := nw.Sched.Executed()
	for i := 0; i < b.N; i++ {
		if _, err := nw.Inject(i%8, packet.Dest(7)); err != nil {
			b.Fatal(err)
		}
		nw.Sched.Run()
	}
	events := float64(nw.Sched.Executed() - ev0)
	b.ReportMetric(events/float64(b.N), "events/op")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/events, "ns/event")
}

// benchStrategy pins a routing scheme's full multicast hot path — plan,
// clone expansion, fabric traversal, delivery, recycle — and, like the
// NI transaction above, must stay allocation-free at steady state (gated
// by bench/baseline.json).
func benchStrategy(b *testing.B, strat string) {
	spec := optHybrid(8)
	spec.Strategy = strat
	nw, err := New(spec)
	if err != nil {
		b.Fatal(err)
	}
	nw.Rec.SetWindow(0, 0)
	dests := packet.Dests(0, 2, 5, 7)
	for s := 0; s < 8; s++ {
		if _, err := nw.Inject(s, dests); err != nil {
			b.Fatal(err)
		}
		nw.Sched.Run()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := nw.Inject(i%8, dests); err != nil {
			b.Fatal(err)
		}
		nw.Sched.Run()
	}
}

func BenchmarkStrategyPathBased(b *testing.B) { benchStrategy(b, "PathBased") }

func BenchmarkStrategyDPM(b *testing.B) { benchStrategy(b, "DPM") }
