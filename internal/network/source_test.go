package network

import (
	"fmt"
	"testing"

	"asyncnoc/internal/packet"
	"asyncnoc/internal/rng"
	"asyncnoc/internal/sim"
	"asyncnoc/internal/traffic"
)

// injectPoisson arms one Poisson injection process per source of nw at
// load GF/s per source, each drawing bench's destinations, that stops
// injecting at until.
func injectPoisson(t *testing.T, nw *Network, bench traffic.Benchmark, load float64, until sim.Time) {
	meanPs := float64(nw.Spec.PacketLen) / load * 1000
	for src := 0; src < nw.Spec.N; src++ {
		r := rng.New(uint64(2016 + src))
		var next func()
		next = func() {
			if at := nw.Sched.Now() + sim.Time(r.Exp(meanPs)) + 1; at < until {
				nw.Sched.Schedule(at, func() {
					if _, err := nw.Inject(src, bench.NextDests(src, r)); err != nil {
						t.Errorf("inject: %v", err)
					}
					next()
				})
			}
		}
		next()
	}
}

// TestSourceQueueHoldsPacketAttempts runs 8x8 Baseline under
// Multicast10 at three times its saturation load (1.29 GF/s at paper
// scale), and under a fault schedule whose 30 ns timeout retransmits,
// and stops injecting mid-run. The backlog each source holds then must
// be exactly what it sends afterwards: its queue has one entry per
// queued packet attempt, SourceQueueLen counts the flits still to send,
// and StuckFlits lists each of them, in order, as the flit the source
// later puts on its root channel, attempt included. It also requires
// BenchmarkNITransaction to stay allocation-free.
func TestSourceQueueHoldsPacketAttempts(t *testing.T) {
	mc10 := traffic.Multicast{N: 8, Frac: 0.10}
	cases := []struct {
		spec Spec
		load float64
	}{
		{baselineSpec(8), 3 * 1.29},
		{withFaults(baselineSpec(8), "writeoff", poolWriteOff), 1.29},
	}
	for _, c := range cases {
		t.Run(c.spec.Name, func(t *testing.T) {
			nw, err := New(c.spec)
			if err != nil {
				t.Fatal(err)
			}
			nw.Rec.SetWindow(0, 1<<62)
			stop := 300 * sim.Nanosecond
			injectPoisson(t, nw, mc10, c.load, stop)
			nw.Sched.RunUntil(stop)

			// Snapshot every source's backlog as the queue holds it.
			terms := nw.Spec.Terminals()
			entries := make([][]queuedAttempt, terms)
			next := make([]int, terms)
			queued := make([]int, terms)
			lines := make([][]StuckFlit, terms)
			for s := range nw.sources {
				ni := &nw.sources[s]
				for i := 0; i < ni.queue.Len(); i++ {
					entries[s] = append(entries[s], ni.queue.At(i))
				}
				next[s], queued[s] = ni.next, nw.SourceQueueLen(s)
			}
			for _, sf := range nw.StuckFlits() {
				var s int
				if _, err := fmt.Sscanf(sf.Where, "source %d queue", &s); err == nil {
					lines[s] = append(lines[s], sf)
				}
			}

			// Record every flit each source sends from here on.
			sent := make([][]packet.Flit, terms)
			for s := range nw.sources {
				ch := nw.sources[s].out
				ch.Hooks = traverseTap{ch.Hooks, func(f packet.Flit) { sent[s] = append(sent[s], f) }}
			}
			nw.Sched.Run()

			totalEntries, totalFlits, retried := 0, 0, 0
			for s := range nw.sources {
				// The flits the entries hold, from the head's cursor on.
				var want []packet.Flit
				for k, e := range entries[s] {
					from := 0
					if k == 0 {
						from = next[s]
					}
					for i := from; i < e.pkt.Length; i++ {
						want = append(want, packet.Flit{Pkt: e.pkt, Index: int32(i), Attempt: e.attempt})
					}
					if e.attempt > 0 {
						retried++
					}
				}
				if queued[s] != len(want) || len(lines[s]) != len(want) || len(sent[s]) < len(want) {
					t.Fatalf("source %d: SourceQueueLen %d, %d StuckFlits lines and %d entries holding %d flits; %d flits sent after",
						s, queued[s], len(lines[s]), len(entries[s]), len(want), len(sent[s]))
				}
				attempts := 0
				for i, w := range want {
					f := sent[s][i]
					if f.Pkt != w.Pkt || f.Index != w.Index || f.Attempt != w.Attempt {
						t.Fatalf("source %d: queued flit %d is %v attempt %d, but the source sent %v attempt %d",
							s, i, w, w.Attempt, f, f.Attempt)
					}
					if line := (StuckFlit{Where: fmt.Sprintf("source %d queue", s), Flit: f.String()}); lines[s][i] != line {
						t.Fatalf("source %d: StuckFlits line %d is %+v, want %+v", s, i, lines[s][i], line)
					}
					if i == 0 || f.Pkt != sent[s][i-1].Pkt || f.Attempt != sent[s][i-1].Attempt {
						attempts++
					}
				}
				if attempts != len(entries[s]) {
					t.Fatalf("source %d: %d queue entries for %d queued packet attempts", s, len(entries[s]), attempts)
				}
				// Whatever the source sent later was queued later: a retransmission.
				for _, f := range sent[s][len(want):] {
					if nw.inj == nil {
						t.Fatalf("source %d sent %v, which was never queued", s, f)
					}
					for _, e := range entries[s] {
						if f.Pkt == e.pkt && f.Attempt == e.attempt {
							t.Fatalf("source %d sent %v attempt %d after its queued flits", s, f, f.Attempt)
						}
					}
				}
				totalEntries += len(entries[s])
				totalFlits += len(want)
			}
			t.Logf("%d flits queued in %d entries, %d of them retransmissions", totalFlits, totalEntries, retried)
			if totalEntries == 0 || totalFlits <= 2*totalEntries {
				t.Errorf("%d flits in %d entries: the run did not build a backlog of whole packets", totalFlits, totalEntries)
			}
			if nw.inj != nil && retried == 0 {
				t.Error("no retransmission was queued")
			}
		})
	}
	if n := testing.Benchmark(BenchmarkNITransaction).AllocsPerOp(); n != 0 {
		t.Errorf("BenchmarkNITransaction: %d allocs/op, want 0", n)
	}
}
