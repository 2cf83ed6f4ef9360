package network

import (
	"fmt"
	"testing"

	"asyncnoc/internal/chiplet"
	"asyncnoc/internal/node"
	"asyncnoc/internal/packet"
	"asyncnoc/internal/sim"
	"asyncnoc/internal/topology"
)

// The network-level sharding property: a sharded build of a chiplet
// composition driven by Group().RunUntil produces bit-identical traces,
// latency records, and energy accounting to the serial build of the same
// spec under the same injection schedule — including the exact
// floating-point meter state, which only holds if the barrier replay
// applies every effect in serial order.

// tinyRand is a deterministic PRNG local to this test.
type tinyRand uint64

func (x *tinyRand) next() uint64 {
	v := uint64(*x)
	v ^= v << 13
	v ^= v >> 7
	v ^= v << 17
	*x = tinyRand(v)
	return v
}

// shardTestInjector drives one source with a deterministic schedule of
// hierarchical multicast injections, mirroring core's injector shape:
// each event injects once and re-arms on the source's own scheduler.
// Most destinations are on the source's die; the rest cross the
// interposer.
type shardTestInjector struct {
	nw    *Network
	sched *sim.Scheduler
	src   int
	r     tinyRand
	until sim.Time
	byDie []packet.DestSet
}

func (in *shardTestInjector) OnEvent(int64) {
	if in.sched.Now() >= in.until {
		return
	}
	n, srcDie := in.nw.Spec.N, in.src/in.nw.Spec.N
	for picked := false; !picked; {
		for die := range in.byDie {
			in.byDie[die] = 0
			odds := uint64(16)
			if die == srcDie {
				odds = 3
			}
			for d := 0; d < n; d++ {
				if in.r.next()%odds == 0 {
					in.byDie[die] = in.byDie[die].Add(d)
					picked = true
				}
			}
		}
	}
	if err := in.nw.InjectWide(in.src, in.byDie); err != nil {
		panic(err)
	}
	in.sched.In(sim.Time(500+in.r.next()%2000), in, 0)
}

// armInjectors starts one shardTestInjector per source, injecting until
// the given time.
func armInjectors(nw *Network, until sim.Time) {
	for s := 0; s < nw.Spec.Terminals(); s++ {
		a := nw.actxFor(s)
		inj := &shardTestInjector{nw: nw, sched: a.sched, src: s, r: tinyRand(uint64(s)*2654435761 + 1),
			until: until, byDie: make([]packet.DestSet, nw.Spec.Dies())}
		a.sched.In(sim.Time(100+50*s), inj, 0)
	}
}

// driveWorkload attaches a trace collector and the per-source injectors,
// runs to the deadline, and returns the trace log.
func driveWorkload(t *testing.T, nw *Network, deadline sim.Time) []string {
	t.Helper()
	var log []string
	nw.Trace = func(ev TraceEvent) {
		log = append(log, fmt.Sprintf("%s t=%d tree=%d heap=%d ports=%d dest=%d pkt=%d idx=%d",
			ev.Kind, int64(ev.At), ev.Tree, ev.Heap, ev.Ports, ev.Dest, ev.Flit.Pkt.ID, ev.Flit.Index))
	}
	armInjectors(nw, deadline*3/4)
	if g := nw.Group(); g != nil {
		defer g.Close()
		g.RunUntil(deadline)
	} else {
		nw.Sched.RunUntil(deadline)
	}
	return log
}

// shardTestSpecs are two architectures composed as a 2x4 interposer of
// 4x4 dies: eight dies, so every shard count up to 8 partitions them.
func shardTestSpecs() []Spec {
	return []Spec{
		{Name: "Baseline", N: 4, PacketLen: 5, Serial: true, NonSpecKind: node.Baseline,
			Chiplet: chiplet.Default(2, 4)},
		{Name: "OptHybrid", N: 4, PacketLen: 5, Scheme: topology.Hybrid,
			SpecKind: node.OptSpec, NonSpecKind: node.OptNonSpec, Chiplet: chiplet.Default(2, 4)},
	}
}

func TestShardedNetworkMatchesSerial(t *testing.T) {
	const deadline = sim.Time(200_000)
	for _, spec := range shardTestSpecs() {
		serial, err := New(spec)
		if err != nil {
			t.Fatal(err)
		}
		wantLog := driveWorkload(t, serial, deadline)
		if len(wantLog) < 100 {
			t.Fatalf("%s: serial reference produced only %d trace events", spec.Name, len(wantLog))
		}
		if serial.Meter.D2DFlitHops() == 0 {
			t.Fatalf("%s: serial reference sent nothing across the interposer", spec.Name)
		}
		for _, k := range []int{2, 3, 4, 8} {
			t.Run(fmt.Sprintf("%s/shards=%d", spec.Name, k), func(t *testing.T) {
				nw, err := NewSharded(spec, k)
				if err != nil {
					t.Fatal(err)
				}
				gotLog := driveWorkload(t, nw, deadline)
				if len(gotLog) != len(wantLog) {
					t.Fatalf("trace length %d, serial %d", len(gotLog), len(wantLog))
				}
				for i := range gotLog {
					if gotLog[i] != wantLog[i] {
						t.Fatalf("trace diverges at event %d:\nsharded: %s\nserial:  %s",
							i, gotLog[i], wantLog[i])
					}
				}
				// Latency records bit-identical (ns floats, same order).
				wantLat, gotLat := serial.Rec.LatenciesNs(), nw.Rec.LatenciesNs()
				if len(gotLat) != len(wantLat) {
					t.Fatalf("%d latencies, serial %d", len(gotLat), len(wantLat))
				}
				for i := range gotLat {
					if gotLat[i] != wantLat[i] {
						t.Fatalf("latency %d: %v != serial %v", i, gotLat[i], wantLat[i])
					}
				}
				// Energy accumulation bit-identical: float adds replayed in
				// serial order sum to the same bits.
				gf, ga, gc, gi := nw.Meter.Counters()
				wf, wa, wc, wi := serial.Meter.Counters()
				if gf != wf || ga != wa || gc != wc || gi != wi {
					t.Fatalf("meter counters (%d %d %d %d), serial (%d %d %d %d)",
						gf, ga, gc, gi, wf, wa, wc, wi)
				}
				if got, want := nw.Meter.EnergyPJ(), serial.Meter.EnergyPJ(); got != want {
					t.Fatalf("energy %v pJ, serial %v pJ", got, want)
				}
				// Packet IDs were assigned in serial injection order.
				if nw.nextID != serial.nextID {
					t.Fatalf("nextID %d, serial %d", nw.nextID, serial.nextID)
				}
				// Pool conservation holds per shard context.
				for _, p := range nw.freePackets() {
					if p.Refs != 0 {
						t.Fatalf("freelisted packet %d with refcount %d", p.ID, p.Refs)
					}
				}
			})
		}
	}
}

// TestD2DInflightDrains: a composition drained to an empty event queue
// leaves no die-to-die leg behind, serial and sharded — every slot a
// departure takes in its gateway's inflight slab is freed by the leg's
// arrival, whichever shard runs it.
func TestD2DInflightDrains(t *testing.T) {
	const until = sim.Time(300_000)
	for _, spec := range shardTestSpecs() {
		for _, k := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/shards=%d", spec.Name, k), func(t *testing.T) {
				var nw *Network
				var err error
				if k == 1 {
					nw, err = New(spec)
				} else {
					nw, err = NewSharded(spec, k)
				}
				if err != nil {
					t.Fatal(err)
				}
				armInjectors(nw, until)
				run, pending := nw.Sched.RunUntil, nw.Sched.Len
				if g := nw.Group(); g != nil {
					defer g.Close()
					run, pending = g.RunUntil, g.Len
				}
				at := until
				for ; pending() != 0 && at < 100*until; at += until {
					run(at)
				}
				if pending() != 0 {
					t.Fatalf("%d events still queued at %v", pending(), at)
				}
				if nw.Meter.D2DFlitHops() == 0 {
					t.Fatal("nothing crossed the interposer")
				}
				for die := range nw.egress {
					eg := &nw.egress[die]
					if eg.queue.Len() != 0 || eg.inflight.Live() != 0 || eg.busy {
						t.Errorf("die %d gateway: %d queued, %d in flight, busy %v after draining",
							die, eg.queue.Len(), eg.inflight.Live(), eg.busy)
					}
				}
			})
		}
	}
}

func TestNewShardedRejectsBadConfigs(t *testing.T) {
	spec := shardTestSpecs()[1]
	if _, err := NewSharded(spec, 1); err == nil {
		t.Fatal("shard count 1 accepted")
	}
	if _, err := NewSharded(spec, spec.Dies()+1); err == nil {
		t.Fatal("shard count > Dies accepted")
	}
	single := spec
	single.Chiplet = nil
	if _, err := NewSharded(single, 2); err == nil {
		t.Fatal("single-die spec accepted")
	}
	faulty := spec
	faulty.Faults.CorruptRate = 0.5
	faulty.Faults.Seed = 1
	if _, err := NewSharded(faulty, 2); err == nil {
		t.Fatal("fault-enabled spec accepted")
	}
}
