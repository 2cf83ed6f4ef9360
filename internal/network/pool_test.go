package network

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"asyncnoc/internal/fault"
	"asyncnoc/internal/packet"
	"asyncnoc/internal/routing"
	"asyncnoc/internal/sim"
)

// Fault schedules of the pool tests. poolRecovering stays within the
// default retry budget, so corrupt and dropped flits are recovered by
// retransmission; poolWriteOff adds jitter and a one-retry budget with a
// 30 ns timeout, which the workload's congestion outlasts, so packets are
// retransmitted while their first copies are still in flight and written
// off while copies of their last attempt are.
var (
	poolRecovering = fault.Config{Seed: 5, CorruptRate: 1e-2, DropRate: 1e-2}
	poolWriteOff   = fault.Config{Seed: 9, CorruptRate: 1e-2, DropRate: 1e-2, JitterRate: 1e-2,
		MaxRetries: 1, RetryTimeoutPs: 30000}
)

// withFaults returns spec under the fault schedule cfg, named by tag.
func withFaults(spec Spec, tag string, cfg fault.Config) Spec {
	spec.Name += "+" + tag
	spec.Faults = cfg
	return spec
}

// runPoolWorkload drives one seeded random workload (unicast and
// multicast, staggered injection times) through a fresh network and
// returns it with the rendered trace log and every packet pointer the
// trace saw.
func runPoolWorkload(t *testing.T, spec Spec) (*Network, []string, map[*packet.Packet]bool) {
	t.Helper()
	nw, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	nw.Rec.SetWindow(0, 1<<62)
	var log []string
	seen := make(map[*packet.Packet]bool)
	nw.Trace = func(ev TraceEvent) {
		seen[ev.Flit.Pkt] = true
		log = append(log, fmt.Sprintf("%s@%d pkt%d[%d]a%d n%d/%d p%d d%d",
			ev.Kind, ev.At, ev.Flit.Pkt.ID, ev.Flit.Index, ev.Flit.Attempt, ev.Tree, ev.Heap, ev.Ports, ev.Dest))
	}
	r := rand.New(rand.NewSource(7))
	at := sim.Time(0)
	for i := 0; i < 200; i++ {
		at += sim.Time(r.Intn(2000))
		src := r.Intn(spec.N)
		var dests packet.DestSet
		for dests.Empty() {
			dests = packet.DestSet(r.Uint64() & (1<<uint(spec.N) - 1))
		}
		s, d := src, dests
		nw.Sched.Schedule(at, func() {
			if _, err := nw.Inject(s, d); err != nil {
				t.Errorf("inject: %v", err)
			}
		})
	}
	nw.Sched.Run()
	if tracked := nw.Rec.TrackedPackets(); tracked != 0 {
		t.Errorf("%s: %d packets still tracked after quiescence", spec.Name, tracked)
	}
	return nw, log, seen
}

// checkTraceDigest compares the SHA-256 of a pooled run's trace with the
// digest of the same workload's trace from a reference run without
// packet recycling, recorded before the pool served fault runs (which
// then always allocated fresh packets).
func checkTraceDigest(t *testing.T, spec Spec, want map[string]string) {
	t.Helper()
	_, log, _ := runPoolWorkload(t, spec)
	sum := sha256.Sum256([]byte(strings.Join(log, "\n")))
	if got := hex.EncodeToString(sum[:]); got != want[spec.Name] {
		t.Errorf("%s: trace digest %s over %d events, want %s", spec.Name, got, len(log), want[spec.Name])
	}
}

// poolTraceDigests are the unpooled reference traces of the specs of
// TestPoolingTraceEquivalence.
var poolTraceDigests = map[string]string{
	"Baseline":                          "2eb9409f19216a823dfc40693b56ed95b05ab5e39eaa9bd4cca19ec00fabe15e",
	"Baseline+recovering":               "451a26cb156f1137f88be784803ac6351b451f60b3fe5999de2a8f526a2383f0",
	"Baseline+writeoff":                 "118203b93fb72e4e28c41b885a45f6a6bc61b282a7c670f2ad100b289d9d0bb6",
	"BasicHybridSpeculative":            "826af5106dc22339afec178abfb00741276c1409996202ee0fbdcd859fb1e7d4",
	"BasicHybridSpeculative+recovering": "d997cad0e1b2d113745d9a313d0e3f8de5b90f07e22c1dba0508e658b2229893",
	"BasicHybridSpeculative+writeoff":   "00acbe34419e9dac81aa8385f2018c259b7f896a97968dab7edd64c420754f97",
	"OptHybridSpeculative":              "7a7c3e6ad0472968d5523764f9b2c529eddc3544c1e2866ca08f92158fe8a675",
	"OptHybridSpeculative+recovering":   "993e5e74c7190593e2e1ac2f5c859cbfd98a73f60e18f9531d6178da7e656fea",
	"OptHybridSpeculative+writeoff":     "2ba2c9cc17599016352a7897f503b2f1bb9f80fdb47385d4954c0b419b831913",
}

// TestPoolingTraceEquivalence requires each pooled run's trace to be
// byte-identical to an unpooled reference run of the same workload:
// recycling a packet must never change what the simulation observably
// does. Run under -race this also guards use-after-release — a packet
// recycled while a live flit, channel or retransmission tracker still
// referenced it would render wrong IDs or routes into the trace.
func TestPoolingTraceEquivalence(t *testing.T) {
	for _, base := range []Spec{baselineSpec(8), basicHybrid(8), optHybrid(8)} {
		for _, spec := range []Spec{base, withFaults(base, "recovering", poolRecovering), withFaults(base, "writeoff", poolWriteOff)} {
			checkTraceDigest(t, spec, poolTraceDigests)
		}
	}
}

// poolStrategyDigests are the unpooled reference traces of the specs of
// TestPoolingTraceEquivalenceStrategies.
var poolStrategyDigests = map[string]string{
	"Baseline+SerialUnicast":                             "2eb9409f19216a823dfc40693b56ed95b05ab5e39eaa9bd4cca19ec00fabe15e",
	"Baseline+SerialUnicast+writeoff":                    "118203b93fb72e4e28c41b885a45f6a6bc61b282a7c670f2ad100b289d9d0bb6",
	"Baseline+TreeMulticast":                             "2eb9409f19216a823dfc40693b56ed95b05ab5e39eaa9bd4cca19ec00fabe15e",
	"Baseline+TreeMulticast+writeoff":                    "118203b93fb72e4e28c41b885a45f6a6bc61b282a7c670f2ad100b289d9d0bb6",
	"Baseline+SpeculativeMulticast":                      "2eb9409f19216a823dfc40693b56ed95b05ab5e39eaa9bd4cca19ec00fabe15e",
	"Baseline+SpeculativeMulticast+writeoff":             "118203b93fb72e4e28c41b885a45f6a6bc61b282a7c670f2ad100b289d9d0bb6",
	"Baseline+PathBased":                                 "7772e38514c1b3590489cedef47bdb358061d7643ca9b0d2fe9fbb80511869ab",
	"Baseline+PathBased+writeoff":                        "61560a4f3bdd13a7548c36e720471f776dc2438ff5309eceb66aa7f46e77886c",
	"Baseline+DPM":                                       "2eb9409f19216a823dfc40693b56ed95b05ab5e39eaa9bd4cca19ec00fabe15e",
	"Baseline+DPM+writeoff":                              "118203b93fb72e4e28c41b885a45f6a6bc61b282a7c670f2ad100b289d9d0bb6",
	"OptHybridSpeculative+SerialUnicast":                 "2f500274f5ae7be7de7e4e447fd034e3719d65f8e0d4e5ee56607f786e427025",
	"OptHybridSpeculative+SerialUnicast+writeoff":        "139eadab1cf0c23cce414a51952d88ea72288d6258bc035cb7446fcec4131795",
	"OptHybridSpeculative+TreeMulticast":                 "7a7c3e6ad0472968d5523764f9b2c529eddc3544c1e2866ca08f92158fe8a675",
	"OptHybridSpeculative+TreeMulticast+writeoff":        "2ba2c9cc17599016352a7897f503b2f1bb9f80fdb47385d4954c0b419b831913",
	"OptHybridSpeculative+SpeculativeMulticast":          "7a7c3e6ad0472968d5523764f9b2c529eddc3544c1e2866ca08f92158fe8a675",
	"OptHybridSpeculative+SpeculativeMulticast+writeoff": "2ba2c9cc17599016352a7897f503b2f1bb9f80fdb47385d4954c0b419b831913",
	"OptHybridSpeculative+PathBased":                     "8d6a205cd780b044858801f4d411df407bd3938d740155b5e6b3d5fab46ee953",
	"OptHybridSpeculative+PathBased+writeoff":            "68943d25dcec6c9f7e2755321c4a0c501e2bb60cfa6f7a925d12668f883a2155",
	"OptHybridSpeculative+DPM":                           "7a7c3e6ad0472968d5523764f9b2c529eddc3544c1e2866ca08f92158fe8a675",
	"OptHybridSpeculative+DPM+writeoff":                  "2ba2c9cc17599016352a7897f503b2f1bb9f80fdb47385d4954c0b419b831913",
}

// TestPoolingTraceEquivalenceStrategies extends the trace equivalence over
// every routing strategy: the multi-plan clone expansions (path-based
// dual packets, DPM partitions, cross-fabric serial unicasts) must
// recycle packets without observable effect, also when clones are
// retransmitted and written off.
func TestPoolingTraceEquivalenceStrategies(t *testing.T) {
	for _, base := range []Spec{baselineSpec(8), optHybrid(8)} {
		for _, strat := range routing.StrategyNames() {
			spec := base
			spec.Strategy = strat
			spec.Name = base.Name + "+" + strat
			checkTraceDigest(t, spec, poolStrategyDigests)
			checkTraceDigest(t, withFaults(spec, "writeoff", poolWriteOff), poolStrategyDigests)
		}
	}
}

// TestPacketPoolConservation checks the refcount bookkeeping after a
// quiesced run: every freelisted packet has a zero refcount, no packet
// was released twice (a double release would enqueue the same pointer
// twice), every packet the trace saw is back on a freelist (a copy that
// never released — say a dropped flit — would leave its packet live),
// and the freelist high-water mark is below the number of packets
// injected (far below without faults) — proof that recycling actually
// happened. The fault rows recover corrupt and dropped flits, and the
// write-off rows also write packets off.
func TestPacketPoolConservation(t *testing.T) {
	for _, spec := range []Spec{
		baselineSpec(8), optHybrid(8),
		withFaults(baselineSpec(8), "recovering", poolRecovering),
		withFaults(optHybrid(8), "recovering", poolRecovering),
		withFaults(baselineSpec(8), "writeoff", poolWriteOff),
		withFaults(optHybrid(8), "writeoff", poolWriteOff),
	} {
		nw, _, seen := runPoolWorkload(t, spec)
		free := make(map[*packet.Packet]bool)
		for _, p := range nw.freePackets() {
			if p.Refs != 0 {
				t.Errorf("%s: freelisted packet with refcount %d", spec.Name, p.Refs)
			}
			if free[p] {
				t.Errorf("%s: packet released twice", spec.Name)
			}
			free[p] = true
		}
		live := 0
		for p := range seen {
			if !free[p] {
				live++
			}
		}
		if live > 0 {
			t.Errorf("%s: %d of %d traced packets never returned to a freelist", spec.Name, live, len(seen))
		}
		// Fault rows hold every packet until its end-to-end acknowledge or
		// write-off, so most of this short workload is live at once.
		allocated, created, bound := len(free), int(nw.nextID), int(nw.nextID)/2
		if spec.Faults.Enabled() {
			bound = created
		}
		if allocated == 0 || allocated >= bound {
			t.Errorf("%s: %d heap packets for %d created — pool not recycling", spec.Name, allocated, created)
		}
		if fs := nw.FaultStats(); fs != nil {
			t.Logf("%s: %d dropped, %d corrupted, %d retries, %d flits recovered, %d packets (%d flits) lost",
				spec.Name, fs.Dropped, fs.Corrupted, fs.Retries, fs.RecoveredFlits, fs.LostPackets, fs.LostFlits)
			if fs.RecoveredFlits == 0 {
				t.Errorf("%s: no flit recovered; the row exercises no retransmission", spec.Name)
			}
			if spec.Faults.MaxRetries > 0 && fs.LostPackets == 0 {
				t.Errorf("%s: no packet written off", spec.Name)
			}
		}
	}
}

// TestTxSlabRecycling exercises the fault-mode NI transaction slabs with
// a fault rate too small to ever fire: the full tracking/ack protocol
// runs, every tx slot must recycle by end of run, and stale handles from
// completed packets must not alias later occupants (generation counters —
// a violation would surface as a wrong-destination confirm and a
// tracked-packet leak).
func TestTxSlabRecycling(t *testing.T) {
	spec := optHybrid(8)
	spec.Faults = fault.Config{Seed: 1, CorruptRate: 1e-300}
	nw, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	nw.Rec.SetWindow(0, 1<<62)
	r := rand.New(rand.NewSource(3))
	at := sim.Time(0)
	for i := 0; i < 150; i++ {
		at += sim.Time(r.Intn(3000))
		src := r.Intn(8)
		var dests packet.DestSet
		for dests.Empty() {
			dests = packet.DestSet(r.Uint64() & 0xff)
		}
		s, d := src, dests
		nw.Sched.Schedule(at, func() {
			if _, err := nw.Inject(s, d); err != nil {
				t.Errorf("inject: %v", err)
			}
		})
	}
	nw.Sched.Run()
	if fs := nw.FaultStats(); fs.LostPackets != 0 || fs.Retries != 0 {
		t.Fatalf("unexpected faults fired: %+v", *fs)
	}
	for src, ni := range nw.sources {
		if live := ni.txSlab.Live(); live != 0 {
			t.Errorf("source %d: %d tx slots still live after quiescence", src, live)
		}
	}
	if tracked := nw.Rec.TrackedPackets(); tracked != 0 {
		t.Errorf("%d packets still tracked after quiescence", tracked)
	}
}

// TestRxDedupBounded drives 5,000 packets through an 8x8 OptHybrid
// network at corrupt+drop 1e-3 and samples the sinks' receive-dedup
// state at every injection: it may hold entries only for the
// destinations of packets still referenced, and none once the run
// quiesces. Entries that outlived their packet would grow with the run
// (thousands of them by its end).
func TestRxDedupBounded(t *testing.T) {
	spec := optHybrid(8)
	spec.Faults = fault.Config{Seed: 3, CorruptRate: 1e-3, DropRate: 1e-3}
	nw, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	nw.Rec.SetWindow(0, 1<<62)
	seen := make(map[*packet.Packet]bool)
	nw.Trace = func(ev TraceEvent) { seen[ev.Flit.Pkt] = true }
	entries := func() int {
		n := 0
		for _, ni := range nw.sinks {
			if ni.rxIdx.Len() != ni.rxGot.Live() {
				t.Fatalf("sink %d: %d indexed entries, %d slab slots", ni.dest, ni.rxIdx.Len(), ni.rxGot.Live())
			}
			n += ni.rxIdx.Len()
		}
		return n
	}
	peak := 0
	r := rand.New(rand.NewSource(11))
	at := sim.Time(0)
	for i := 0; i < 5000; i++ {
		at += sim.Time(r.Intn(1000))
		src := r.Intn(8)
		dests := packet.Dest(r.Intn(8))
		if r.Intn(10) == 0 {
			dests = packet.DestSet(r.Uint64()&0xff) | dests
		}
		nw.Sched.Schedule(at, func() {
			live := 0
			for p := range seen {
				if p.Refs > 0 {
					live += p.Dests.Count()
				}
			}
			if n := entries(); n > live {
				t.Fatalf("%d dedup entries for %d live (packet, destination) pairs", n, live)
			} else if n > peak {
				peak = n
			}
			if _, err := nw.Inject(src, dests); err != nil {
				t.Fatal(err)
			}
		})
	}
	nw.Sched.Run()
	fs := nw.FaultStats()
	if fs.Corrupted == 0 || fs.Dropped == 0 || fs.Retries == 0 {
		t.Fatalf("the run exercised no recovery: %+v", *fs)
	}
	if n := entries(); n != 0 {
		t.Errorf("%d dedup entries left after quiescence", n)
	}
	t.Logf("peak %d dedup entries; %d corrupted, %d dropped, %d retries", peak, fs.Corrupted, fs.Dropped, fs.Retries)
}

// TestRetiredFlitsStayLiveInTheirChannel samples every fault channel
// every 10 ps of a write-off workload: the flit a channel holds must
// still name the packet it was sent with. A delivered, absorbed or
// dropped copy retires only when its channel's credit returns, so the
// wedged-link watch (ChannelHolds) and the stuck-flit report never read
// a packet that was recycled under a channel still holding its flit.
func TestRetiredFlitsStayLiveInTheirChannel(t *testing.T) {
	for _, spec := range []Spec{
		withFaults(baselineSpec(8), "writeoff", poolWriteOff),
		withFaults(optHybrid(8), "writeoff", poolWriteOff),
	} {
		nw, err := New(spec)
		if err != nil {
			t.Fatal(err)
		}
		sent := make([]uint64, len(nw.chans))
		for i, ch := range nw.chans {
			ch.Hooks = traverseTap{ch.Hooks, func(f packet.Flit) { sent[i] = f.Pkt.ID }}
		}
		r := rand.New(rand.NewSource(11))
		for i, at := 0, sim.Time(0); i < 300; i++ {
			at += sim.Time(r.Intn(1000))
			src, dests := r.Intn(spec.N), packet.DestSet(r.Uint64()&0xff|1)
			nw.Sched.Schedule(at, func() {
				if _, err := nw.Inject(src, dests); err != nil {
					t.Errorf("inject: %v", err)
				}
			})
		}
		stale := 0
		for nw.Sched.Len() > 0 {
			nw.Sched.RunUntil(nw.Sched.Now() + 10)
			for i, ch := range nw.chans {
				if f, ok := ch.InFlightFlit(); ok && f.Pkt.ID != sent[i] {
					stale++
				}
			}
		}
		if stale > 0 {
			t.Errorf("%s: %d channel samples held a flit of a recycled packet", spec.Name, stale)
		}
	}
}
