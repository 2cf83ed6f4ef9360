package network

import (
	"strings"
	"testing"

	"asyncnoc/internal/chiplet"
	"asyncnoc/internal/node"
	"asyncnoc/internal/packet"
	"asyncnoc/internal/rng"
	"asyncnoc/internal/topology"
)

// Specs used throughout the tests (mirrors internal/core without the
// dependency).
func baselineSpec(n int) Spec {
	return Spec{Name: "Baseline", N: n, PacketLen: 5,
		Scheme: topology.NonSpeculative, NonSpecKind: node.Baseline, Serial: true}
}

func basicNonSpec(n int) Spec {
	return Spec{Name: "BasicNonSpeculative", N: n, PacketLen: 5,
		Scheme: topology.NonSpeculative, SpecKind: node.Spec, NonSpecKind: node.NonSpec}
}

func basicHybrid(n int) Spec {
	return Spec{Name: "BasicHybridSpeculative", N: n, PacketLen: 5,
		Scheme: topology.Hybrid, SpecKind: node.Spec, NonSpecKind: node.NonSpec}
}

func optHybrid(n int) Spec {
	return Spec{Name: "OptHybridSpeculative", N: n, PacketLen: 5,
		Scheme: topology.Hybrid, SpecKind: node.OptSpec, NonSpecKind: node.OptNonSpec}
}

func optAllSpec(n int) Spec {
	return Spec{Name: "OptAllSpeculative", N: n, PacketLen: 5,
		Scheme: topology.AllSpeculative, SpecKind: node.OptSpec, NonSpecKind: node.OptNonSpec}
}

func allSpecs(n int) []Spec {
	return []Spec{baselineSpec(n), basicNonSpec(n), basicHybrid(n), optHybrid(n), optAllSpec(n)}
}

func TestSpecValidation(t *testing.T) {
	bad := baselineSpec(8)
	bad.PacketLen = 0
	if _, err := New(bad); err == nil {
		t.Error("zero packet length accepted")
	}
	bad = baselineSpec(8)
	bad.NonSpecKind = node.NonSpec
	if _, err := New(bad); err == nil {
		t.Error("serial network with multicast nodes accepted")
	}
	bad = basicNonSpec(8)
	bad.NonSpecKind = node.Baseline
	if _, err := New(bad); err == nil {
		t.Error("parallel network with baseline nodes accepted")
	}
	bad = basicNonSpec(7)
	if _, err := New(bad); err == nil {
		t.Error("non-power-of-two radix accepted")
	}
	bad = optHybrid(8)
	bad.SpecKind = node.OptNonSpec + 1
	if err := bad.Validate(); err == nil {
		t.Error("unknown node kind accepted")
	}
	// The build-memory guard admits the paper-scale composition and
	// rejects what would take tens of gigabytes to build.
	big := optHybrid(64)
	big.Chiplet = chiplet.Default(8, 8)
	if err := big.Validate(); err != nil {
		t.Errorf("8x8 of 64 with 5-flit packets: %v", err)
	}
	big.Chiplet = chiplet.Default(chiplet.MaxMeshDim, chiplet.MaxMeshDim)
	if err := big.Validate(); err == nil || !strings.Contains(err.Error(), "memory guard") {
		t.Errorf("64x64 of 64: %v, want the build-memory guard", err)
	}
	bad = optHybrid(8)
	bad.PacketLen = 1 << 40
	if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), "memory guard") {
		t.Errorf("2^40-flit packets: %v, want the build-memory guard", err)
	}
}

func TestInjectValidation(t *testing.T) {
	nw, err := New(basicNonSpec(8))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nw.Inject(-1, packet.Dest(0)); err == nil {
		t.Error("negative source accepted")
	}
	if _, err := nw.Inject(8, packet.Dest(0)); err == nil {
		t.Error("out-of-range source accepted")
	}
	if _, err := nw.Inject(0, 0); err == nil {
		t.Error("empty destination set accepted")
	}
}

// TestUnicastAllPairs drives one packet through every (source, dest) pair
// of every network and checks exact delivery. The recorder panics on
// duplicate or misrouted deliveries, so completion implies correctness.
func TestUnicastAllPairs(t *testing.T) {
	for _, spec := range allSpecs(8) {
		nw, err := New(spec)
		if err != nil {
			t.Fatal(err)
		}
		nw.Rec.SetWindow(0, 1<<62)
		total := 0
		for s := 0; s < 8; s++ {
			for d := 0; d < 8; d++ {
				if _, err := nw.Inject(s, packet.Dest(d)); err != nil {
					t.Fatal(err)
				}
				total++
			}
		}
		nw.Sched.Run()
		if nw.Rec.MeasuredCompleted() != total {
			t.Errorf("%s: %d/%d unicasts delivered", spec.Name, nw.Rec.MeasuredCompleted(), total)
		}
	}
}

// TestMulticastDeliveryProperty is the network-level delivery-completeness
// property: random destination sets reach exactly their destinations on
// every architecture (including serial expansion on the baseline).
func TestMulticastDeliveryProperty(t *testing.T) {
	r := rng.New(77)
	for _, spec := range allSpecs(8) {
		nw, err := New(spec)
		if err != nil {
			t.Fatal(err)
		}
		nw.Rec.SetWindow(0, 1<<62)
		total := 0
		for trial := 0; trial < 120; trial++ {
			var dests packet.DestSet
			for dests.Empty() {
				for d := 0; d < 8; d++ {
					if r.Bool(0.35) {
						dests = dests.Add(d)
					}
				}
			}
			if _, err := nw.Inject(r.Intn(8), dests); err != nil {
				t.Fatal(err)
			}
			total++
		}
		nw.Sched.Run()
		if nw.Rec.MeasuredCompleted() != total {
			t.Errorf("%s: %d/%d multicasts delivered", spec.Name, nw.Rec.MeasuredCompleted(), total)
		}
	}
}

// TestSerialExpansion verifies the baseline's serial multicast: one
// logical packet becomes k unicast clones drained back-to-back.
func TestSerialExpansion(t *testing.T) {
	nw, err := New(baselineSpec(8))
	if err != nil {
		t.Fatal(err)
	}
	nw.Rec.SetWindow(0, 1<<62)
	p, err := nw.Inject(2, packet.Dests(1, 4, 6))
	if err != nil {
		t.Fatal(err)
	}
	// Three 5-flit clones queued at source 2 (one flit already sent).
	if q := nw.SourceQueueLen(2); q != 14 {
		t.Errorf("queue holds %d flits after first send, want 14 (3 clones x 5 - 1)", q)
	}
	var deliveredHeaders []int
	nw.Trace = func(ev TraceEvent) {
		if ev.Kind == TraceDeliver && ev.Flit.IsHeader() {
			deliveredHeaders = append(deliveredHeaders, ev.Dest)
		}
	}
	nw.Sched.Run()
	if len(deliveredHeaders) != 3 {
		t.Fatalf("delivered %d headers, want 3", len(deliveredHeaders))
	}
	// Serial order: ascending destination.
	want := []int{1, 4, 6}
	for i, d := range deliveredHeaders {
		if d != want[i] {
			t.Errorf("delivery %d went to %d, want %d (serial order)", i, d, want[i])
		}
	}
	if nw.Rec.MeasuredCompleted() != 1 {
		t.Error("logical multicast not completed")
	}
	_ = p
}

// TestFig4aUnicastThrottle reproduces Figure 4(a): a unicast on the
// hybrid network is broadcast by the speculative root; the wrong-path
// copy is throttled by the non-speculative level-1 node of the other
// subtree; the right-path copy reaches the destination.
func TestFig4aUnicastThrottle(t *testing.T) {
	for _, spec := range []Spec{basicHybrid(8), optHybrid(8)} {
		nw, err := New(spec)
		if err != nil {
			t.Fatal(err)
		}
		nw.Rec.SetWindow(0, 1<<62)
		throttleHeaps := map[int]int{}
		rootPorts := 0
		nw.Trace = func(ev TraceEvent) {
			switch ev.Kind {
			case TraceThrottle:
				throttleHeaps[ev.Heap]++
			case TraceForward:
				if ev.Heap == 1 && ev.Flit.IsHeader() {
					rootPorts = ev.Ports
				}
			}
		}
		// Dest 7 lives in the bottom subtree: node 2 (top) throttles.
		if _, err := nw.Inject(0, packet.Dest(7)); err != nil {
			t.Fatal(err)
		}
		nw.Sched.Run()
		if rootPorts != 2 {
			t.Errorf("%s: speculative root drove %d ports for the header, want 2", spec.Name, rootPorts)
		}
		if len(throttleHeaps) != 1 || throttleHeaps[2] == 0 {
			t.Errorf("%s: throttles at %v, want only node 2", spec.Name, throttleHeaps)
		}
		// Local speculation: every flit of the wrong copy dies at node
		// 2 on the basic hybrid (5 flits); the optimized hybrid blocks
		// body flits at the root instead, so node 2 sees header+tail.
		want := 5
		if spec.SpecKind == node.OptSpec {
			want = 2
		}
		if throttleHeaps[2] != want {
			// The optimized root also absorbs the 3 blocked body flits.
			t.Errorf("%s: node 2 throttled %d flits, want %d", spec.Name, throttleHeaps[2], want)
		}
		if nw.Rec.MeasuredCompleted() != 1 {
			t.Errorf("%s: packet not delivered", spec.Name)
		}
	}
}

// TestFig4bMulticastRouting reproduces Figure 4(b): a multicast to
// {0,2,3} on the hybrid network — the root broadcasts, node 3 throttles
// the bottom copy, node 2 replicates, node 4 routes top to dest 0, node 5
// broadcasts to dests 2 and 3.
func TestFig4bMulticastRouting(t *testing.T) {
	nw, err := New(basicHybrid(8))
	if err != nil {
		t.Fatal(err)
	}
	nw.Rec.SetWindow(0, 1<<62)
	headerPorts := map[int]int{}
	throttles := map[int]int{}
	nw.Trace = func(ev TraceEvent) {
		switch ev.Kind {
		case TraceForward:
			if ev.Flit.IsHeader() {
				headerPorts[ev.Heap] = ev.Ports
			}
		case TraceThrottle:
			throttles[ev.Heap]++
		}
	}
	if _, err := nw.Inject(0, packet.Dests(0, 2, 3)); err != nil {
		t.Fatal(err)
	}
	nw.Sched.Run()
	wantPorts := map[int]int{1: 2, 2: 2, 4: 1, 5: 2}
	for heap, want := range wantPorts {
		if headerPorts[heap] != want {
			t.Errorf("node %d drove %d ports, want %d", heap, headerPorts[heap], want)
		}
	}
	if len(throttles) != 1 || throttles[3] != 5 {
		t.Errorf("throttles %v, want all 5 flits at node 3", throttles)
	}
	if nw.Rec.MeasuredCompleted() != 1 {
		t.Error("multicast not completed")
	}
}

// TestThrottleLocalityAllSpec verifies that on the almost fully
// speculative network redundant copies travel further (throttled only at
// the last level), while on the hybrid they die one level down — the
// power/performance trade the paper's Section 5.2(c) measures.
func TestThrottleLocalityAllSpec(t *testing.T) {
	countThrottledFlits := func(spec Spec) (perHeap map[int]int, total int) {
		nw, err := New(spec)
		if err != nil {
			t.Fatal(err)
		}
		nw.Rec.SetWindow(0, 1<<62)
		perHeap = map[int]int{}
		nw.Trace = func(ev TraceEvent) {
			if ev.Kind == TraceThrottle {
				perHeap[ev.Heap]++
				total++
			}
		}
		if _, err := nw.Inject(0, packet.Dest(0)); err != nil {
			t.Fatal(err)
		}
		nw.Sched.Run()
		return perHeap, total
	}
	hybridHeaps, hybridTotal := countThrottledFlits(basicHybrid(8))
	allHeaps, allTotal := countThrottledFlits(optAllSpec(8))
	if len(hybridHeaps) != 1 {
		t.Errorf("hybrid throttles at %v, want exactly one node", hybridHeaps)
	}
	// All-spec: redundant copies of the header reach the last level (3
	// off-path leaf-level nodes receive header+tail copies).
	for heap := range allHeaps {
		if heap < 4 {
			t.Errorf("all-spec throttle at node %d, want only last level (4-7) plus opt-spec body blocks", heap)
		}
	}
	if allTotal <= hybridTotal-3 {
		t.Errorf("all-spec total throttled flits %d not larger than hybrid %d", allTotal, hybridTotal)
	}
}

// TestRedundantCopiesCostEnergy checks that the energy meter observes the
// speculation overhead: the same traffic costs more on the basic hybrid
// than on the plain non-speculative network.
func TestRedundantCopiesCostEnergy(t *testing.T) {
	run := func(spec Spec) float64 {
		nw, err := New(spec)
		if err != nil {
			t.Fatal(err)
		}
		nw.Rec.SetWindow(0, 1<<62)
		nw.Meter.SetWindow(0, 1<<62)
		r := rng.New(3)
		for i := 0; i < 50; i++ {
			if _, err := nw.Inject(r.Intn(8), packet.Dest(r.Intn(8))); err != nil {
				t.Fatal(err)
			}
		}
		nw.Sched.Run()
		return nw.Meter.EnergyPJ()
	}
	nonspec := run(basicNonSpec(8))
	hybrid := run(basicHybrid(8))
	if hybrid <= nonspec {
		t.Errorf("hybrid energy %.1f pJ not above non-speculative %.1f pJ", hybrid, nonspec)
	}
}

// TestDeterminism: identical builds and injections produce identical
// event counts and delivery times.
func TestDeterminism(t *testing.T) {
	run := func() (uint64, float64) {
		nw, err := New(optHybrid(8))
		if err != nil {
			t.Fatal(err)
		}
		nw.Rec.SetWindow(0, 1<<62)
		r := rng.New(123)
		for i := 0; i < 100; i++ {
			var dests packet.DestSet
			for dests.Empty() {
				for d := 0; d < 8; d++ {
					if r.Bool(0.3) {
						dests = dests.Add(d)
					}
				}
			}
			if _, err := nw.Inject(r.Intn(8), dests); err != nil {
				t.Fatal(err)
			}
		}
		nw.Sched.Run()
		lat, _ := nw.Rec.AvgLatencyNs()
		return nw.Sched.Executed(), lat
	}
	e1, l1 := run()
	e2, l2 := run()
	if e1 != e2 || l1 != l2 {
		t.Errorf("runs diverged: events %d vs %d, latency %v vs %v", e1, e2, l1, l2)
	}
}

// TestTraceKindString covers the trace-kind names.
func TestTraceKindString(t *testing.T) {
	want := map[TraceKind]string{
		TraceInject: "inject", TraceForward: "forward",
		TraceThrottle: "throttle", TraceDeliver: "deliver",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("TraceKind %d = %q, want %q", k, k.String(), s)
		}
	}
	if TraceKind(9).String() != "TraceKind(9)" {
		t.Error("unknown trace kind formatting wrong")
	}
}

// Test16x16Networks exercises the paper's future-work size end to end.
func Test16x16Networks(t *testing.T) {
	r := rng.New(5)
	for _, spec := range allSpecs(16) {
		nw, err := New(spec)
		if err != nil {
			t.Fatal(err)
		}
		nw.Rec.SetWindow(0, 1<<62)
		total := 0
		for trial := 0; trial < 40; trial++ {
			var dests packet.DestSet
			for dests.Empty() {
				for d := 0; d < 16; d++ {
					if r.Bool(0.2) {
						dests = dests.Add(d)
					}
				}
			}
			if _, err := nw.Inject(r.Intn(16), dests); err != nil {
				t.Fatal(err)
			}
			total++
		}
		nw.Sched.Run()
		if nw.Rec.MeasuredCompleted() != total {
			t.Errorf("%s/16x16: %d/%d delivered", spec.Name, nw.Rec.MeasuredCompleted(), total)
		}
	}
}

// TestDeadlockFreedomStress floods every multicast network with dense,
// bursty broadcast-heavy traffic from all sources simultaneously — the
// adversarial pattern for tree-based wormhole multicast — and requires
// the run to drain completely with every packet delivered.
func TestDeadlockFreedomStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	r := rng.New(2024)
	for _, spec := range allSpecs(8) {
		if spec.Serial {
			continue
		}
		nw, err := New(spec)
		if err != nil {
			t.Fatal(err)
		}
		nw.Rec.SetWindow(0, 1<<62)
		total := 0
		for round := 0; round < 40; round++ {
			for s := 0; s < 8; s++ {
				var dests packet.DestSet
				switch r.Intn(3) {
				case 0: // full broadcast
					dests = packet.Range(0, 8)
				case 1: // dense random subset
					for dests.Count() < 4 {
						dests = dests.Add(r.Intn(8))
					}
				default: // sparse pair
					dests = packet.Dest(r.Intn(8)).Add(r.Intn(8))
				}
				if _, err := nw.Inject(s, dests); err != nil {
					t.Fatal(err)
				}
				total++
			}
		}
		nw.Sched.Run()
		if nw.Rec.MeasuredCompleted() != total {
			t.Fatalf("%s: %d/%d packets delivered under stress (deadlock?)",
				spec.Name, nw.Rec.MeasuredCompleted(), total)
		}
	}
}

// TestVCDAttachment runs a traced simulation dumping a VCD and checks the
// dump is well formed and reflects the traffic.
func TestVCDAttachment(t *testing.T) {
	nw, err := New(basicHybrid(8))
	if err != nil {
		t.Fatal(err)
	}
	nw.Rec.SetWindow(0, 1<<62)
	var sb strings.Builder
	rec, err := AttachVCD(nw, &sb)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nw.Inject(0, packet.Dests(0, 7)); err != nil {
		t.Fatal(err)
	}
	nw.Sched.Run()
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"$timescale 1ps $end",
		"$scope module tree0 $end",
		"fo1_req",
		"fo1_throttle",
		"dest0_req",
		"throttled_flits",
		"$enddefinitions $end",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("VCD missing %q", want)
		}
	}
	// Activity was recorded after the definitions.
	defsEnd := strings.Index(out, "$enddefinitions $end")
	if !strings.Contains(out[defsEnd:], "#") {
		t.Error("VCD has no timestamped activity")
	}
	// Trace chaining: AttachVCD must preserve an existing callback.
	nw2, _ := New(basicHybrid(8))
	nw2.Rec.SetWindow(0, 1<<62)
	called := false
	nw2.Trace = func(TraceEvent) { called = true }
	rec2, err := AttachVCD(nw2, &strings.Builder{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nw2.Inject(1, packet.Dest(2)); err != nil {
		t.Fatal(err)
	}
	nw2.Sched.Run()
	_ = rec2.Close()
	if !called {
		t.Error("pre-existing trace callback not chained")
	}
}

// TestUtilizationLocality quantifies local speculation: on the hybrid,
// redundant flits are confined to level 1 (just below the speculative
// root); on the almost fully speculative network they reach the last
// level and the redundant fraction is strictly larger.
func TestUtilizationLocality(t *testing.T) {
	run := func(spec Spec) *Utilization {
		nw, err := New(spec)
		if err != nil {
			t.Fatal(err)
		}
		nw.Rec.SetWindow(0, 1<<62)
		u := AttachUtilization(nw)
		r := rng.New(17)
		for i := 0; i < 60; i++ {
			if _, err := nw.Inject(r.Intn(8), packet.Dest(r.Intn(8))); err != nil {
				t.Fatal(err)
			}
		}
		nw.Sched.Run()
		return u
	}
	hybrid := run(basicHybrid(8))
	if hybrid.ThrottlesAtLevel[0] != 0 || hybrid.ThrottlesAtLevel[2] != 0 {
		t.Errorf("hybrid throttles outside level 1: %v", hybrid.ThrottlesAtLevel)
	}
	if hybrid.ThrottlesAtLevel[1] == 0 {
		t.Error("hybrid shows no throttling under unicast")
	}
	allSpec := run(optAllSpec(8))
	if allSpec.ThrottlesAtLevel[2] == 0 {
		t.Error("all-speculative shows no last-level throttling")
	}
	if allSpec.RedundantFraction() <= hybrid.RedundantFraction() {
		t.Errorf("all-spec redundancy %.3f not above hybrid %.3f",
			allSpec.RedundantFraction(), hybrid.RedundantFraction())
	}
	nonspec := run(basicNonSpec(8))
	if nonspec.RedundantFraction() != 0 {
		t.Errorf("non-speculative network reports redundancy %.3f", nonspec.RedundantFraction())
	}
	if !strings.Contains(hybrid.String(), "redundant fraction") {
		t.Error("utilization String missing summary")
	}
}

// TestEnergyEventConservation pins the exact energy-event counts of one
// quiet unicast packet: 6 node traversals, 7 channel flights, and one
// interface operation per flit at each end. Any drift in the accounting
// hooks shows up here.
func TestEnergyEventConservation(t *testing.T) {
	nw, err := New(basicNonSpec(8))
	if err != nil {
		t.Fatal(err)
	}
	nw.Rec.SetWindow(0, 1<<62)
	nw.Meter.SetWindow(0, 1<<62)
	if _, err := nw.Inject(0, packet.Dest(7)); err != nil {
		t.Fatal(err)
	}
	nw.Sched.Run()
	forwards, absorbs, channels, interfaces := nw.Meter.Counters()
	const flits = 5
	if forwards != 6*flits {
		t.Errorf("node forwards %d, want %d (6 hops x 5 flits)", forwards, 6*flits)
	}
	if absorbs != 0 {
		t.Errorf("absorbs %d on a non-speculative unicast", absorbs)
	}
	if channels != 7*flits {
		t.Errorf("channel flights %d, want %d (7 links x 5 flits)", channels, 7*flits)
	}
	if interfaces != 2*flits {
		t.Errorf("interface ops %d, want %d", interfaces, 2*flits)
	}
}

// TestEnergyEventsWithSpeculation extends the conservation check to the
// hybrid: the root's redundant copy adds exactly one extra channel
// flight and one absorb per flit, plus the root's double-port forwards.
func TestEnergyEventsWithSpeculation(t *testing.T) {
	nw, err := New(basicHybrid(8))
	if err != nil {
		t.Fatal(err)
	}
	nw.Rec.SetWindow(0, 1<<62)
	nw.Meter.SetWindow(0, 1<<62)
	if _, err := nw.Inject(0, packet.Dest(7)); err != nil {
		t.Fatal(err)
	}
	nw.Sched.Run()
	forwards, absorbs, channels, interfaces := nw.Meter.Counters()
	const flits = 5
	// Forwards: same 6 hops commit (the root commits once per flit,
	// driving 2 ports).
	if forwards != 6*flits {
		t.Errorf("node forwards %d, want %d", forwards, 6*flits)
	}
	if absorbs != flits {
		t.Errorf("absorbs %d, want %d (wrong-path copy throttled per flit)", absorbs, flits)
	}
	if channels != 8*flits {
		t.Errorf("channel flights %d, want %d (7 useful + 1 redundant)", channels, 8*flits)
	}
	if interfaces != 2*flits {
		t.Errorf("interface ops %d, want %d", interfaces, 2*flits)
	}
}

// TestFaultInjection wedges one fanout output channel and verifies the
// loss is observable (packets behind the fault stop completing, the rest
// of the network is unaffected) and localizable (the subtree below the
// fault goes quiet).
func TestFaultInjection(t *testing.T) {
	nw, err := New(basicNonSpec(8))
	if err != nil {
		t.Fatal(err)
	}
	nw.Rec.SetWindow(0, 1<<62)
	u := AttachUtilization(nw)
	// Kill tree 0's node-2 top output (the only path to dests 0 and 1)
	// after one flit.
	nw.FaultFanoutChannel(0, 2, topology.Top, 1)
	for d := 0; d < 8; d++ {
		if _, err := nw.Inject(0, packet.Dest(d)); err != nil {
			t.Fatal(err)
		}
		// Source 1 is unaffected by tree 0's fault.
		if _, err := nw.Inject(1, packet.Dest(d)); err != nil {
			t.Fatal(err)
		}
	}
	nw.Sched.Run()
	// Source 1's 8 packets all complete; source 0 loses the packets for
	// dests 0 and 1 (one header may sneak through before the wedge) and,
	// because its NI serializes, everything queued behind the stall.
	done := nw.Rec.MeasuredCompleted()
	if done >= 16 {
		t.Fatalf("fault invisible: %d/16 packets completed", done)
	}
	if done < 8 {
		t.Fatalf("fault spread beyond its tree: only %d packets completed", done)
	}
	if u.Delivered >= 16*5 {
		t.Error("utilization did not reflect the loss")
	}
}

// Test32x32Scale exercises the largest supported radix end to end.
func Test32x32Scale(t *testing.T) {
	if testing.Short() {
		t.Skip("large network")
	}
	r := rng.New(64)
	nw, err := New(optHybrid(32))
	if err != nil {
		t.Fatal(err)
	}
	nw.Rec.SetWindow(0, 1<<62)
	total := 0
	for trial := 0; trial < 60; trial++ {
		var dests packet.DestSet
		for dests.Empty() {
			for d := 0; d < 32; d++ {
				if r.Bool(0.1) {
					dests = dests.Add(d)
				}
			}
		}
		if _, err := nw.Inject(r.Intn(32), dests); err != nil {
			t.Fatal(err)
		}
		total++
	}
	nw.Sched.Run()
	if nw.Rec.MeasuredCompleted() != total {
		t.Errorf("32x32: %d/%d delivered", nw.Rec.MeasuredCompleted(), total)
	}
}
