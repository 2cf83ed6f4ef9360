package node

import (
	"slices"
	"testing"

	"asyncnoc/internal/packet"
	"asyncnoc/internal/routing"
	"asyncnoc/internal/sim"
	"asyncnoc/internal/timing"
	"asyncnoc/internal/topology"
)

const (
	chFwd sim.Time = 10
	chAck sim.Time = 10
)

// driver feeds a flit sequence into a channel, sending the next flit only
// after the previous acknowledge returns (as a real upstream stage would).
type driver struct {
	sched *sim.Scheduler
	ch    *Channel
	queue []packet.Flit
	acks  []sim.Time
}

func (d *driver) OnAck(int) {
	d.acks = append(d.acks, d.sched.Now())
	d.pump()
}

func (d *driver) pump() {
	if len(d.queue) == 0 || d.ch.Busy() {
		return
	}
	f := d.queue[0]
	d.queue = d.queue[1:]
	d.ch.Send(f)
}

type recv struct {
	f    packet.Flit
	at   sim.Time
	port int
}

// sink records flits and acknowledges after ackAfter (or holds the ack
// until released when hold is set).
type sink struct {
	sched    *sim.Scheduler
	ch       *Channel
	ackAfter sim.Time
	hold     bool
	got      []recv
}

func (s *sink) OnFlit(port int, f packet.Flit) {
	s.got = append(s.got, recv{f, s.sched.Now(), port})
	if !s.hold {
		s.sched.After(s.ackAfter, s.ch.Ack)
	}
}

// rig wires a fanout node between a driver and two sinks.
type rig struct {
	sched  *sim.Scheduler
	n      *Fanout
	drv    *driver
	sinks  [2]*sink
	absorb []packet.Flit
}

func newRig(t *testing.T, kind Kind, heap int, scheme topology.Scheme) *rig {
	return newRigCap(t, kind, heap, scheme, 5)
}

func newRigCap(t *testing.T, kind Kind, heap int, scheme topology.Scheme, fifoCap int) *rig {
	t.Helper()
	sched := sim.NewScheduler()
	m := topology.MustNew(8)
	pl := topology.MustForScheme(m, scheme)
	n := NewFanout(sched, kind, 0, heap, pl, fifoCap, timing.TwoPhase)
	r := &rig{sched: sched, n: n}
	r.drv = &driver{sched: sched}
	in := &Channel{Sched: sched, FwdDelay: chFwd, AckDelay: chAck, Dst: n, Src: r.drv}
	r.drv.ch = in
	n.ConnectInput(in)
	for p := 0; p < 2; p++ {
		s := &sink{sched: sched, ackAfter: 5}
		out := &Channel{Sched: sched, FwdDelay: chFwd, AckDelay: chAck, Dst: s, DstPort: p, Src: n, SrcPort: p}
		s.ch = out
		n.ConnectOutput(topology.Port(p), out)
		r.sinks[p] = s
	}
	n.OnAbsorb = func(f packet.Flit) { r.absorb = append(r.absorb, f) }
	return r
}

func (r *rig) inject(p *packet.Packet) {
	r.drv.queue = append(r.drv.queue, p.Flits()...)
	r.sched.Schedule(0, r.drv.pump)
}

func mkPacket(t *testing.T, scheme topology.Scheme, dests packet.DestSet, length int) *packet.Packet {
	t.Helper()
	m := topology.MustNew(8)
	pl := topology.MustForScheme(m, scheme)
	route, err := routing.EncodeMulticast(pl, dests)
	if err != nil {
		t.Fatal(err)
	}
	return &packet.Packet{ID: 1, Src: 0, Dests: dests, Length: length, Route: route}
}

func TestKindStringsAndNetlistNames(t *testing.T) {
	kinds := []Kind{Baseline, Spec, NonSpec, OptSpec, OptNonSpec}
	for _, k := range kinds {
		if k.String() == "" || k.NetlistName() == "" {
			t.Errorf("kind %d has empty names", k)
		}
		if _, err := timing.ByName(k.NetlistName()); err != nil {
			t.Errorf("kind %v: %v", k, err)
		}
	}
	if !Spec.IsSpeculative() || !OptSpec.IsSpeculative() {
		t.Error("speculative kinds misclassified")
	}
	if Baseline.IsSpeculative() || NonSpec.IsSpeculative() || OptNonSpec.IsSpeculative() {
		t.Error("non-speculative kinds misclassified")
	}
	if Kind(99).String() != "Kind(99)" {
		t.Error("unknown kind formatting wrong")
	}
}

func TestSpecBroadcastsEveryFlit(t *testing.T) {
	r := newRig(t, Spec, 1, topology.Hybrid)
	p := mkPacket(t, topology.Hybrid, packet.Dest(0), 3)
	r.inject(p)
	r.sched.Run()
	for pt, s := range r.sinks {
		if len(s.got) != 3 {
			t.Fatalf("port %d received %d flits, want 3", pt, len(s.got))
		}
	}
	// Exact handshake timing of the first flit: channel 10 + fwd, both
	// sends simultaneous, input ack at send + AckDelay + channel 10.
	tm := r.n.Timing()
	wantArrive := chFwd + tm.FwdHeader + chFwd
	if got := r.sinks[0].got[0].at; got != wantArrive {
		t.Errorf("first flit arrived at %v, want %v", got, wantArrive)
	}
	wantAck := chFwd + tm.FwdHeader + tm.AckDelay + chAck
	if len(r.drv.acks) != 3 || r.drv.acks[0] != wantAck {
		t.Errorf("acks %v, first want %v", r.drv.acks, wantAck)
	}
}

func TestSpecAckWaitsForBlockedPort(t *testing.T) {
	// C-element semantics with a capacity-1 port buffer: once port 1 is
	// blocked (its flit unacknowledged downstream) and its buffer slot
	// is occupied, the next flit cannot commit and the input ack is
	// withheld until port 1 frees.
	r := newRigCap(t, Spec, 1, topology.Hybrid, 1)
	r.sinks[1].hold = true
	for i := 0; i < 3; i++ {
		p := mkPacket(t, topology.Hybrid, packet.Dest(0), 1)
		p.ID = uint64(i + 1)
		r.inject(p)
	}
	r.sched.Run()
	// Flit 1 occupies the blocked wire, flit 2 the port-1 buffer slot;
	// flit 3 cannot commit, so only two input acks exist.
	if len(r.drv.acks) != 2 {
		t.Fatalf("got %d input acks, want 2 (third flit blocked)", len(r.drv.acks))
	}
	if len(r.sinks[0].got) != 2 || len(r.sinks[1].got) != 1 {
		t.Fatalf("sink receipts %d/%d, want 2/1", len(r.sinks[0].got), len(r.sinks[1].got))
	}
	if r.n.QueuedFlits(topology.Bottom) != 1 {
		t.Fatalf("port-1 buffer holds %d flits, want 1", r.n.QueuedFlits(topology.Bottom))
	}
	// Release the held ack (and ack normally from now on): everything
	// must drain.
	r.sinks[1].hold = false
	r.sinks[1].ch.Ack()
	r.sched.Run()
	if len(r.drv.acks) != 3 || len(r.sinks[1].got) != 3 || len(r.sinks[0].got) != 3 {
		t.Errorf("after release: acks=%d port0=%d port1=%d, want 3/3/3",
			len(r.drv.acks), len(r.sinks[0].got), len(r.sinks[1].got))
	}
}

func TestBaselineRoutesWholePacketByHeader(t *testing.T) {
	r := newRig(t, Baseline, 1, topology.NonSpeculative)
	m := topology.MustNew(8)
	route, err := routing.EncodeBaseline(m, 5) // bottom at root
	if err != nil {
		t.Fatal(err)
	}
	p := &packet.Packet{ID: 1, Dests: packet.Dest(5), Length: 5, Route: route}
	r.inject(p)
	r.sched.Run()
	if len(r.sinks[topology.Top].got) != 0 {
		t.Errorf("top port received %d flits, want 0", len(r.sinks[topology.Top].got))
	}
	if len(r.sinks[topology.Bottom].got) != 5 {
		t.Errorf("bottom port received %d flits, want 5", len(r.sinks[topology.Bottom].got))
	}
	if len(r.drv.acks) != 5 {
		t.Errorf("input acks %d, want 5", len(r.drv.acks))
	}
}

func TestBaselineRoutesTopForEvenDest(t *testing.T) {
	r := newRig(t, Baseline, 1, topology.NonSpeculative)
	m := topology.MustNew(8)
	route, err := routing.EncodeBaseline(m, 2)
	if err != nil {
		t.Fatal(err)
	}
	p := &packet.Packet{ID: 1, Dests: packet.Dest(2), Length: 2, Route: route}
	r.inject(p)
	r.sched.Run()
	if len(r.sinks[topology.Top].got) != 2 || len(r.sinks[topology.Bottom].got) != 0 {
		t.Errorf("flits top/bottom = %d/%d, want 2/0",
			len(r.sinks[topology.Top].got), len(r.sinks[topology.Bottom].got))
	}
}

func TestNonSpecThrottlesMisrouted(t *testing.T) {
	// Node 2 covers dests 0-3; a packet for {5} reads SymNone there.
	r := newRig(t, NonSpec, 2, topology.NonSpeculative)
	p := mkPacket(t, topology.NonSpeculative, packet.Dest(5), 5)
	r.inject(p)
	r.sched.Run()
	if len(r.absorb) != 5 {
		t.Fatalf("absorbed %d flits, want all 5", len(r.absorb))
	}
	if len(r.sinks[0].got)+len(r.sinks[1].got) != 0 {
		t.Error("throttled packet leaked to an output port")
	}
	// Throttle ack timing: arrival + ThrottleAck + channel ack.
	tm := r.n.Timing()
	want := chFwd + tm.ThrottleAck + chAck
	if len(r.drv.acks) != 5 || r.drv.acks[0] != want {
		t.Errorf("first throttle ack at %v, want %v", r.drv.acks[0], want)
	}
}

func TestNonSpecReplicatesBothWays(t *testing.T) {
	// Root with dests on both sides: every flit goes to both ports.
	r := newRig(t, NonSpec, 1, topology.NonSpeculative)
	p := mkPacket(t, topology.NonSpeculative, packet.Dests(1, 6), 5)
	r.inject(p)
	r.sched.Run()
	if len(r.sinks[0].got) != 5 || len(r.sinks[1].got) != 5 {
		t.Errorf("flits top/bottom = %d/%d, want 5/5", len(r.sinks[0].got), len(r.sinks[1].got))
	}
}

func TestNonSpecUnicastSingleSide(t *testing.T) {
	r := newRig(t, NonSpec, 1, topology.NonSpeculative)
	p := mkPacket(t, topology.NonSpeculative, packet.Dest(1), 4)
	r.inject(p)
	r.sched.Run()
	if len(r.sinks[topology.Top].got) != 4 || len(r.sinks[topology.Bottom].got) != 0 {
		t.Errorf("flits = %d/%d, want 4/0", len(r.sinks[0].got), len(r.sinks[1].got))
	}
}

func TestOptNonSpecBodyFastForward(t *testing.T) {
	r := newRig(t, OptNonSpec, 1, topology.NonSpeculative)
	p := mkPacket(t, topology.NonSpeculative, packet.Dest(1), 3)
	r.inject(p)
	r.sched.Run()
	got := r.sinks[topology.Top].got
	if len(got) != 3 {
		t.Fatalf("received %d flits, want 3", len(got))
	}
	tm := r.n.Timing()
	if tm.FwdBody >= tm.FwdHeader {
		t.Fatalf("opt non-spec FwdBody %v not faster than FwdHeader %v", tm.FwdBody, tm.FwdHeader)
	}
	// Header pays the full route-computation path.
	hdrCommit := chFwd + tm.FwdHeader
	if got[0].at != hdrCommit+chFwd {
		t.Errorf("header arrived %v, want %v", got[0].at, hdrCommit+chFwd)
	}
	// The first body flit is gated by the header's channel-allocation
	// control loop (FwdHeader + AckDelay after the header commit).
	bodyCommit := hdrCommit + tm.FwdHeader + tm.AckDelay
	if got[1].at != bodyCommit+chFwd {
		t.Errorf("first body arrived %v, want %v (allocation loop)", got[1].at, bodyCommit+chFwd)
	}
	// Subsequent flits ride the pre-allocated fast path: the tail
	// leaves one ack-loop + fast-forward after the body.
	tailCommit := bodyCommit + tm.AckDelay + chAck + chFwd + tm.FwdBody
	if got[2].at != tailCommit+chFwd {
		t.Errorf("tail arrived %v, want %v (fast-forward)", got[2].at, tailCommit+chFwd)
	}
}

func TestOptSpecHeaderTailBroadcastBodyRouted(t *testing.T) {
	// Node 1 (root, 8x8): dests {1} live only on top.
	r := newRig(t, OptSpec, 1, topology.AllSpeculative)
	p := mkPacket(t, topology.AllSpeculative, packet.Dest(1), 5)
	r.inject(p)
	r.sched.Run()
	// Top: header + 3 body + tail = 5. Bottom: header + tail only.
	if len(r.sinks[topology.Top].got) != 5 {
		t.Errorf("top received %d flits, want 5", len(r.sinks[topology.Top].got))
	}
	if len(r.sinks[topology.Bottom].got) != 2 {
		t.Errorf("bottom received %d flits, want 2 (header+tail)", len(r.sinks[topology.Bottom].got))
	}
	for _, rec := range r.sinks[topology.Bottom].got {
		if rec.f.Kind() == packet.Body {
			t.Error("power optimization failed: body flit broadcast on dead port")
		}
	}
	if len(r.absorb) != 0 {
		t.Errorf("absorbed %d flits, want 0", len(r.absorb))
	}
}

func TestOptSpecDropsBodyOfMisrouted(t *testing.T) {
	// Node 2 covers dests 0-3; a packet for {5} is misrouted there: the
	// header and tail still broadcast (transparent ports), body flits
	// are blocked and acknowledged locally.
	r := newRig(t, OptSpec, 2, topology.AllSpeculative)
	p := mkPacket(t, topology.AllSpeculative, packet.Dest(5), 5)
	r.inject(p)
	r.sched.Run()
	if len(r.absorb) != 3 {
		t.Errorf("absorbed %d flits, want 3 body flits", len(r.absorb))
	}
	for pt, s := range r.sinks {
		if len(s.got) != 2 {
			t.Errorf("port %d received %d flits, want 2 (header+tail)", pt, len(s.got))
		}
	}
	if len(r.drv.acks) != 5 {
		t.Errorf("input acks %d, want 5", len(r.drv.acks))
	}
}

func TestFanoutRejectsOverlappingFlits(t *testing.T) {
	r := newRig(t, NonSpec, 1, topology.NonSpeculative)
	p := mkPacket(t, topology.NonSpeculative, packet.Dest(1), 1)
	defer func() {
		if recover() == nil {
			t.Error("overlapping flit did not panic")
		}
	}()
	f := packet.Flit{Pkt: p, Index: 0}
	r.n.OnFlit(0, f)
	r.n.OnFlit(0, f) // protocol violation: no ack yet
}

func TestChannelProtocolViolations(t *testing.T) {
	sched := sim.NewScheduler()
	s := &sink{sched: sched, hold: true}
	ch := &Channel{Sched: sched, FwdDelay: 1, AckDelay: 1, Dst: s}
	s.ch = ch
	p := &packet.Packet{ID: 1, Length: 1}
	f := packet.Flit{Pkt: p}
	ch.Send(f)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("double send did not panic")
			}
		}()
		ch.Send(f)
	}()
	sched.Run()
	ch.Ack()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("double ack did not panic")
			}
		}()
		ch.Ack()
	}()
}

// --- Fanin tests ---

type faninRig struct {
	sched *sim.Scheduler
	n     *Fanin
	drv   [2]*driver
	out   *sink
}

func newFaninRig(t *testing.T) *faninRig {
	t.Helper()
	sched := sim.NewScheduler()
	n := NewFanin(sched, 0, 1, timing.TwoPhase)
	r := &faninRig{sched: sched, n: n}
	for p := 0; p < 2; p++ {
		d := &driver{sched: sched}
		ch := &Channel{Sched: sched, FwdDelay: chFwd, AckDelay: chAck, Dst: n, DstPort: p, Src: d}
		d.ch = ch
		n.ConnectInput(p, ch)
		r.drv[p] = d
	}
	s := &sink{sched: sched, ackAfter: 5}
	out := &Channel{Sched: sched, FwdDelay: chFwd, AckDelay: chAck, Dst: s, Src: n}
	s.ch = out
	n.ConnectOutput(out)
	r.out = s
	return r
}

func TestFaninForwardsSingleInput(t *testing.T) {
	r := newFaninRig(t)
	p := &packet.Packet{ID: 1, Length: 3}
	r.drv[0].queue = p.Flits()
	r.sched.Schedule(0, r.drv[0].pump)
	r.sched.Run()
	if len(r.out.got) != 3 {
		t.Fatalf("forwarded %d flits, want 3", len(r.out.got))
	}
	tm := r.n.Timing()
	want := chFwd + tm.FwdHeader + chFwd
	if r.out.got[0].at != want {
		t.Errorf("first flit at %v, want %v", r.out.got[0].at, want)
	}
}

func TestFaninWormholeLock(t *testing.T) {
	// Port 0 starts a 3-flit packet; port 1's header must wait for the
	// tail even though it arrives mid-packet.
	r := newFaninRig(t)
	a := &packet.Packet{ID: 1, Length: 3}
	b := &packet.Packet{ID: 2, Length: 2}
	r.drv[0].queue = a.Flits()
	r.drv[1].queue = b.Flits()
	r.sched.Schedule(0, r.drv[0].pump)
	r.sched.Schedule(1, r.drv[1].pump) // b's header arrives just after a's
	r.sched.Run()
	if len(r.out.got) != 5 {
		t.Fatalf("forwarded %d flits, want 5", len(r.out.got))
	}
	// No interleaving: first 3 are packet 1, then 2 of packet 2.
	for i, rec := range r.out.got {
		wantID := uint64(1)
		if i >= 3 {
			wantID = 2
		}
		if rec.f.Pkt.ID != wantID {
			t.Fatalf("flit %d from packet %d, want %d (interleaved!)", i, rec.f.Pkt.ID, wantID)
		}
	}
}

func TestFaninRoundRobin(t *testing.T) {
	// With both inputs continuously loaded, grants must alternate.
	r := newFaninRig(t)
	var a, b *packet.Packet
	for i := 0; i < 3; i++ {
		a = &packet.Packet{ID: uint64(10 + i), Length: 1}
		b = &packet.Packet{ID: uint64(20 + i), Length: 1}
		r.drv[0].queue = append(r.drv[0].queue, a.Flits()...)
		r.drv[1].queue = append(r.drv[1].queue, b.Flits()...)
	}
	r.sched.Schedule(0, r.drv[0].pump)
	r.sched.Schedule(0, r.drv[1].pump)
	r.sched.Run()
	if len(r.out.got) != 6 {
		t.Fatalf("forwarded %d flits, want 6", len(r.out.got))
	}
	// Alternation: no input wins twice in a row while the other waits.
	for i := 1; i < len(r.out.got); i++ {
		prev, cur := r.out.got[i-1].f.Pkt.ID/10, r.out.got[i].f.Pkt.ID/10
		if prev == cur {
			t.Fatalf("input %d won twice in a row at position %d", cur, i)
		}
	}
}

func TestFaninBodyOnUnlockedPortPanics(t *testing.T) {
	r := newFaninRig(t)
	p := &packet.Packet{ID: 1, Length: 3}
	defer func() {
		if recover() == nil {
			t.Error("body flit on unlocked port did not panic")
		}
	}()
	r.n.OnFlit(0, packet.Flit{Pkt: p, Index: 1})
}

func BenchmarkFanoutFiveFlitPacket(b *testing.B) {
	sched := sim.NewScheduler()
	m := topology.MustNew(8)
	pl := topology.MustForScheme(m, topology.NonSpeculative)
	n := NewFanout(sched, OptNonSpec, 0, 1, pl, 5, timing.TwoPhase)
	drv := &driver{sched: sched}
	in := &Channel{Sched: sched, FwdDelay: chFwd, AckDelay: chAck, Dst: n, Src: drv}
	drv.ch = in
	n.ConnectInput(in)
	for p := 0; p < 2; p++ {
		s := &sink{sched: sched, ackAfter: 5}
		out := &Channel{Sched: sched, FwdDelay: chFwd, AckDelay: chAck, Dst: s, DstPort: p, Src: n, SrcPort: p}
		s.ch = out
		n.ConnectOutput(topology.Port(p), out)
	}
	route, _ := routing.EncodeMulticast(pl, packet.Dest(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := &packet.Packet{ID: uint64(i), Dests: packet.Dest(1), Length: 5, Route: route}
		drv.queue = append(drv.queue, p.Flits()...)
		drv.pump()
		sched.Run()
	}
}

func TestBaselineBackToBackPacketsSwitchRoutes(t *testing.T) {
	// Two consecutive packets with different destinations: the Address
	// Storage Unit must reload at each header.
	r := newRig(t, Baseline, 1, topology.NonSpeculative)
	m := topology.MustNew(8)
	routeBottom, err := routing.EncodeBaseline(m, 7)
	if err != nil {
		t.Fatal(err)
	}
	routeTop, err := routing.EncodeBaseline(m, 0)
	if err != nil {
		t.Fatal(err)
	}
	p1 := &packet.Packet{ID: 1, Dests: packet.Dest(7), Length: 3, Route: routeBottom}
	p2 := &packet.Packet{ID: 2, Dests: packet.Dest(0), Length: 3, Route: routeTop}
	r.inject(p1)
	r.inject(p2)
	r.sched.Run()
	if len(r.sinks[topology.Bottom].got) != 3 || len(r.sinks[topology.Top].got) != 3 {
		t.Errorf("flits bottom/top = %d/%d, want 3/3",
			len(r.sinks[topology.Bottom].got), len(r.sinks[topology.Top].got))
	}
	for _, rec := range r.sinks[topology.Bottom].got {
		if rec.f.Pkt.ID != 1 {
			t.Error("packet 2 leaked to bottom port")
		}
	}
	for _, rec := range r.sinks[topology.Top].got {
		if rec.f.Pkt.ID != 2 {
			t.Error("packet 1 leaked to top port")
		}
	}
}

func TestNonSpecModeSwitchAcrossPackets(t *testing.T) {
	// A throttled packet followed by a replicated one: the stored symbol
	// must not leak between packets.
	r := newRig(t, NonSpec, 2, topology.NonSpeculative)
	throttled := mkPacket(t, topology.NonSpeculative, packet.Dest(5), 3) // off-subtree
	throttled.ID = 1
	replicated := mkPacket(t, topology.NonSpeculative, packet.Dests(0, 2), 3) // both halves of node 2
	replicated.ID = 2
	r.inject(throttled)
	r.inject(replicated)
	r.sched.Run()
	if len(r.absorb) != 3 {
		t.Errorf("absorbed %d flits, want 3 (first packet only)", len(r.absorb))
	}
	if len(r.sinks[0].got) != 3 || len(r.sinks[1].got) != 3 {
		t.Errorf("second packet replication %d/%d, want 3/3",
			len(r.sinks[0].got), len(r.sinks[1].got))
	}
}

func TestOptSpecTailReopensPorts(t *testing.T) {
	// After a packet whose body was single-routed, the tail returns the
	// ports to transparent: the NEXT packet's header must broadcast.
	r := newRig(t, OptSpec, 1, topology.AllSpeculative)
	p1 := mkPacket(t, topology.AllSpeculative, packet.Dest(1), 3)
	p1.ID = 1
	p2 := mkPacket(t, topology.AllSpeculative, packet.Dest(6), 3)
	p2.ID = 2
	r.inject(p1)
	r.inject(p2)
	r.sched.Run()
	// p1: header+body+tail on top, header+tail on bottom.
	// p2: header+tail on top, header+body+tail on bottom.
	if got := len(r.sinks[topology.Top].got); got != 5 {
		t.Errorf("top received %d flits, want 5", got)
	}
	if got := len(r.sinks[topology.Bottom].got); got != 5 {
		t.Errorf("bottom received %d flits, want 5", got)
	}
	// The second packet's header reached BOTH ports (transparent again).
	headers := map[int]int{}
	for pt, s := range r.sinks {
		for _, rec := range s.got {
			if rec.f.IsHeader() && rec.f.Pkt.ID == 2 {
				headers[pt]++
			}
		}
	}
	if headers[0] != 1 || headers[1] != 1 {
		t.Errorf("second header did not broadcast: %v", headers)
	}
}

func TestFaninAsymmetricLoadNoStarvation(t *testing.T) {
	// A heavily loaded input must not starve a lightly loaded one.
	r := newFaninRig(t)
	for i := 0; i < 10; i++ {
		p := &packet.Packet{ID: uint64(100 + i), Length: 1}
		r.drv[0].queue = append(r.drv[0].queue, p.Flits()...)
	}
	lone := &packet.Packet{ID: 1, Length: 1}
	r.drv[1].queue = lone.Flits()
	r.sched.Schedule(0, r.drv[0].pump)
	r.sched.Schedule(0, r.drv[1].pump)
	r.sched.Run()
	if len(r.out.got) != 11 {
		t.Fatalf("forwarded %d flits, want 11", len(r.out.got))
	}
	// The lone packet must appear among the first three grants.
	pos := -1
	for i, rec := range r.out.got {
		if rec.f.Pkt.ID == 1 {
			pos = i
			break
		}
	}
	if pos < 0 || pos > 2 {
		t.Errorf("lone packet granted at position %d (starved)", pos)
	}
}

// faninGapRun sends a one-flit packet on port 0 at 0 and another on port
// 1 at 240 ps, so the second arrives (250 ps) inside the cycle gap after
// the first grant (200 ps, next grant allowed at 306 ps). outFwd is the
// output channel's flight time. It returns the OnForward times, each
// driver's acknowledge times, the number of events queued right after
// the first grant and the dispatch count.
func faninGapRun(t *testing.T, outFwd sim.Time) (fwd []sim.Time, acks [2][]sim.Time, queued int, executed uint64) {
	t.Helper()
	r := newFaninRig(t)
	if tm := r.n.Timing(); tm.FwdHeader != 190 || tm.AckDelay != 106 {
		t.Fatalf("fanin timing %v/%v, the pinned times assume 190ps/106ps", tm.FwdHeader, tm.AckDelay)
	}
	r.n.OutputChannel().FwdDelay = outFwd
	r.n.OnForward = func(packet.Flit) { fwd = append(fwd, r.sched.Now()) }
	a := &packet.Packet{ID: 1, Length: 1}
	b := &packet.Packet{ID: 2, Length: 1}
	r.drv[0].queue = a.Flits()
	r.drv[1].queue = b.Flits()
	r.sched.Schedule(0, r.drv[0].pump)
	r.sched.Schedule(240, r.drv[1].pump)
	r.sched.RunUntil(200)
	queued = r.sched.Len()
	r.sched.Run()
	if len(r.out.got) != 2 || r.out.got[1].f.Pkt != b {
		t.Fatalf("output got %d flits, want packet 1 then 2", len(r.out.got))
	}
	return fwd, [2][]sim.Time{r.drv[0].acks, r.drv[1].acks}, queued, r.sched.Executed()
}

// checkFaninGap pins the forward and acknowledge times both retry paths
// share, and the 18 events they count (two of them retries).
func checkFaninGap(t *testing.T, fwd []sim.Time, acks [2][]sim.Time, executed uint64) {
	t.Helper()
	if want := []sim.Time{200, 496}; !slices.Equal(fwd, want) {
		t.Errorf("forwards at %v, want %v", fwd, want)
	}
	if want := [2][]sim.Time{{316}, {612}}; !slices.Equal(acks[0], want[0]) || !slices.Equal(acks[1], want[1]) {
		t.Errorf("driver acks at %v, want %v", acks, want)
	}
	if executed != 18 {
		t.Errorf("Executed() = %d, want 18", executed)
	}
}

// TestFaninRetryFusedIntoAckIn: a flit that arrives in the cycle gap
// forwards at nextAllowed, the instant its predecessor's ack-in fires,
// and the retry runs inside that ack-in instead of as its own event.
// After the first grant only the ack-in, the output delivery and port
// 1's send are queued; a separate retry timer would be a fourth. Both
// grants' retries fuse (the second finds nothing to forward), and
// Executed still counts them.
func TestFaninRetryFusedIntoAckIn(t *testing.T) {
	fwd, acks, queued, executed := faninGapRun(t, chFwd)
	checkFaninGap(t, fwd, acks, executed)
	if queued != 3 {
		t.Errorf("%d events queued after the first grant, want 3 (no retry event)", queued)
	}
}

// TestFaninRetryKeptBehindLaterEvent: when the output channel's flight
// time equals the fanin's ack delay, each grant queues the output
// delivery at nextAllowed behind the ack-in, so a retry there would no
// longer run right after the ack-in. The separate retry event is kept,
// and the forwards, acknowledges and event count match the fused run's.
func TestFaninRetryKeptBehindLaterEvent(t *testing.T) {
	fwd, acks, queued, executed := faninGapRun(t, 106)
	checkFaninGap(t, fwd, acks, executed)
	if queued != 4 {
		t.Errorf("%d events queued after the first grant, want 4 (with the retry)", queued)
	}
}
