// Package network assembles complete asynchronous MoT NoC instances from
// the behavioral node models: one fanout tree per source, one fanin tree
// per destination, source and sink network interfaces, and the accounting
// hooks (latency recorder, energy meter, optional trace). A spec with a
// Mesh size wires the 2D mesh's routers (package mesh) instead, with the
// same interfaces, packet pool and hooks.
//
// The package also implements the serial-multicast expansion of the
// Baseline network: a k-destination multicast injected there becomes k
// back-to-back unicast packets, exactly the scheme the paper's new
// parallel networks are compared against.
package network

import (
	"fmt"
	"math/bits"
	"slices"
	"strings"

	"asyncnoc/internal/chiplet"
	"asyncnoc/internal/fault"
	"asyncnoc/internal/mesh"
	"asyncnoc/internal/metrics"
	"asyncnoc/internal/node"
	"asyncnoc/internal/packet"
	"asyncnoc/internal/pool"
	"asyncnoc/internal/power"
	"asyncnoc/internal/routing"
	"asyncnoc/internal/sim"
	"asyncnoc/internal/timing"
	"asyncnoc/internal/topology"
)

// Spec describes one network architecture: a MoT die, a chiplet
// composition of dies (Chiplet) or a 2D mesh (Mesh).
type Spec struct {
	// Name is the reporting name (e.g. "OptHybridSpeculative").
	Name string
	// N is the MoT radix (terminals per side), or a mesh's tile count.
	N int
	// PacketLen is the flits-per-packet (the paper uses 5).
	PacketLen int
	// Scheme selects the speculation placement of the fanout trees.
	Scheme topology.Scheme
	// SpecLevels, when non-nil, overrides Scheme with an explicit
	// per-level speculation vector (root level first; the last level
	// must be false). This opens the wider hybrid design space the
	// paper describes for larger MoTs (Figure 3(d)).
	SpecLevels []bool
	// SpecKind is the node behavior at speculative levels.
	SpecKind node.Kind
	// NonSpecKind is the node behavior at non-speculative levels.
	NonSpecKind node.Kind
	// Serial marks the baseline network: unicast-only nodes, 1-bit
	// source routing, multicast expanded into serial unicasts.
	Serial bool
	// Strategy names the multicast routing scheme that plans injections
	// (see routing.StrategyNames). Empty selects the architecture's
	// default: SerialUnicast on the serial baseline, SpeculativeMulticast
	// elsewhere — both bit-identical to the pre-strategy behavior.
	Strategy string
	// Protocol selects the channel handshake (two-phase by default;
	// four-phase models the RZ alternative the paper argues against).
	Protocol timing.Protocol
	// SyncPeriod, when positive, clocks every node at this period: the
	// synchronous-NoC comparison point of the paper's future work. Node
	// traversal is quantized to worst-case cycles and the energy meter
	// charges a load-independent clock tree.
	SyncPeriod sim.Time
	// Faults attaches a deterministic fault schedule and enables the
	// CRC-checked end-to-end retransmission protocol at the network
	// interfaces. The zero value disables the fault layer entirely: the
	// network builds and runs bit-identically to a spec without it.
	Faults fault.Config
	// Chiplet, when non-nil, composes MeshW x MeshH copies of this die
	// on an interposer mesh with die-to-die links (see internal/chiplet).
	// Every die is an independent n x n MoT of this spec's architecture;
	// cross-die packets leave through a per-die egress gateway, cross
	// the interposer hop by hop, and re-inject into the target die's
	// fanout fabric. Nil builds the plain single-die network.
	Chiplet *chiplet.Params
	// Mesh, when non-nil, builds a W x H 2D mesh of XY routers (package
	// mesh) in place of the MoT: N is its tile count, and only Name,
	// PacketLen, Serial and Strategy configure it further (Validate
	// rejects every other field). Serial expands multicast into XY
	// unicasts; otherwise multicast is tree-based with replication at
	// the routers, the mesh Hamiltonian order of the path-based schemes
	// is the snake tile order, and DPM merge costs count XY-tree links.
	Mesh *mesh.Size `json:",omitempty"`
}

// Dies returns the die count of the composition (1 when single-die).
func (s Spec) Dies() int {
	if s.Chiplet == nil {
		return 1
	}
	return s.Chiplet.Dies()
}

// Terminals returns the total source/sink terminal count: Dies() * N.
// Terminal g lives on die g/N at local index g%N.
func (s Spec) Terminals() int { return s.Dies() * s.N }

// CanonicalKey is a stable serialization of every behavior-affecting
// field. The single-die form is byte-identical to the historical engine
// memo key, so persistent result stores stay warm across this API's
// introduction; chiplet compositions append their parameters. A mesh
// key starts "mesh|" and lists the fields a valid mesh spec may set.
func (s Spec) CanonicalKey() string { return string(s.AppendCanonicalKey(nil)) }

// AppendCanonicalKey appends CanonicalKey's bytes to b, so a caller
// hashing the key can build it in a buffer of its own.
func (s Spec) AppendCanonicalKey(b []byte) []byte {
	if s.Mesh != nil {
		return fmt.Appendf(b, "mesh|%s|%dx%d|%d|%v|%s", s.Name, s.Mesh.W, s.Mesh.H, s.PacketLen, s.Serial, s.Strategy)
	}
	b = fmt.Appendf(b, "%s|%d|%d|%d|%v|%d|%d|%v|%s|%d|%d|%+v",
		s.Name, s.N, s.PacketLen, s.Scheme, s.SpecLevels,
		s.SpecKind, s.NonSpecKind, s.Serial, s.Strategy, s.Protocol, s.SyncPeriod,
		s.Faults)
	if s.Chiplet != nil {
		b = fmt.Appendf(b, "|chiplet|%+v", *s.Chiplet)
	}
	return b
}

// maxBuildCost bounds Dies × N² × (PacketLen + 8), which a build's
// memory grows with: the node count grows with dies × radix², and each
// fanout node buffers 4 × PacketLen flits besides a fixed part worth
// about 8. It admits the 8×8-of-64 composition with packets of up to 8
// flits (about 0.7 GB to build at the paper's 5); like the radix limit
// it is a memory guard, not a correctness constraint.
const maxBuildCost = 64 * 64 * 64 * 16

// Validate checks internal consistency.
func (s Spec) Validate() error {
	if s.PacketLen < 1 {
		return fmt.Errorf("network %s: packet length %d < 1", s.Name, s.PacketLen)
	}
	if s.Mesh != nil {
		return s.validateMesh()
	}
	for _, k := range []node.Kind{s.SpecKind, s.NonSpecKind} {
		if k < node.Baseline || k > node.OptNonSpec {
			return fmt.Errorf("network %s: unknown node kind %d", s.Name, int(k))
		}
	}
	if s.Serial && s.NonSpecKind != node.Baseline {
		return fmt.Errorf("network %s: serial baseline must use baseline fanout nodes", s.Name)
	}
	if !s.Serial && s.NonSpecKind == node.Baseline {
		return fmt.Errorf("network %s: baseline fanout nodes cannot route multicast", s.Name)
	}
	if _, err := routing.StrategyFor(s.Strategy, s.Serial); err != nil {
		return fmt.Errorf("network %s: %w", s.Name, err)
	}
	if err := s.Faults.Validate(s.N); err != nil {
		return fmt.Errorf("network %s: %w", s.Name, err)
	}
	if s.Faults.Enabled() && s.PacketLen > 63 {
		return fmt.Errorf("network %s: packet length %d > 63 unsupported with faults (rx bitmask)", s.Name, s.PacketLen)
	}
	if s.N > packet.MaxDests {
		return fmt.Errorf("network %s: die radix %d > %d (destination sets are %d-bit masks; compose smaller dies with a chiplet spec)",
			s.Name, s.N, packet.MaxDests, packet.MaxDests)
	}
	if s.Chiplet != nil {
		if err := s.Chiplet.Validate(s.N); err != nil {
			return fmt.Errorf("network %s: %w", s.Name, err)
		}
		if s.Faults.Enabled() {
			return fmt.Errorf("network %s: Faults: the fault layer is unsupported on chiplet compositions", s.Name)
		}
	}
	if s.N > 0 && s.PacketLen > maxBuildCost/(s.Dies()*s.N*s.N)-8 {
		return fmt.Errorf("network %s: %d die(s) of radix %d with %d-flit packets exceed the build-memory guard",
			s.Name, s.Dies(), s.N, s.PacketLen)
	}
	return nil
}

// validateMesh checks a mesh spec: W >= 2 columns, at most
// packet.MaxDests tiles (a destination set's width) and N their count,
// and none of the fields that configure MoT dies, compositions or the
// fault layer, which a mesh cannot honour.
func (s Spec) validateMesh() error {
	w, h := s.Mesh.W, s.Mesh.H
	if w < 2 || h < 1 || w > packet.MaxDests || h > packet.MaxDests || w*h > packet.MaxDests {
		return fmt.Errorf("network %s: Mesh: %dx%d unsupported (2..%d tiles, W >= 2)", s.Name, w, h, packet.MaxDests)
	}
	if s.N != w*h {
		return fmt.Errorf("network %s: N: %d terminals, but a %dx%d mesh has %d tiles", s.Name, s.N, w, h, w*h)
	}
	if _, err := routing.StrategyFor(s.Strategy, s.Serial); err != nil {
		return fmt.Errorf("network %s: %w", s.Name, err)
	}
	var bad []string
	for _, f := range []struct {
		name string
		set  bool
	}{
		{"Scheme", s.Scheme != 0}, {"SpecLevels", s.SpecLevels != nil},
		{"SpecKind", s.SpecKind != 0}, {"NonSpecKind", s.NonSpecKind != 0},
		{"Protocol", s.Protocol != 0}, {"SyncPeriod", s.SyncPeriod != 0},
		{"Faults", s.Faults.Enabled()}, {"Chiplet", s.Chiplet != nil},
	} {
		if f.set {
			bad = append(bad, f.name)
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("network %s: a mesh does not support %s", s.Name, strings.Join(bad, ", "))
	}
	return nil
}

// grid is a mesh spec's geometry.
func (s Spec) grid() mesh.Grid { return mesh.Grid{W: s.Mesh.W, H: s.Mesh.H, Serial: s.Serial} }

// Placement resolves a MoT spec's fanout-tree geometry and speculation
// placement (the serial baseline has no speculation, so its placement
// only provides tree geometry). A mesh has no fanout trees.
func (s Spec) Placement() (*topology.Placement, error) {
	if s.Mesh != nil {
		return nil, fmt.Errorf("network %s: a %dx%d mesh has no fanout trees", s.Name, s.Mesh.W, s.Mesh.H)
	}
	m, err := topology.New(s.N)
	if err != nil {
		return nil, err
	}
	switch {
	case s.Serial:
		return topology.ForScheme(m, topology.NonSpeculative)
	case s.SpecLevels != nil:
		return topology.NewPlacement(m, s.SpecLevels)
	}
	return topology.ForScheme(m, s.Scheme)
}

// TraceKind classifies trace events.
type TraceKind int

const (
	// TraceInject marks a logical packet entering a source queue.
	TraceInject TraceKind = iota
	// TraceForward marks a fanout node committing a flit to ports.
	TraceForward
	// TraceThrottle marks a fanout node absorbing a redundant flit.
	TraceThrottle
	// TraceDeliver marks a flit landing at a destination interface.
	TraceDeliver
	// TraceRetransmit marks a source NI re-injecting a packet after a
	// missed end-to-end delivery deadline (fault mode only).
	TraceRetransmit
	// TraceDrop marks a source NI writing a packet off after the retry
	// budget is exhausted (fault mode only).
	TraceDrop
)

// String names the trace kind.
func (k TraceKind) String() string {
	switch k {
	case TraceInject:
		return "inject"
	case TraceForward:
		return "forward"
	case TraceThrottle:
		return "throttle"
	case TraceDeliver:
		return "deliver"
	case TraceRetransmit:
		return "retransmit"
	case TraceDrop:
		return "drop"
	default:
		return fmt.Sprintf("TraceKind(%d)", int(k))
	}
}

// TraceEvent is one observable simulation event.
type TraceEvent struct {
	Kind TraceKind
	At   sim.Time
	Flit packet.Flit
	// Tree/Heap identify the fanout node (Forward/Throttle events).
	Tree, Heap int
	// Ports is the output-port count driven (Forward events).
	Ports int
	// Dest is the destination terminal (Deliver events).
	Dest int
}

// Network is one simulated NoC instance.
type Network struct {
	Spec  Spec
	Sched *sim.Scheduler
	// MoT and Placement are the die geometry and speculation placement
	// of a MoT build; both are nil on a mesh.
	MoT       *topology.MoT
	Placement *topology.Placement
	Rec       *metrics.Recorder
	Meter     *power.Meter
	// Trace, when set, observes inject/forward/throttle/deliver events.
	Trace func(TraceEvent)

	// Every component lives in one slice per kind, written in place by
	// build: fanouts and fanins hold N-1 nodes per tree (heap k of tree
	// t = die*N + local is element t*(N-1)+k-1, see fanout and fanin),
	// links every channel in wiring order, and fifos the output FIFO
	// backing of every fanout. Rebuild keeps their storage.
	sources []SourceNI
	sinks   []SinkNI
	fanouts []node.Fanout
	fanins  []node.Fanin
	links   []node.Channel
	fifos   []packet.Flit
	// routers holds one router per tile on a mesh build in place of the
	// fanout and fanin trees; empty on a MoT.
	routers []mesh.Router

	// egress holds one die-to-die gateway per die (chiplet compositions
	// only, empty otherwise).
	egress []d2dEgress

	// inj owns the fault schedule; nil when Spec.Faults is disabled.
	inj *fault.Injector

	// strat plans every injection against fabric.
	strat  routing.Strategy
	fabric routing.Fabric

	nextID uint64

	// acct is the serial accounting context: every side effect applies
	// directly through it. Sharded networks instead carry one context
	// per shard in rts, deferring effects for barrier replay (shard.go).
	acct    actx
	group   *sim.ShardGroup
	shardOf []int // die -> shard; nil on serial networks
	rts     []*shardRT
	// replayAt backs the sharded meter's Now() during barrier replay: it
	// tracks the timestamp of the meter effect being applied.
	replayAt sim.Time
}

// FaultStats exposes the run's fault and recovery counters, or nil when
// the fault layer is disabled.
func (nw *Network) FaultStats() *fault.Stats {
	if nw.inj == nil {
		return nil
	}
	return &nw.inj.Stats
}

// base validates spec and writes the scheduler-independent skeleton
// shared by New, Rebuild and NewSharded into nw: topology, placement
// (none on a mesh), recorder, and routing strategy. Every field of nw
// is rewritten. Only storage carries over, emptied: the component
// slices, the fault channel list, the recorder and the accounting
// context's buffers (a new network has none); build resets the
// scheduler and meter.
func (nw *Network) base(spec Spec) error {
	if err := spec.Validate(); err != nil {
		return err
	}
	var m *topology.MoT
	var pl *topology.Placement
	levels := 0
	fabric := routing.Fabric{Serial: spec.Serial}
	if spec.Mesh != nil {
		fabric.Mask = spec.grid()
	} else {
		var err error
		if pl, err = spec.Placement(); err != nil {
			return err
		}
		m = pl.MoT()
		levels, fabric.Placement = m.Levels, pl
	}
	rec := nw.Rec
	if rec == nil {
		rec = metrics.NewRecorder()
	} else {
		rec.Reset()
	}
	pktFree := nw.acct.pktFree
	clear(pktFree[:cap(pktFree)])
	*nw = Network{
		Spec:      spec,
		Sched:     nw.Sched,
		MoT:       m,
		Placement: pl,
		Rec:       rec,
		Meter:     nw.Meter,
		sources:   nw.sources[:0],
		sinks:     nw.sinks[:0],
		fanouts:   nw.fanouts[:0],
		fanins:    nw.fanins[:0],
		links:     nw.links[:0],
		fifos:     nw.fifos[:0],
		routers:   nw.routers[:0],
		egress:    nw.egress[:0],
		fabric:    fabric,
		acct:      actx{planBuf: nw.acct.planBuf[:0], pktFree: pktFree[:0]},
	}
	nw.Rec.SetLevels(levels)
	if spec.Chiplet != nil {
		nw.Rec.SetHierarchy(true)
	}
	// Validate() vetted the name.
	nw.strat, _ = routing.StrategyFor(spec.Strategy, spec.Serial)
	return nil
}

// applySyncBackground charges the synchronous comparison point's clock
// tree as a load-independent background power.
func (nw *Network) applySyncBackground() {
	if nw.Spec.SyncPeriod <= 0 {
		return
	}
	nodes := float64(nw.Spec.Dies()) * float64(nw.MoT.TotalFanoutNodes()+nw.MoT.TotalFaninNodes())
	// fJ per ps is mW: clock energy per node per cycle over the period.
	nw.Meter.BackgroundMW = nodes * power.ClockTreeFJPerNodeCycle / float64(nw.Spec.SyncPeriod)
}

// New builds a network instance with its own scheduler, recorder, and
// energy meter.
func New(spec Spec) (*Network, error) { return Rebuild(new(Network), spec) }

// Rebuild builds spec on the storage of nw, a serial network whose run
// has ended and that nothing references any more, and returns it. The
// result is in exactly the state New(spec) returns: every component is
// written as a whole value, and only the capacity of nw's component
// slices, pools and buffers carries over. On an error nw is unusable.
func Rebuild(nw *Network, spec Spec) (*Network, error) {
	if nw.group != nil {
		panic("network: Rebuild of a sharded network")
	}
	if err := nw.base(spec); err != nil {
		return nil, err
	}
	if nw.Sched == nil {
		nw.Sched = sim.NewScheduler()
		nw.Meter = power.NewMeter(nw.Sched.Now)
	} else {
		nw.Sched.Reset()
		nw.Meter.Reset()
	}
	nw.acct.init(nw, nw.Sched, nil)
	if spec.Faults.Enabled() {
		// The injector must exist before build(): every channel draws its
		// fault stream in wiring order.
		nw.inj = fault.NewInjector(spec.Faults)
		// With a retry budget a packet can be written off while its last
		// attempt's flits are still in flight; those stragglers must not
		// trip the strict unregistered-delivery panic.
		nw.Rec.SetLossTolerant(true)
	}
	nw.build()
	for _, st := range spec.Faults.Stuck {
		nw.fanout(st.Tree, st.Heap).OutputChannel(topology.Port(st.Port)).Faults.SetStuck(st.After)
	}
	nw.applySyncBackground()
	return nw, nil
}

// ownerOf resolves the terminal whose accounting context allocated p:
// the explicit Owner when set (chiplet ingress legs are allocated at
// the target die, not at p.Src's), the injecting source otherwise.
func ownerOf(p *packet.Packet) int {
	if p.Owner > 0 {
		return int(p.Owner) - 1
	}
	return p.Src
}

// releaseCopy drops one reference to p: a retired flit copy, the end of
// the fault-mode retransmission tracker's hold, or a serial clone's
// death (which also drops one of its parent's). At zero no flit, channel
// or tracker references p, and it returns to the freelist of its owning
// context — the context that allocates it (DESIGN.md §11 lists every
// fate); in fault mode its receive-dedup entries go too. Callers invoke
// it after all other uses of the packet in the same event, so no
// recycled packet is ever read through a stale flit.
func (nw *Network) releaseCopy(p *packet.Packet) {
	p.Refs--
	if p.Refs != 0 {
		return
	}
	if nw.inj != nil {
		nw.forgetRx(p)
	}
	parent := p.Parent
	fc := nw.actxFor(ownerOf(p))
	fc.pktFree = append(fc.pktFree, p)
	if parent != nil {
		parent.Refs--
		if parent.Refs == 0 {
			fc = nw.actxFor(ownerOf(parent))
			fc.pktFree = append(fc.pktFree, parent)
		}
	}
}

// forgetRx frees the receive-dedup entries p left at its destinations'
// sinks. p has no reference left, so no copy of it can still arrive
// (fault runs are single-die: p.Dests index the sinks directly).
func (nw *Network) forgetRx(p *packet.Packet) {
	for v := uint64(p.Dests); v != 0; v &= v - 1 {
		ni := &nw.sinks[bits.TrailingZeros64(v)]
		if h, ok := ni.rxIdx.Get(p.ID); ok {
			ni.rxGot.Free(h)
			ni.rxIdx.Delete(p.ID)
		}
	}
}

// kindFor returns the node behavior for heap position k.
func (nw *Network) kindFor(k int) node.Kind {
	if nw.Spec.Serial {
		return node.Baseline
	}
	if nw.Placement.IsSpeculative(k) {
		return nw.Spec.SpecKind
	}
	return nw.Spec.NonSpecKind
}

// channel wires a link with the standard wire delays and energy hook.
// The sending side's accounting context owns the channel: Send runs on
// its shard, so both the deliver event and the traversal energy charge
// originate there.
func (nw *Network) channel(a *actx, dst node.Sink, dstPort int, src node.AckTarget, srcPort int) *node.Channel {
	// build reserved every link: the append never moves the slice.
	nw.links = append(nw.links, node.Channel{
		Sched:    a.sched,
		FwdDelay: timing.ChannelFwd,
		AckDelay: timing.ChannelAckFor(nw.Spec.Protocol),
		Dst:      dst,
		DstPort:  dstPort,
		Src:      src,
		SrcPort:  srcPort,
		Hooks:    a,
	})
	ch := &nw.links[len(nw.links)-1]
	if nw.inj != nil {
		ch.Faults = nw.inj.Channel()
	}
	return ch
}

// The accounting context is the one hooks value of every channel and
// node it owns (node.ChannelHooks, FanoutHooks, FaninHooks): wiring
// builds no closure, and each hook is one interface call on the hot
// path. The node passes itself, so its identity and area are read
// where the effect is applied.

// ChannelTraversed charges one wire traversal.
func (a *actx) ChannelTraversed(packet.Flit) { a.meterChannel() }

// ChannelRetired drops the reference of a flit copy that died in the
// channel's handshake.
func (a *actx) ChannelRetired(f packet.Flit) { a.release(f.Pkt) }

// FanoutForwarded charges, counts and traces a fanout commit to `ports`
// output channels.
func (a *actx) FanoutForwarded(n *node.Fanout, f packet.Flit, ports int) {
	now := a.sched.Now()
	a.meterForward(n.Timing().AreaUm2, ports)
	a.recForwarded(a.nw.MoT.LevelOf(n.Heap), now)
	if a.nw.Trace != nil {
		a.trace(TraceEvent{Kind: TraceForward, At: now, Flit: f, Tree: n.Tree, Heap: n.Heap, Ports: ports})
	}
	// A replication turns one live copy into `ports`. Applied eagerly
	// even when sharded: every increment of a packet's refcount happens
	// on its source tree's shard (shard.go).
	f.Pkt.Refs += int32(ports - 1)
}

// FanoutAbsorbed charges, counts and traces a throttled flit.
func (a *actx) FanoutAbsorbed(n *node.Fanout, f packet.Flit) {
	now := a.sched.Now()
	a.meterAbsorb(n.Timing().AreaUm2)
	a.recThrottled(a.nw.MoT.LevelOf(n.Heap), now)
	if a.nw.Trace != nil {
		a.trace(TraceEvent{Kind: TraceThrottle, At: now, Flit: f, Tree: n.Tree, Heap: n.Heap})
	}
}

// FaninForwarded charges a fanin grant.
func (a *actx) FaninForwarded(n *node.Fanin, _ packet.Flit) {
	a.meterForward(n.Timing().AreaUm2, 1)
}

// ChannelHold identifies a flit occupying one channel at a sampling
// instant: the channel's wiring ordinal plus the flit's identity. A flit
// never traverses the same channel twice (routes are loop-free and every
// retransmission carries a fresh attempt number), so two samples with an
// equal hold mean the flit sat in the channel the whole interval.
type ChannelHold struct {
	Chan    int
	Pkt     uint64
	Index   int
	Attempt int
}

// ChannelHolds snapshots every in-flight channel in deterministic wiring
// order. Only available with the fault layer enabled (nil otherwise);
// the watchdog compares consecutive snapshots to detect wedged links
// while traffic injection is still live.
func (nw *Network) ChannelHolds() []ChannelHold {
	if nw.inj == nil {
		return nil
	}
	var holds []ChannelHold
	for i := range nw.links {
		if f, ok := nw.links[i].InFlightFlit(); ok {
			holds = append(holds, ChannelHold{Chan: i, Pkt: f.Pkt.ID, Index: int(f.Index), Attempt: int(f.Attempt)})
		}
	}
	return holds
}

// build instantiates and wires every node, interface, and channel. On a
// chiplet composition the per-die structure repeats Terminals()/N times
// — tree t belongs to die t/N at local index t%N — and every die also
// gets its egress gateway; a single-die build reduces to the historical
// wiring exactly (die 0, local == global). A mesh spec wires its routers
// instead (buildMesh).
func (nw *Network) build() {
	if nw.Spec.Mesh != nil {
		nw.buildMesh()
		return
	}
	n := nw.Spec.N
	terms := nw.Spec.Terminals()
	nodes := terms * (n - 1)
	// Multicast-capable networks decouple replication branches with a
	// two-packet FIFO per output port (see node.Fanout): headers reserve
	// a full packet of space (virtual cut-through), and the second
	// packet's worth of slots lets consecutive packets overlap. The
	// serial baseline keeps the plain bufferless switch of [21].
	fifoCap := 2 * nw.Spec.PacketLen
	if nw.Spec.Serial {
		fifoCap = 1
	}
	nw.fanouts = resize(nw.fanouts, nodes)
	nw.fanins = resize(nw.fanins, nodes)
	nw.fifos = resize(nw.fifos, nodes*2*fifoCap)
	nw.sources = resize(nw.sources, terms)
	nw.sinks = resize(nw.sinks, terms)
	// Per tree: the root link, two output links per fanout node, N-2
	// internal fanin links and the sink link.
	links := terms * (3*n - 2)
	nw.links = slices.Grow(nw.links[:0], links)
	for t := 0; t < terms; t++ {
		a := nw.actxFor(t)
		for k := 1; k < n; k++ {
			i := t*(n-1) + k - 1
			fo := &nw.fanouts[i]
			fo.Init(a.sched, nw.kindFor(k), t, k, nw.Placement, nw.fifos[2*fifoCap*i:2*fifoCap*(i+1):2*fifoCap*(i+1)], nw.Spec.Protocol)
			if nw.Spec.SyncPeriod > 0 {
				fo.Clock(nw.Spec.SyncPeriod)
			}
			fo.Hooks = a

			fi := &nw.fanins[i]
			fi.Init(a.sched, t, k, nw.Spec.Protocol)
			if nw.Spec.SyncPeriod > 0 {
				fi.Clock(nw.Spec.SyncPeriod)
			}
			fi.Hooks = a
		}
		nw.sources[t].init(nw, t)
		nw.sinks[t].init(nw, t)
	}
	// Wire the channels.
	for t := 0; t < terms; t++ {
		a := nw.actxFor(t)
		die, lt := t/n, t%n
		// Source NI -> fanout root.
		root := nw.channel(a, nw.fanout(t, 1), 0, &nw.sources[t], 0)
		nw.sources[t].out = root
		nw.fanout(t, 1).ConnectInput(root)
		for k := 1; k < n; k++ {
			for _, p := range []topology.Port{topology.Top, topology.Bottom} {
				c := nw.MoT.Child(k, p)
				if c < n {
					// Internal fanout link.
					ch := nw.channel(a, nw.fanout(t, c), 0, nw.fanout(t, k), int(p))
					nw.fanout(t, k).ConnectOutput(p, ch)
					nw.fanout(t, c).ConnectInput(ch)
				} else {
					// Leaf crossing: fanout tree t, leaf for local dest
					// d, enters the same die's fanin tree d at the leaf
					// slot for local source t%n. Both trees are on the
					// die, so the channel stays on one scheduler even in
					// a sharded build.
					d := c - n
					gd := die*n + d
					fiHeap := (n + lt) / 2
					fiPort := (n + lt) % 2
					ch := nw.channel(a, nw.fanin(gd, fiHeap), fiPort, nw.fanout(t, k), int(p))
					nw.fanout(t, k).ConnectOutput(p, ch)
					nw.fanin(gd, fiHeap).ConnectInput(fiPort, ch)
				}
			}
		}
		// Fanin internal links (leaves toward root) and root -> sink.
		for k := n - 1; k >= 2; k-- {
			parent, via := nw.MoT.Parent(k)
			ch := nw.channel(a, nw.fanin(t, parent), int(via), nw.fanin(t, k), 0)
			nw.fanin(t, k).ConnectOutput(ch)
			nw.fanin(t, parent).ConnectInput(int(via), ch)
		}
		sinkCh := nw.channel(a, &nw.sinks[t], 0, nw.fanin(t, 1), 0)
		nw.fanin(t, 1).ConnectOutput(sinkCh)
		nw.sinks[t].in = sinkCh
	}
	if len(nw.links) != links {
		panic(fmt.Sprintf("network: wired %d links, reserved %d", len(nw.links), links))
	}
	if nw.Spec.Chiplet != nil {
		nw.egress = resize(nw.egress, nw.Spec.Dies())
		for die := range nw.egress {
			nw.egress[die].init(nw, die)
		}
	}
}

// resize returns s with length n, on its own storage when the capacity
// suffices. Callers overwrite every element.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// fanout returns heap node k of fanout tree t.
func (nw *Network) fanout(t, k int) *node.Fanout { return &nw.fanouts[t*(nw.Spec.N-1)+k-1] }

// fanin returns heap node k of fanin tree t.
func (nw *Network) fanin(t, k int) *node.Fanin { return &nw.fanins[t*(nw.Spec.N-1)+k-1] }

// Inject creates a logical packet from src to dests at the current
// simulation time, plans it under the network's routing strategy, and
// queues the resulting physical packets back-to-back through the source
// interface. A single-packet plan covering the whole set rides the
// logical packet itself; any expansion (the serial baseline always, and
// every partitioning strategy) injects one clone per plan, each linked
// to the logical parent for delivery accounting. The returned packet is
// pool-owned: it recycles as soon as its last reference is released, so
// callers must not read it after advancing the scheduler.
func (nw *Network) Inject(src int, dests packet.DestSet) (*packet.Packet, error) {
	if nw.Spec.Chiplet != nil {
		return nil, fmt.Errorf("network %s: flat Inject cannot address a chiplet composition; use InjectWide", nw.Spec.Name)
	}
	if src < 0 || src >= nw.Spec.N {
		return nil, fmt.Errorf("network %s: source %d out of range", nw.Spec.Name, src)
	}
	if dests.Empty() {
		return nil, fmt.Errorf("network %s: empty destination set", nw.Spec.Name)
	}
	return nw.injectLeg(src, src, dests, nw.actxFor(src).sched.Now(), 0)
}

// InjectWide injects a hierarchically addressed packet on a chiplet
// composition: src is a global terminal and byDie carries one local
// destination mask per die (at least one non-empty). The source die's
// leg — if any — enters its fanout fabric immediately; every remote
// die's leg queues at the source die's egress gateway, crosses the
// interposer, and re-injects into the target die on arrival. Each leg
// is an independently tracked packet whose latency is measured from
// this call, so D2D transit time lands in the D2D latency class.
func (nw *Network) InjectWide(src int, byDie []packet.DestSet) error {
	if nw.Spec.Chiplet == nil {
		return fmt.Errorf("network %s: InjectWide requires a chiplet composition (use Inject)", nw.Spec.Name)
	}
	if src < 0 || src >= nw.Spec.Terminals() {
		return fmt.Errorf("network %s: source %d out of range", nw.Spec.Name, src)
	}
	if len(byDie) != nw.Spec.Dies() {
		return fmt.Errorf("network %s: destination masks for %d die(s), composition has %d", nw.Spec.Name, len(byDie), nw.Spec.Dies())
	}
	srcDie := src / nw.Spec.N
	now := nw.actxFor(src).sched.Now()
	any := false
	for die, dests := range byDie {
		if dests.Empty() {
			continue
		}
		any = true
		if die == srcDie {
			if _, err := nw.injectLeg(src, src, dests, now, 0); err != nil {
				return err
			}
			continue
		}
		nw.egress[srcDie].push(d2dLeg{dstDie: die, src: src, dests: dests, created: now})
	}
	if !any {
		return fmt.Errorf("network %s: empty destination set", nw.Spec.Name)
	}
	return nil
}

// injectLeg creates one physical injection through terminal anchor's
// source interface: origin is the original (global) injecting source
// recorded on the packet, dests the destination mask local to anchor's
// die, created the logical creation time latency is measured from, and
// hops the D2D mesh distance already crossed (0 for intra-die legs).
// The single-die Inject path is injectLeg(src, src, dests, now, 0) —
// byte-identical to the historical inline body.
func (nw *Network) injectLeg(anchor, origin int, dests packet.DestSet, created sim.Time, hops int) (*packet.Packet, error) {
	a := nw.actxFor(anchor)
	// Plan first: a rejected destination set leaves no packet behind.
	a.planBuf = a.planBuf[:0]
	if err := nw.strat.Plan(nw.fabric, anchor%nw.Spec.N, dests, a.emitPlan); err != nil {
		return nil, err
	}
	now := a.sched.Now()
	p := a.allocPacket()
	a.assignID(p)
	p.Src = origin
	p.Owner = int32(anchor) + 1
	p.D2DHops = uint8(hops)
	p.Dests = dests
	p.Length = nw.Spec.PacketLen
	p.CreatedAt = int64(created)
	a.recCreated(p, created)
	if nw.Trace != nil {
		a.trace(TraceEvent{Kind: TraceInject, At: now, Flit: packet.Flit{Pkt: p}})
	}
	plans := a.planBuf
	if !nw.Spec.Serial && len(plans) == 1 && plans[0].Dests == dests {
		p.Route = plans[0].Route
		nw.sources[anchor].enqueue(p)
		return p, nil
	}
	// Expanded plan: the logical parent's refcount holds one reference
	// per clone; it recycles when its last clone does.
	p.Refs = int32(len(plans))
	for i := range plans {
		clone := a.allocPacket()
		a.assignID(clone)
		clone.Src = origin
		clone.Owner = p.Owner
		clone.D2DHops = p.D2DHops
		clone.Dests = plans[i].Dests
		clone.Length = nw.Spec.PacketLen
		clone.Route = plans[i].Route
		clone.Parent = p
		clone.CreatedAt = int64(created)
		nw.sources[anchor].enqueue(clone)
	}
	return p, nil
}

// d2dLeg is one cross-die delivery awaiting (or crossing) the
// interposer: plain values only — the leg's Packet is allocated at
// ingress by the target die's accounting context, so every pooling
// operation stays on the packet's owning shard.
type d2dLeg struct {
	dstDie  int
	src     int // original global source terminal
	dests   packet.DestSet
	created sim.Time
}

// d2dEgress is one die's die-to-die gateway: an output queue serialized
// one packet at a time onto the interposer link (PacketLen flits at
// FlitSerPs each), charging the D2D link energy at each departure. A
// departed leg waits in the gateway's inflight slab until its
// hop-delayed arrival event, whose argument is the leg's slot, re-injects
// it at the target die. The gateway lives on its die's shard; that
// arrival is the only event that crosses shard regions in a
// die-partitioned build.
type d2dEgress struct {
	nw       *Network
	a        *actx
	die      int
	queue    pool.Ring[d2dLeg]
	busy     bool
	inflight pool.Slab[d2dLeg]
	arrive   d2dArrival
}

// init builds the gateway of die in place, keeping the storage of its
// queue and inflight slab.
func (eg *d2dEgress) init(nw *Network, die int) {
	q, fl := eg.queue, eg.inflight
	q.Reset()
	fl.Reset()
	*eg = d2dEgress{nw: nw, a: nw.actxFor(die * nw.Spec.N), die: die, queue: q, inflight: fl}
	eg.arrive.eg = eg
}

func (eg *d2dEgress) push(l d2dLeg) {
	eg.queue.Push(l)
	eg.pump()
}

// pump starts serializing the head-of-line leg when the link is idle.
func (eg *d2dEgress) pump() {
	if eg.busy || eg.queue.Len() == 0 {
		return
	}
	eg.busy = true
	ser := sim.Time(eg.nw.Spec.PacketLen) * eg.nw.Spec.Chiplet.FlitSerPs()
	eg.a.sched.In(ser, eg, 0)
}

// OnEvent implements sim.Handler: serialization of the head leg is
// complete — charge the link energy, park the leg in the inflight slab,
// schedule its arrival at the target die, and free the link for the
// next leg.
func (eg *d2dEgress) OnEvent(int64) {
	l := eg.queue.Pop()
	cp := eg.nw.Spec.Chiplet
	hops := cp.Hops(eg.die, l.dstDie)
	flitHops := eg.nw.Spec.PacketLen * hops
	eg.a.meterD2D(flitHops, float64(flitHops)*cp.FlitHopPJ())
	// The target die's shard frees the slot this shard allocates. That
	// needs no lock: every shard window runs inline on one goroutine
	// (SetParallel(true) panics), so no two windows touch the slab at
	// once, and the flight lasts at least HopPs, the group's lookahead,
	// so the arrival runs in a later window than this departure.
	h, slot := eg.inflight.Alloc()
	*slot = l
	delay := sim.Time(hops) * cp.HopPs
	slotArg := int64(h.Index())
	if nw := eg.nw; nw.shardOf != nil && nw.shardOf[eg.die] != nw.shardOf[l.dstDie] {
		nw.group.Cross(nw.shardOf[eg.die], nw.shardOf[l.dstDie]).Send(delay, &eg.arrive, slotArg)
	} else {
		eg.a.sched.In(delay, &eg.arrive, slotArg)
	}
	eg.busy = false
	eg.pump()
}

// d2dArrival is the arrival handler of one gateway's legs, built with
// the gateway; its event argument is the arriving leg's inflight slot.
// Arrival re-injects the leg into the target die's fanout fabric
// through a deterministic anchor terminal: the target die's tree with
// the source's local index, so ingress load spreads across the die
// exactly like the die's own sources.
type d2dArrival struct{ eg *d2dEgress }

// OnEvent implements sim.Handler (runs on the target die's shard).
func (ar *d2dArrival) OnEvent(slot int64) {
	eg := ar.eg
	l := *eg.inflight.At(int32(slot))
	eg.inflight.FreeAt(int32(slot))
	nw := eg.nw
	anchor := l.dstDie*nw.Spec.N + l.src%nw.Spec.N
	hops := nw.Spec.Chiplet.Hops(eg.die, l.dstDie)
	if _, err := nw.injectLeg(anchor, l.src, l.dests, l.created, hops); err != nil {
		panic(fault.Violationf("network", "d2d ingress at die %d: %v", l.dstDie, err))
	}
}

// SourceQueueLen returns the backlog (in flits) of one source interface.
func (nw *Network) SourceQueueLen(src int) int {
	ni := &nw.sources[src]
	n := -ni.next
	for i := 0; i < ni.queue.Len(); i++ {
		n += ni.queue.At(i).pkt.Length
	}
	return n
}

// StuckFlit locates one flit held somewhere in the network fabric.
type StuckFlit struct {
	// Where names the holding element, e.g. "channel fanout 3/2.T".
	Where string
	// Flit renders the held flit.
	Flit string
}

// portNames labels fanout output ports in diagnostics. Hoisted to package
// level so StuckFlits (called per watchdog poll) does not rebuild a map
// per call.
var portNames = map[topology.Port]string{topology.Top: "T", topology.Bottom: "B"}

// StuckFlits walks every queue, node stage, and channel in deterministic
// order — fanout and fanin trees on a MoT, router inputs, FIFOs and
// links on a mesh — and reports each flit still held inside the fabric.
// A healthy network that has quiesced (empty event queue) holds none; a
// non-empty result with an empty event queue is a deadlock, and the
// listed locations are the watchdog's diagnostic.
func (nw *Network) StuckFlits() []StuckFlit {
	var out []StuckFlit
	add := func(where string, f packet.Flit) {
		out = append(out, StuckFlit{Where: where, Flit: f.String()})
	}
	n := nw.Spec.N
	for t := 0; t < nw.Spec.Terminals(); t++ {
		ni := &nw.sources[t]
		for i, next := 0, ni.next; i < ni.queue.Len(); i, next = i+1, 0 {
			e := ni.queue.At(i)
			for ; next < e.pkt.Length; next++ {
				add(fmt.Sprintf("source %d queue", t), e.flitAt(next))
			}
		}
		if nw.MoT == nil {
			if f, ok := nw.sources[t].out.InFlightFlit(); ok {
				add(fmt.Sprintf("channel source %d -> router %d", t, t), f)
			}
			nw.routerStuck(t, add)
			continue
		}
		if f, ok := nw.sources[t].out.InFlightFlit(); ok {
			add(fmt.Sprintf("channel source %d -> fanout %d/1", t, t), f)
		}
		for k := 1; k < n; k++ {
			fo := nw.fanout(t, k)
			if f, ok := fo.InputPending(); ok {
				add(fmt.Sprintf("fanout %d/%d input", t, k), f)
			}
			for _, p := range []topology.Port{topology.Top, topology.Bottom} {
				fo.EachQueued(p, func(f packet.Flit) {
					add(fmt.Sprintf("fanout %d/%d fifo.%s", t, k, portNames[p]), f)
				})
				if f, ok := fo.OutputChannel(p).InFlightFlit(); ok {
					add(fmt.Sprintf("channel fanout %d/%d.%s", t, k, portNames[p]), f)
				}
			}
			fi := nw.fanin(t, k)
			for port := 0; port < 2; port++ {
				if f, ok := fi.PendingFlit(port); ok {
					add(fmt.Sprintf("fanin %d/%d input %d", t, k, port), f)
				}
			}
			fi.EachQueued(func(f packet.Flit) {
				add(fmt.Sprintf("fanin %d/%d fifo", t, k), f)
			})
			if f, ok := fi.OutputChannel().InFlightFlit(); ok {
				add(fmt.Sprintf("channel fanin %d/%d", t, k), f)
			}
		}
	}
	return out
}

// Source and sink interface event payloads. The low byte selects the
// action; the high bits carry a small operand (the tx-slab slot index for
// retransmission timers), mirroring the node package's encoding.
const (
	// evNIPump: the source interface cycle elapsed — resume the queue.
	evNIPump = 0
	// evNITimeout: a tracked packet's retransmission deadline passed;
	// arg>>8 is its tx-slab slot.
	evNITimeout = 1

	// evSinkConsume: the sink consume time elapsed — return the channel ack.
	evSinkConsume = 0
	// evSinkEndAck: an end-to-end delivery acknowledge matured — pop the
	// ack queue and confirm at the source.
	evSinkEndAck = 1
)

// SourceNI is a source network interface: an injection queue drained one
// flit per root-channel handshake. With the fault layer enabled it also
// runs the sender half of the end-to-end retransmission protocol: every
// packet is tracked until all destinations return a delivery acknowledge,
// and a per-attempt timer with capped exponential backoff re-injects the
// whole packet until the retry budget runs out.
//
// All per-packet state lives in pooled storage: the queue is a ring
// buffer of packet attempts and the retransmission tracker a slab keyed
// by the handle stored in Packet.TxSlot, so a steady-state transaction
// allocates nothing.
type SourceNI struct {
	nw  *Network
	a   *actx
	src int
	out *node.Channel
	// queue holds one entry per queued packet attempt, and next is the
	// index of the head entry's next flit: a flit is materialized only
	// when pump sends it.
	queue pool.Ring[queuedAttempt]
	next  int
	busy  bool

	// txSlab tracks unacknowledged packets (fault mode only). Timer
	// events carry the raw slot index; the invariant that
	// makes that safe is cancel-before-free: confirm cancels the timer
	// before freeing the slot, and a firing timeout either frees without
	// rearming or rearms while the slot is still live, so a pending
	// timer's slot is always the occupant it was armed for.
	txSlab pool.Slab[txState]
}

// queuedAttempt is one transmission attempt of a packet waiting in its
// source queue.
type queuedAttempt struct {
	pkt     *packet.Packet
	attempt int32
}

// flitAt materializes flit i of the attempt.
func (q queuedAttempt) flitAt(i int) packet.Flit {
	f := q.pkt.FlitAt(i)
	f.Attempt = q.attempt
	return f
}

// txState is one tracked packet awaiting end-to-end acknowledgment.
type txState struct {
	pkt         *packet.Packet
	outstanding packet.DestSet
	attempts    int
	timer       sim.EventID
}

// init builds the interface of terminal src in place, keeping the
// storage of its queue and tracker.
func (ni *SourceNI) init(nw *Network, src int) {
	q, tx := ni.queue, ni.txSlab
	q.Reset()
	tx.Reset()
	*ni = SourceNI{nw: nw, a: nw.actxFor(src), src: src, queue: q, txSlab: tx}
}

func (ni *SourceNI) enqueue(p *packet.Packet) {
	// The packet's initial refcount is its flits, each holding one from
	// its queue entry on until it dies, plus the tracker's hold in fault
	// mode.
	p.Refs = int32(p.Length)
	if ni.nw.inj != nil {
		h, st := ni.txSlab.Alloc()
		st.pkt = p
		st.outstanding = p.Dests
		p.TxSlot = h
		p.Refs++
		ni.arm(h.Index(), st)
	}
	ni.queue.Push(queuedAttempt{pkt: p})
	ni.pump()
}

// arm schedules the retransmission timer for the packet's next attempt.
func (ni *SourceNI) arm(slot int32, st *txState) {
	cfg := ni.nw.inj.Config()
	st.timer = ni.a.sched.In(sim.Time(cfg.BackoffPs(st.attempts+1)), ni,
		int64(slot)<<8|evNITimeout)
}

// timeout fires when a tracked packet missed its delivery deadline:
// retransmit all flits, or write the packet off once the budget is spent.
func (ni *SourceNI) timeout(slot int32) {
	st := ni.txSlab.At(slot)
	cfg := ni.nw.inj.Config()
	stats := &ni.nw.inj.Stats
	if st.attempts >= cfg.MaxRetries {
		pkt, attempts := st.pkt, st.attempts
		stats.LostFlits += pkt.Length * st.outstanding.Count()
		stats.LostPackets++
		ni.txSlab.Free(pkt.TxSlot)
		// Release the recorder's per-packet tracking state: the packet
		// can never complete, and soak runs must not accumulate it.
		ni.nw.Rec.PacketLost(pkt, ni.a.sched.Now())
		if ni.nw.Trace != nil {
			ni.a.trace(TraceEvent{Kind: TraceDrop, At: ni.a.sched.Now(),
				Flit: packet.Flit{Pkt: pkt, Attempt: int32(attempts)}})
		}
		// The tracker's hold ends; copies of the last attempt still in
		// flight keep the packet live until they die.
		ni.a.release(pkt)
		return
	}
	st.attempts++
	stats.Retries++
	if ni.nw.Trace != nil {
		ni.a.trace(TraceEvent{Kind: TraceRetransmit, At: ni.a.sched.Now(),
			Flit: packet.Flit{Pkt: st.pkt, Attempt: int32(st.attempts)}})
	}
	st.pkt.Refs += int32(st.pkt.Length)
	ni.queue.Push(queuedAttempt{pkt: st.pkt, attempt: int32(st.attempts)})
	ni.arm(slot, st)
	ni.pump()
}

// confirm processes one destination's end-to-end delivery acknowledge.
// A stale handle (the packet already completed or was written off, and
// the slot's generation advanced) is a no-op.
func (ni *SourceNI) confirm(h pool.Handle, dest int) {
	st := ni.txSlab.Get(h)
	if st == nil {
		return // already complete or written off
	}
	st.outstanding &^= packet.Dest(dest)
	if st.outstanding.Empty() {
		ni.a.sched.Cancel(st.timer)
		pkt := st.pkt
		ni.txSlab.Free(h)
		ni.a.release(pkt)
	}
}

func (ni *SourceNI) pump() {
	if ni.busy || ni.queue.Len() == 0 {
		return
	}
	head := ni.queue.At(0)
	f := head.flitAt(ni.next)
	if ni.next++; ni.next == head.pkt.Length {
		ni.queue.Pop()
		ni.next = 0
	}
	ni.busy = true
	ni.a.meterInterface()
	ni.out.Send(f)
}

// OnAck implements node.AckTarget: the root channel returned its ack.
func (ni *SourceNI) OnAck(int) {
	ni.a.sched.In(timing.NICycle, ni, evNIPump)
}

// OnEvent implements sim.Handler: the source interface's timer events.
func (ni *SourceNI) OnEvent(arg int64) {
	switch arg & 0xff {
	case evNIPump:
		ni.busy = false
		ni.pump()
	case evNITimeout:
		ni.timeout(int32(arg >> 8))
	}
}

// SinkNI is a destination network interface: it consumes flits, records
// deliveries, and acknowledges after its consume time. With the fault
// layer enabled it runs the receiver half of the recovery protocol:
// CRC-check every flit, drop corrupt ones, deduplicate retransmitted
// copies, and return an end-to-end delivery acknowledge once a packet's
// every flit has landed clean.
type SinkNI struct {
	nw   *Network
	a    *actx
	dest int
	in   *node.Channel

	// rxGot/rxIdx deduplicate per-packet flit arrivals by a bitmask over
	// the flit indices received clean (fault mode only). A packet's
	// entries live until its last reference is released (forgetRx):
	// stragglers of a written-off packet still hold it, so they still
	// deduplicate, and the state stays bounded by the packets live at
	// once.
	rxGot pool.Slab[uint64]
	rxIdx pool.IDMap

	// acks queues matured end-to-end acknowledges. Every ack matures
	// after the same constant delay, so the scheduler fires evSinkEndAck
	// events in push order and a FIFO carries the (source, tx handle)
	// payload without a per-ack closure.
	acks pool.Ring[endAck]
}

// endAck is one pending end-to-end delivery acknowledge.
type endAck struct {
	src int
	h   pool.Handle // the packet's tx-slab handle at its source
}

// init builds the interface of terminal dest in place, keeping the
// storage of its dedup state and acknowledge queue.
func (ni *SinkNI) init(nw *Network, dest int) {
	got, idx, acks := ni.rxGot, ni.rxIdx, ni.acks
	got.Reset()
	idx.Reset()
	acks.Reset()
	*ni = SinkNI{nw: nw, a: nw.actxFor(dest), dest: dest, rxGot: got, rxIdx: idx, acks: acks}
}

// rxGotFor returns the received-flit bitmask of packet id, creating it
// on first arrival.
func (ni *SinkNI) rxGotFor(id uint64) *uint64 {
	if h, ok := ni.rxIdx.Get(id); ok {
		return ni.rxGot.Get(h)
	}
	h, got := ni.rxGot.Alloc()
	ni.rxIdx.Put(id, h)
	return got
}

// OnEvent implements sim.Handler: the sink interface's timer events.
func (ni *SinkNI) OnEvent(arg int64) {
	switch arg {
	case evSinkConsume:
		ni.in.Ack()
	case evSinkEndAck:
		a := ni.acks.Pop()
		ni.nw.sources[a.src].confirm(a.h, ni.dest)
	}
}

// OnFlit implements node.Sink. Every physical arrival is metered, traced
// and acknowledged at the link level; with the fault layer enabled the
// delivery accounting only counts arrivals accept admits. The arriving
// copy then retires with the input channel's handshake.
func (ni *SinkNI) OnFlit(_ int, f packet.Flit) {
	now := ni.a.sched.Now()
	ni.a.meterInterface()
	if ni.nw.Trace != nil {
		ni.a.trace(TraceEvent{Kind: TraceDeliver, At: now, Flit: f, Dest: ni.dest})
	}
	ni.a.sched.In(timing.SinkAck, ni, evSinkConsume)
	if ni.nw.inj == nil || ni.accept(f) {
		ni.a.recDelivered(now, f.Pkt.D2DHops > 0)
		if f.IsHeader() {
			// The recorder tracks die-local destination masks, so membership
			// is checked against the sink's index within its die (identical
			// to ni.dest on single-die networks).
			ni.a.recHeader(f.Pkt, ni.dest%ni.nw.Spec.N, now)
		}
	}
	ni.in.Retire()
}

// accept is the receiver half of the recovery protocol: it admits each
// (packet, flit index) exactly once and only when the CRC checks out, and
// schedules the end-to-end acknowledge when it admits the packet's last
// missing flit. Corrupt copies are recovered by retransmission, and
// duplicates come from one.
func (ni *SinkNI) accept(f packet.Flit) bool {
	if !f.CheckCRC() {
		return false
	}
	got := ni.rxGotFor(f.Pkt.ID)
	bit := uint64(1) << uint(f.Index)
	if *got&bit != 0 {
		return false
	}
	*got |= bit
	if f.Attempt > 0 {
		ni.nw.inj.Stats.RecoveredFlits++
	}
	if *got == uint64(1)<<uint(f.Pkt.Length)-1 {
		ni.acks.Push(endAck{src: f.Pkt.Src, h: f.Pkt.TxSlot})
		ni.a.sched.In(sim.Time(ni.nw.inj.Config().AckDelayPs), ni, evSinkEndAck)
	}
	return true
}
