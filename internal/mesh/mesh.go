// Package mesh implements the paper's future-work topology: a 2D-mesh
// asynchronous NoC with XY dimension-order routing and tree-based
// (destination-encoded) multicast, built on the same discrete-event,
// handshake-level machinery as the Mesh-of-Trees networks.
//
// Each tile carries an asynchronous five-port router whose timing and
// area come from the gate-level model in internal/netlist (BuildMeshRouter).
// Multicast headers carry a destination bitmask that is pruned at every
// replication: a router partitions its branch's destinations over the XY
// output directions, replicates the packet where needed, and completes
// the input handshake only after all selected outputs fire (C-element
// joining). Serial mode instead expands a multicast into XY unicasts —
// the same serial-vs-tree comparison the paper runs on the MoT.
//
// The mesh owns no multicast partitioning: Inject plans through the
// spec's routing.Strategy on a mask-routed routing.Fabric that the Mesh
// itself describes (its snake Hamiltonian order and XY link cost), so
// every registered scheme runs here exactly as on the MoT.
//
// Deadlock freedom mirrors the MoT argument (DESIGN.md): XY ordering
// makes channel dependencies acyclic, output locks are acquired
// all-or-nothing at the header, and virtual-cut-through reservation
// guarantees a committed packet never stalls mid-packet at a
// replication point.
package mesh

import (
	"fmt"

	"asyncnoc/internal/fault"
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

// Router port indices.
const (
	North = iota
	East
	South
	West
	LocalPort
	numPorts
)

// Spec describes one mesh network instance.
type Spec struct {
	// Name is the reporting name.
	Name string
	// W, H are the mesh dimensions; terminals are the W*H tiles.
	W, H int
	// PacketLen is flits per packet.
	PacketLen int
	// Serial expands multicast into serial XY unicasts (the baseline
	// scheme); otherwise multicast is tree-based with replication.
	Serial bool
	// Strategy names the multicast routing scheme that partitions
	// injections (see routing.StrategyNames). Empty selects
	// routing.StrategyFor's default: serial unicasts when Serial, one
	// tree-routed packet otherwise (the mesh has no speculation, so both
	// tree schemes plan that one packet). The mesh Hamiltonian order is
	// the boustrophedon (snake) tile order, and DPM merge costs count
	// XY-tree link traversals.
	Strategy string
}

// Validate checks the configuration.
func (s Spec) Validate() error {
	if s.W < 2 || s.H < 1 || s.W*s.H > 64 {
		return fmt.Errorf("mesh %s: dimensions %dx%d unsupported (2..64 tiles)", s.Name, s.W, s.H)
	}
	if s.PacketLen < 1 {
		return fmt.Errorf("mesh %s: packet length %d < 1", s.Name, s.PacketLen)
	}
	if _, err := routing.StrategyFor(s.Strategy, s.Serial); err != nil {
		return fmt.Errorf("mesh %s: %w", s.Name, err)
	}
	return nil
}

// Tiles returns the terminal count.
func (s Spec) Tiles() int { return s.W * s.H }

// TopologyName implements topology.TopologySpec.
func (s Spec) TopologyName() string { return s.Name }

// Terminals implements topology.TopologySpec.
func (s Spec) Terminals() int { return s.Tiles() }

// CanonicalKey implements topology.TopologySpec: every behavioral field
// participates, so equal keys mean replayed runs.
func (s Spec) CanonicalKey() string {
	return fmt.Sprintf("mesh|%s|%dx%d|%d|%v|%s", s.Name, s.W, s.H, s.PacketLen, s.Serial, s.Strategy)
}

var _ topology.TopologySpec = Spec{}

// Mesh is one simulated mesh instance.
type Mesh struct {
	Spec  Spec
	Sched *sim.Scheduler
	Rec   *metrics.Recorder
	Meter *power.Meter

	routers []*Router // index y*W + x
	sources []*sourceNI
	sinks   []*sinkNI
	nextID  uint64

	// strat plans every injection on fabric, whose Mask is the mesh;
	// plans collects one injection's plan through emit.
	strat  routing.Strategy
	fabric routing.Fabric
	plans  []routing.Plan
	emit   func(routing.Plan)

	// pktFree is the packet freelist (see release); allocated counts
	// the packets ever taken from the heap.
	pktFree   []*packet.Packet
	allocated int
}

// New builds a mesh network.
func New(spec Spec) (*Mesh, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	sched := sim.NewScheduler()
	m := &Mesh{
		Spec:  spec,
		Sched: sched,
		Rec:   metrics.NewRecorder(),
		Meter: power.NewMeter(sched.Now),
	}
	// Validate() vetted the name.
	m.strat, _ = routing.StrategyFor(spec.Strategy, spec.Serial)
	m.fabric = routing.Fabric{Serial: spec.Serial, Mask: m}
	m.emit = func(p routing.Plan) { m.plans = append(m.plans, p) }
	m.build()
	return m, nil
}

// Coord maps a terminal index to tile coordinates.
func (m *Mesh) Coord(d int) (x, y int) { return d % m.Spec.W, d / m.Spec.W }

// Tile maps coordinates to the terminal index.
func (m *Mesh) Tile(x, y int) int { return y*m.Spec.W + x }

// routeOuts partitions a branch destination set over the output ports of
// the router at (x, y) under XY dimension-order routing, returning the
// port bitmask and the pruned per-port subsets.
func (m *Mesh) routeOuts(x, y int, dests packet.DestSet) (mask uint8, sub [numPorts]packet.DestSet) {
	dests.ForEach(func(d int) {
		dx, dy := m.Coord(d)
		var p int
		switch {
		case dx > x:
			p = East
		case dx < x:
			p = West
		case dy > y:
			p = North
		case dy < y:
			p = South
		default:
			p = LocalPort
		}
		mask |= 1 << uint(p)
		sub[p] = sub[p].Add(d)
	})
	return mask, sub
}

// channel wires one link.
func (m *Mesh) channel(dst node.Sink, dstPort int, src node.AckTarget, srcPort int) *node.Channel {
	ch := &node.Channel{
		Sched:    m.Sched,
		FwdDelay: timing.ChannelFwd,
		AckDelay: timing.ChannelAck,
		Dst:      dst,
		DstPort:  dstPort,
		Src:      src,
		SrcPort:  srcPort,
	}
	ch.Hooks = wireHooks{m}
	return ch
}

// wireHooks charges every link traversal to the mesh's meter; one value
// serves every channel. A mesh sink releases its copy at delivery (no
// link is ever told to retire one), so ChannelRetired has nothing to do.
type wireHooks struct{ m *Mesh }

func (h wireHooks) ChannelTraversed(packet.Flit) { h.m.Meter.Channel() }
func (wireHooks) ChannelRetired(packet.Flit)     {}

func (m *Mesh) build() {
	w, h := m.Spec.W, m.Spec.H
	tiles := m.Spec.Tiles()
	fifoCap := 2 * m.Spec.PacketLen
	if m.Spec.Serial {
		fifoCap = m.Spec.PacketLen // unicast worms still need VCT headroom
	}
	m.routers = make([]*Router, tiles)
	m.sources = make([]*sourceNI, tiles)
	m.sinks = make([]*sinkNI, tiles)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			m.routers[m.Tile(x, y)] = newRouter(m, x, y, fifoCap)
		}
	}
	// Inter-router links (bidirectional pairs on each mesh edge).
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			r := m.routers[m.Tile(x, y)]
			if x+1 < w {
				e := m.routers[m.Tile(x+1, y)]
				ch := m.channel(e, West, r, East)
				r.connectOut(East, ch)
				e.connectIn(West, ch)
				back := m.channel(r, East, e, West)
				e.connectOut(West, back)
				r.connectIn(East, back)
			}
			if y+1 < h {
				n := m.routers[m.Tile(x, y+1)]
				ch := m.channel(n, South, r, North)
				r.connectOut(North, ch)
				n.connectIn(South, ch)
				back := m.channel(r, North, n, South)
				n.connectOut(South, back)
				r.connectIn(North, back)
			}
		}
	}
	// Local ports: source and sink interfaces per tile.
	for t := 0; t < tiles; t++ {
		src := &sourceNI{mesh: m, tile: t}
		in := m.channel(m.routers[t], LocalPort, src, 0)
		src.out = in
		m.routers[t].connectIn(LocalPort, in)
		m.sources[t] = src

		snk := &sinkNI{mesh: m, tile: t}
		out := m.channel(snk, 0, m.routers[t], LocalPort)
		m.routers[t].connectOut(LocalPort, out)
		snk.in = out
		m.sinks[t] = snk
	}
}

// Terminals implements routing.MaskRouted: the tile count.
func (m *Mesh) Terminals() int { return m.Spec.Tiles() }

// PathPos implements routing.MaskRouted: a tile's position on the
// mesh's Hamiltonian path, the boustrophedon (snake) order that walks
// each row alternately left-to-right and right-to-left, so consecutive
// positions are mesh neighbors.
func (m *Mesh) PathPos(d int) int {
	x, y := m.Coord(d)
	if y%2 == 1 {
		x = m.Spec.W - 1 - x
	}
	return y*m.Spec.W + x
}

// LinkCost implements routing.MaskRouted: it counts the link traversals
// (router-to-router plus delivery locals) of delivering dests from src:
// the XY multicast tree's links on the tree fabric, the sum of the
// unicast XY paths — which share nothing physically — in serial mode.
// The source's injection link is common to every plan and excluded, so
// a merge that shares no links is never an improvement.
func (m *Mesh) LinkCost(src int, dests packet.DestSet) int {
	sx, sy := m.Coord(src)
	if m.Spec.Serial {
		total := 0
		dests.ForEach(func(d int) {
			dx, dy := m.Coord(d)
			total += absInt(dx-sx) + absInt(dy-sy) + 1
		})
		return total
	}
	var count func(x, y int, d packet.DestSet) int
	count = func(x, y int, d packet.DestSet) int {
		mask, sub := m.routeOuts(x, y, d)
		c := 0
		for p := 0; p < numPorts; p++ {
			if mask&(1<<uint(p)) == 0 {
				continue
			}
			c++
			switch p {
			case East:
				c += count(x+1, y, sub[East])
			case West:
				c += count(x-1, y, sub[West])
			case North:
				c += count(x, y+1, sub[North])
			case South:
				c += count(x, y-1, sub[South])
			}
		}
		return c
	}
	return count(sx, sy, dests)
}

// absInt is |v|.
func absInt(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// SchedFor returns the scheduler tile src injects on: every tile shares
// the mesh's one scheduler.
func (m *Mesh) SchedFor(int) *sim.Scheduler { return m.Sched }

// Inject creates a logical packet from tile src to dests at the current
// simulation time, planned under the spec's routing strategy: a plan of
// one packet covering the whole set rides the logical packet itself,
// every other plan injects one clone per physical packet linked to the
// logical parent. Packets are recycled, so the returned packet is valid
// only until its last copy has been delivered.
func (m *Mesh) Inject(src int, dests packet.DestSet) (*packet.Packet, error) {
	m.plans = m.plans[:0]
	if err := m.strat.Plan(m.fabric, src, dests, m.emit); err != nil {
		return nil, fmt.Errorf("mesh %s: %w", m.Spec.Name, err)
	}
	now := m.Sched.Now()
	p := m.newPacket(src, dests, now)
	m.Rec.PacketCreated(p, now)
	if len(m.plans) == 1 && m.plans[0].Dests == dests {
		m.sources[src].enqueue(p)
		return p, nil
	}
	// Expanded plan: the logical parent holds one reference per clone.
	p.Refs = int32(len(m.plans))
	for _, pl := range m.plans {
		c := m.newPacket(src, pl.Dests, now)
		c.Parent = p
		m.sources[src].enqueue(c)
	}
	return p, nil
}

// newPacket takes a packet from the freelist (or the heap while the
// pool grows) and stamps it with the next packet ID.
func (m *Mesh) newPacket(src int, dests packet.DestSet, now sim.Time) *packet.Packet {
	var p *packet.Packet
	if n := len(m.pktFree); n > 0 {
		p = m.pktFree[n-1]
		m.pktFree = m.pktFree[:n-1]
	} else {
		p = new(packet.Packet)
		m.allocated++
	}
	m.nextID++
	*p = packet.Packet{ID: m.nextID, Src: src, Dests: dests, Length: m.Spec.PacketLen, CreatedAt: int64(now)}
	return p
}

// release drops one reference to p: a flit copy delivered by a sink, or
// a serial clone's death, which also drops one of its parent's. At zero
// nothing reads p and it returns to the freelist (DESIGN.md §11 lists
// the fates).
func (m *Mesh) release(p *packet.Packet) {
	for p != nil {
		p.Refs--
		if p.Refs > 0 {
			return
		}
		if p.Refs < 0 {
			panic(fault.Violationf("mesh "+m.Spec.Name, "packet %d released with no reference left", p.ID))
		}
		m.pktFree = append(m.pktFree, p)
		p = p.Parent
	}
}

// SourceQueueLen returns one tile's injection backlog in flits.
func (m *Mesh) SourceQueueLen(t int) int { return m.sources[t].queue.Len() }

// Router exposes one router (tests and diagnostics).
func (m *Mesh) Router(t int) *Router { return m.routers[t] }

// sourceNI drains an injection queue through the router's local port.
type sourceNI struct {
	mesh  *Mesh
	tile  int
	out   *node.Channel
	queue pool.Ring[packet.Flit]
	busy  bool
}

// enqueue materializes the packet's flits one at a time straight into
// the ring, one reference each.
func (ni *sourceNI) enqueue(p *packet.Packet) {
	p.Refs = int32(p.Length)
	for i := 0; i < p.Length; i++ {
		ni.queue.Push(p.FlitAt(i))
	}
	ni.pump()
}

func (ni *sourceNI) pump() {
	if ni.busy || ni.queue.Len() == 0 {
		return
	}
	f := ni.queue.Pop()
	ni.busy = true
	ni.mesh.Meter.Interface()
	ni.out.Send(f)
}

// OnAck implements node.AckTarget.
func (ni *sourceNI) OnAck(int) {
	ni.mesh.Sched.In(timing.NICycle, ni, 0)
}

// OnEvent implements sim.Handler: the interface cycle elapsed, resume
// pumping the injection queue.
func (ni *sourceNI) OnEvent(int64) {
	ni.busy = false
	ni.pump()
}

// sinkNI consumes delivered flits.
type sinkNI struct {
	mesh *Mesh
	tile int
	in   *node.Channel
}

// OnFlit implements node.Sink.
func (ni *sinkNI) OnFlit(_ int, f packet.Flit) {
	now := ni.mesh.Sched.Now()
	ni.mesh.Rec.FlitDelivered(now, false)
	ni.mesh.Meter.Interface()
	if f.IsHeader() {
		ni.mesh.Rec.HeaderArrived(f.Pkt, ni.tile, now)
	}
	ni.mesh.release(f.Pkt)
	ni.mesh.Sched.In(timing.SinkAck, ni, 0)
}

// OnEvent implements sim.Handler: the consume time elapsed, return the
// channel acknowledge.
func (ni *sinkNI) OnEvent(int64) { ni.in.Ack() }
