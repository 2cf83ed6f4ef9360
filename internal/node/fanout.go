package node

import (
	"fmt"

	"asyncnoc/internal/fault"
	"asyncnoc/internal/netlist"
	"asyncnoc/internal/packet"
	"asyncnoc/internal/routing"
	"asyncnoc/internal/sim"
	"asyncnoc/internal/timing"
	"asyncnoc/internal/topology"
)

// Kind selects a fanout node behavior (Section 4 of the paper).
type Kind int

const (
	// Baseline is the unicast-only fanout of the serial baseline [21].
	Baseline Kind = iota
	// Spec is the unoptimized speculative node: always broadcast.
	Spec
	// NonSpec is the unoptimized non-speculative multicast node:
	// 2-bit route decode, replication, and throttling.
	NonSpec
	// OptSpec is the power-optimized speculative node: broadcasts
	// headers and tails, routes body flits only on live directions.
	OptSpec
	// OptNonSpec is the performance-optimized non-speculative node:
	// headers pre-allocate channels, body/tail flits fast-forward.
	OptNonSpec
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case Baseline:
		return "baseline"
	case Spec:
		return "spec"
	case NonSpec:
		return "non-spec"
	case OptSpec:
		return "opt-spec"
	case OptNonSpec:
		return "opt-non-spec"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// NetlistName maps the behavior to its gate-level design.
func (k Kind) NetlistName() string {
	switch k {
	case Baseline:
		return netlist.BaselineFanout
	case Spec:
		return netlist.SpecFanout
	case NonSpec:
		return netlist.NonSpecFanout
	case OptSpec:
		return netlist.OptSpecFanout
	case OptNonSpec:
		return netlist.OptNonSpecFanout
	default:
		panic(fmt.Sprintf("node: unknown kind %d", int(k)))
	}
}

// IsSpeculative reports whether the kind always broadcasts headers.
func (k Kind) IsSpeculative() bool { return k == Spec || k == OptSpec }

// FanoutHooks receives a fanout node's accounting side effects. The node
// passes itself, so one hooks value reads each node's identity and area
// without a per-node closure.
type FanoutHooks interface {
	// FanoutForwarded observes a flit committed to `ports` output
	// channels.
	FanoutForwarded(n *Fanout, f packet.Flit, ports int)
	// FanoutAbsorbed observes a throttled/blocked flit consumed by the
	// node.
	FanoutAbsorbed(n *Fanout, f packet.Flit)
}

// Fanout is one fanout (routing) node instance.
//
// Each output port carries a small FIFO (the multicast networks use two
// packets of capacity; the serial baseline one flit). The FIFO
// is pass-through when empty — a flit commits and is driven onto the wire
// in the same instant, so zero-load latency equals the netlist forward
// path — but under blocking it decouples the node's two branches: a
// replicated packet is accepted in full even when one branch stalls.
// Without this decoupling, tree-based wormhole multicast deadlocks (two
// multicasts can hold fanin locks each other's body flits need); per-port
// packet buffering at replication points is the standard cure, and the
// capacity-one case degenerates to the plain bufferless switch the serial
// baseline uses.
type Fanout struct {
	sched *sim.Scheduler
	kind  Kind
	t     timing.Node

	// Identity within the network: the source tree it belongs to and
	// its 1-based heap index, used for source-route field lookup.
	Tree, Heap int
	// fab is the routing view of the node's fabric: its placement, and
	// whether it is the serial baseline (nodes of kind Baseline).
	fab routing.Fabric

	in      *Channel // input channel (acked by this node)
	out     [2]*Channel
	outBusy [2]bool
	cap     int
	// fifo is a pair of fixed-capacity ring buffers carved from one
	// backing array at construction; head/length cursors replace the
	// re-slice-and-append idiom so a node's lifetime of flit traffic
	// reuses the same storage (the appends were ~27% of a run's
	// allocations before pooling).
	fifo     [2][]packet.Flit
	fifoHead [2]int
	fifoLen  [2]int

	// Current un-committed input flit. ready marks that the forward
	// path (route computation) has elapsed; a commit may not happen
	// before it even when downstream space frees earlier.
	cur    packet.Flit
	hasCur bool
	ready  bool
	need   [2]bool

	// nextAllowed enforces the node's minimum handshake cycle: two
	// successive commits cannot be closer than the request-to-
	// acknowledge control loop of the gate-level design, even when a
	// blocked flit is released by downstream space. retryArmed limits
	// the gating to one pending timer.
	nextAllowed sim.Time
	retryArmed  bool

	// Per-packet routing state captured at the header.
	storedSym routing.Symbol
	liveDirs  [2]bool // opt-spec: directions with downstream addressing activity

	// Hooks, when set, receives the node's accounting side effects; one
	// value serves every node of an accounting context.
	Hooks FanoutHooks
}

// Init builds a fanout node of the given kind in place for heap
// position (tree, heap) under the network's speculation placement, over
// fifo: the backing of its two output FIFOs, twice the per-port depth in
// flits. Multicast-capable networks use a depth of twice the packet
// length (full branch decoupling with overlap), the serial baseline 1.
// proto selects the handshake protocol. Init writes the whole node and
// clears fifo, so storage left by an earlier run holds nothing
// afterwards.
func (n *Fanout) Init(sched *sim.Scheduler, kind Kind, tree, heap int, pl *topology.Placement, fifo []packet.Flit, proto timing.Protocol) {
	fifoCap := len(fifo) / 2
	if fifoCap < 1 || len(fifo) != 2*fifoCap {
		panic(fmt.Sprintf("node: fanout FIFO backing of %d flits is not two ports of at least one", len(fifo)))
	}
	clear(fifo)
	*n = Fanout{
		sched: sched,
		kind:  kind,
		t:     timing.MustByName(kind.NetlistName()).ForProtocol(proto),
		Tree:  tree,
		Heap:  heap,
		fab:   routing.Fabric{Placement: pl, Serial: kind == Baseline},
		cap:   fifoCap,
		fifo:  [2][]packet.Flit{fifo[:fifoCap:fifoCap], fifo[fifoCap:]},
	}
}

// Clock reconfigures the node as one stage of a synchronous pipeline
// with the given clock period: every flit takes a full worst-case cycle
// through the stage regardless of its actual combinational path, and the
// credit (ack) returns within the next phase. This models the paper's
// synchronous-NoC comparison point on the same machinery.
func (n *Fanout) Clock(period sim.Time) {
	n.t.FwdHeader = period
	n.t.FwdBody = period
	n.t.AckDelay = period / 8
	if n.t.ThrottleAck > 0 {
		n.t.ThrottleAck = period / 2
	}
}

// Kind returns the node behavior.
func (n *Fanout) Kind() Kind { return n.kind }

// Timing returns the node's derived timing parameters.
func (n *Fanout) Timing() timing.Node { return n.t }

// ConnectInput attaches the upstream channel this node acknowledges.
func (n *Fanout) ConnectInput(ch *Channel) { n.in = ch }

// ConnectOutput attaches the downstream channel of one port.
func (n *Fanout) ConnectOutput(p topology.Port, ch *Channel) { n.out[p] = ch }

// OutputChannel exposes one output channel (fault injection in tests).
func (n *Fanout) OutputChannel(p topology.Port) *Channel { return n.out[p] }

// OnFlit implements Sink.
func (n *Fanout) OnFlit(port int, f packet.Flit) {
	if n.hasCur {
		panic(fault.Violationf(fmt.Sprintf("fanout %d/%d", n.Tree, n.Heap),
			"flit %v arrived while %v unacknowledged", f, n.cur))
	}
	dirs, fwd, absorb := n.route(f)
	if absorb {
		// Throttle: complete the input handshake directly from the
		// Input Channel Monitor; the flit never reaches the ports.
		if n.Hooks != nil {
			n.Hooks.FanoutAbsorbed(n, f)
		}
		n.in.Retire()
		n.sched.In(n.t.ThrottleAck, n, evFoAckIn)
		return
	}
	n.cur = f
	n.hasCur = true
	n.ready = false
	n.need = dirs
	n.sched.In(fwd, n, evFoReady)
}

// OnEvent implements sim.Handler: the fanout node's timer events.
func (n *Fanout) OnEvent(arg int64) {
	switch evOp(arg) {
	case evFoReady:
		n.ready = true
		n.tryCommit()
	case evFoRetry:
		n.retryArmed = false
		n.tryCommit()
	case evFoAckIn:
		n.in.Ack()
	}
}

// route computes the directions, forward latency, and absorb decision for
// a flit according to the node's behavior class.
func (n *Fanout) route(f packet.Flit) (dirs [2]bool, fwd sim.Time, absorb bool) {
	hdr := f.IsHeader()
	fwd = n.t.FwdHeader
	switch n.kind {
	case Baseline:
		// 1-bit source routing; the Address Storage Unit holds the
		// header's bit for the body and tail flits.
		if hdr {
			n.storedSym = routing.DecodeSymbol(n.fab, n.Heap, f.Pkt.Route)
		}
		dirs[topology.Top] = n.storedSym.Wants(topology.Top)
		dirs[topology.Bottom] = n.storedSym.Wants(topology.Bottom)

	case Spec:
		// Always broadcast, every flit.
		dirs[0], dirs[1] = true, true

	case NonSpec, OptNonSpec:
		// 2-bit source routing with throttle; the optimized variant
		// fast-forwards body/tail flits on pre-allocated channels.
		if hdr {
			n.storedSym = routing.DecodeSymbol(n.fab, n.Heap, f.Pkt.Route)
		} else if n.kind == OptNonSpec {
			fwd = n.t.FwdBody
		}
		if n.storedSym == routing.SymNone {
			return dirs, 0, true
		}
		dirs[topology.Top] = n.storedSym.Wants(topology.Top)
		dirs[topology.Bottom] = n.storedSym.Wants(topology.Bottom)

	case OptSpec:
		// Headers and tails broadcast (the ports are normally
		// transparent); the header's address activity marks the live
		// directions used for the body flits.
		m := n.fab.MoT()
		if hdr {
			for p := topology.Top; p <= topology.Bottom; p++ {
				n.liveDirs[p] = !f.Pkt.Dests.Intersect(m.SubtreeDests(m.Child(n.Heap, p))).Empty()
			}
		}
		if hdr || f.IsTail() {
			dirs[0], dirs[1] = true, true
			return dirs, fwd, false
		}
		dirs = n.liveDirs
		if !dirs[0] && !dirs[1] {
			// Body of a misrouted packet: blocked on both ports.
			return dirs, 0, true
		}

	default:
		panic(fmt.Sprintf("node: unknown kind %d", int(n.kind)))
	}
	return dirs, fwd, false
}

// tryCommit moves the current flit into every needed output-port FIFO
// once all of them have space, then completes the input handshake. Until
// then the input channel stays unacknowledged (backpressure).
func (n *Fanout) tryCommit() {
	if !n.hasCur || !n.ready {
		return
	}
	if now := n.sched.Now(); now < n.nextAllowed {
		if !n.retryArmed {
			n.retryArmed = true
			n.sched.In(n.nextAllowed-now, n, evFoRetry)
		}
		return
	}
	// Virtual cut-through reservation: a header commits only when every
	// needed FIFO can absorb the whole packet. Because the input channel
	// delivers a packet's flits contiguously, the reserved space cannot
	// be stolen, so a replicating node never stalls mid-packet — the
	// property that makes tree-based wormhole multicast deadlock-free.
	space := 1
	if n.cur.IsHeader() {
		space = n.cur.Pkt.Length
		if space > n.cap {
			space = n.cap
		}
	}
	for p := 0; p < 2; p++ {
		if n.need[p] && n.cap-n.fifoLen[p] < space {
			return
		}
	}
	ports := 0
	for p := 0; p < 2; p++ {
		if n.need[p] {
			n.need[p] = false
			n.fifo[p][n.wrap(n.fifoHead[p]+n.fifoLen[p])] = n.cur
			n.fifoLen[p]++
			ports++
		}
	}
	if n.Hooks != nil {
		n.Hooks.FanoutForwarded(n, n.cur, ports)
	}
	// The handshake control loop (request path + acknowledge
	// generation) must complete before the next flit can commit.
	cycle := n.t.FwdBody
	if n.cur.IsHeader() {
		cycle = n.t.FwdHeader
	}
	n.nextAllowed = n.sched.Now() + cycle + n.t.AckDelay
	n.hasCur = false
	// All copies committed: the Ack Module (XOR for one port, C-element
	// for both) completes the input handshake.
	n.sched.In(n.t.AckDelay, n, evFoAckIn)
	n.pump(0)
	n.pump(1)
}

// wrap reduces a FIFO position in [0, 2*cap) to a ring index. The
// capacity is known only at run time, so a compare replaces the integer
// division of i % cap on every flit-hop.
func (n *Fanout) wrap(i int) int {
	if i >= n.cap {
		i -= n.cap
	}
	return i
}

// pump drives the head of one port FIFO onto the wire when the port is
// idle.
func (n *Fanout) pump(p int) {
	if n.outBusy[p] || n.fifoLen[p] == 0 {
		return
	}
	f := n.fifo[p][n.fifoHead[p]]
	n.fifo[p][n.fifoHead[p]] = packet.Flit{} // drop the Pkt reference
	n.fifoHead[p] = n.wrap(n.fifoHead[p] + 1)
	n.fifoLen[p]--
	n.outBusy[p] = true
	n.out[p].Send(f)
}

// OnAck implements AckTarget: an output channel returned its acknowledge.
func (n *Fanout) OnAck(p int) {
	n.outBusy[p] = false
	n.pump(p)
	if n.hasCur {
		n.tryCommit()
	}
}

// QueuedFlits returns the occupancy of one output-port FIFO (diagnostics).
func (n *Fanout) QueuedFlits(p topology.Port) int { return n.fifoLen[p] }

// InputPending returns the uncommitted input flit, if any (deadlock
// diagnostics).
func (n *Fanout) InputPending() (packet.Flit, bool) { return n.cur, n.hasCur }

// EachQueued calls fn for every flit in one output-port FIFO in queue
// order without copying (deadlock diagnostics walk every node; the
// allocation-free form keeps the end-of-run quiescence check cheap).
func (n *Fanout) EachQueued(p topology.Port, fn func(packet.Flit)) {
	for i := 0; i < n.fifoLen[p]; i++ {
		fn(n.fifo[p][n.wrap(n.fifoHead[p]+i)])
	}
}

// PeekFIFO returns a copy of one output-port FIFO's contents (deadlock
// diagnostics and tests).
func (n *Fanout) PeekFIFO(p topology.Port) []packet.Flit {
	out := make([]packet.Flit, 0, n.fifoLen[p])
	n.EachQueued(p, func(f packet.Flit) { out = append(out, f) })
	return out
}
