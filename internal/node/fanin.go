package node

import (
	"fmt"

	"asyncnoc/internal/fault"
	"asyncnoc/internal/netlist"
	"asyncnoc/internal/packet"
	"asyncnoc/internal/sim"
	"asyncnoc/internal/timing"
)

// faninFIFO is the fanin node's elastic output-buffer depth. The [21]
// switch the node is reused from pipelines its output stage (the grant
// latch and channel driver form a two-stage asynchronous pipeline), so a
// forwarded flit parks in the output stage while the previous one's
// acknowledge is still in flight.
const faninFIFO = 2

// Fanin is one fanin (arbitration) node: two input channels, a
// mutual-exclusion arbiter, a single output channel. It is reused
// unchanged from the baseline network [21] — the fanout network delivers
// at most one copy of a packet into each fanin tree, so multicast needs no
// changes here (Section 2).
//
// Arbitration is wormhole-granular: the header that wins the mutex locks
// the output port for its whole packet; the tail releases it. Headers
// that arrive at the same picosecond do not tie: the first OnFlit to
// dispatch forwards at once, so the kernel's FIFO order among
// simultaneous events picks the winner, and that dispatch order is part
// of every result. Round-robin only decides between headers that both
// waited out the cycle gap, modeling a fair mutex.
type Fanin struct {
	sched *sim.Scheduler
	t     timing.Node

	// Identity: destination tree and heap index (diagnostics).
	Tree, Heap int

	in      [2]*Channel
	out     *Channel
	outBusy bool
	// fifo is a fixed two-slot ring (the [21] switch's output stage);
	// head/length cursors in a value array keep the node's entire flit
	// traffic allocation-free.
	fifo     [faninFIFO]packet.Flit
	fifoHead int
	fifoLen  int

	// pending holds the unacknowledged input flit per port by value;
	// the pointer form heap-allocated a copy per arrival (~30% of a
	// run's allocations before pooling).
	pending    [2]packet.Flit
	hasPending [2]bool
	locked     int // input index owning the output, -1 when free
	lastWin    int
	forwarding bool // a flit is traversing the arbitration/grant stage
	// fwdFlit is the flit in the grant stage while forwarding is set
	// (the stage holds at most one).
	fwdFlit packet.Flit

	// nextAllowed enforces the arbitration stage's minimum handshake
	// cycle (grant path + acknowledge generation).
	nextAllowed sim.Time
	retryArmed  bool
	// ackIn is the last scheduled evFiAckIn, due at nextAllowed. When the
	// retry would dispatch right after it (sim.Scheduler.LastAt),
	// retryFused is set instead of scheduling evFiRetry, and the ack-in
	// handler runs the retry: the dispatch order is the same with one
	// queue round trip fewer.
	ackIn      sim.EventID
	retryFused bool

	// Hooks, when set, receives the node's accounting side effects; one
	// value serves every node of an accounting context.
	Hooks FaninHooks
}

// FaninHooks receives a fanin node's accounting side effects.
type FaninHooks interface {
	// FaninForwarded observes each flit forwarded toward the
	// destination.
	FaninForwarded(n *Fanin, f packet.Flit)
}

// Init builds a fanin node in place for heap position (tree, heap),
// writing the whole node.
func (n *Fanin) Init(sched *sim.Scheduler, tree, heap int, proto timing.Protocol) {
	*n = Fanin{
		sched:   sched,
		t:       timing.MustByName(netlist.FaninNode).ForProtocol(proto),
		Tree:    tree,
		Heap:    heap,
		locked:  -1,
		lastWin: 1,
	}
}

// Clock reconfigures the node as a synchronous pipeline stage (see
// Fanout.Clock).
func (n *Fanin) Clock(period sim.Time) {
	n.t.FwdHeader = period
	n.t.FwdBody = period
	n.t.AckDelay = period / 8
}

// Timing returns the node's derived timing parameters.
func (n *Fanin) Timing() timing.Node { return n.t }

// ConnectInput attaches one of the two upstream channels.
func (n *Fanin) ConnectInput(port int, ch *Channel) { n.in[port] = ch }

// ConnectOutput attaches the downstream channel.
func (n *Fanin) ConnectOutput(ch *Channel) { n.out = ch }

// OutputChannel exposes the downstream channel (tests and diagnostics).
func (n *Fanin) OutputChannel() *Channel { return n.out }

// OnFlit implements Sink.
func (n *Fanin) OnFlit(port int, f packet.Flit) {
	if n.hasPending[port] {
		panic(fault.Violationf(fmt.Sprintf("fanin %d/%d", n.Tree, n.Heap),
			"flit %v arrived on port %d while %v unacknowledged", f, port, n.pending[port]))
	}
	if !f.IsHeader() && n.locked != port {
		panic(fault.Violationf(fmt.Sprintf("fanin %d/%d", n.Tree, n.Heap),
			"body flit %v on unlocked port %d", f, port))
	}
	n.pending[port] = f
	n.hasPending[port] = true
	n.tryForward()
}

// tryForward arbitrates and moves at most one flit through the grant
// stage into the output buffer.
func (n *Fanin) tryForward() {
	if n.forwarding || n.fifoLen >= faninFIFO {
		return
	}
	if now := n.sched.Now(); now < n.nextAllowed {
		if !n.retryArmed {
			n.retryArmed = true
			if n.sched.LastAt(n.ackIn, n.nextAllowed) {
				n.retryFused = true
			} else {
				n.sched.In(n.nextAllowed-now, n, evFiRetry)
			}
		}
		return
	}
	pick := -1
	if n.locked >= 0 {
		if !n.hasPending[n.locked] {
			return
		}
		pick = n.locked
	} else {
		// Round-robin arbitration among pending headers.
		for off := 1; off <= 2; off++ {
			cand := (n.lastWin + off) % 2
			if n.hasPending[cand] {
				pick = cand
				break
			}
		}
		if pick < 0 {
			return
		}
	}
	f := n.pending[pick]
	n.pending[pick] = packet.Flit{}
	n.hasPending[pick] = false
	n.forwarding = true
	n.fwdFlit = f
	if f.IsTail() {
		n.locked = -1
	} else {
		n.locked = pick
	}
	n.lastWin = pick
	n.nextAllowed = n.sched.Now() + n.t.FwdHeader + n.t.AckDelay
	n.sched.In(n.t.FwdHeader, n, evArg(evFiGrant, pick))
}

// OnEvent implements sim.Handler: the fanin node's timer events.
func (n *Fanin) OnEvent(arg int64) {
	switch evOp(arg) {
	case evFiRetry:
		n.retryArmed = false
		n.tryForward()
	case evFiGrant:
		f := n.fwdFlit
		n.forwarding = false
		n.fifo[(n.fifoHead+n.fifoLen)%faninFIFO] = f
		n.fifoLen++
		if n.Hooks != nil {
			n.Hooks.FaninForwarded(n, f)
		}
		n.ackIn = n.sched.In(n.t.AckDelay, n, evArg(evFiAckIn, evPort(arg)))
		n.pump()
		n.tryForward()
	case evFiAckIn:
		n.in[evPort(arg)].Ack()
		// The fused retry belongs to the ack-in recorded in ackIn, which
		// stops being pending once it dispatches; an older ack-in still
		// in flight leaves it alone.
		if n.retryFused && !n.sched.Pending(n.ackIn) {
			n.sched.Fused()
			n.retryFused = false
			n.retryArmed = false
			n.tryForward()
		}
	}
}

// pump drives the head of the output buffer onto the wire when idle.
func (n *Fanin) pump() {
	if n.outBusy || n.fifoLen == 0 {
		return
	}
	f := n.fifo[n.fifoHead]
	n.fifo[n.fifoHead] = packet.Flit{} // drop the Pkt reference
	n.fifoHead = (n.fifoHead + 1) % faninFIFO
	n.fifoLen--
	n.outBusy = true
	n.out.Send(f)
}

// OnAck implements AckTarget: the output channel returned its acknowledge.
func (n *Fanin) OnAck(int) {
	n.outBusy = false
	n.pump()
	n.tryForward()
}

// PendingFlit returns the unacknowledged flit on one input port, if any
// (deadlock diagnostics).
func (n *Fanin) PendingFlit(port int) (packet.Flit, bool) {
	return n.pending[port], n.hasPending[port]
}

// EachQueued calls fn for every flit in the output buffer in queue order
// without copying (deadlock diagnostics).
func (n *Fanin) EachQueued(fn func(packet.Flit)) {
	for i := 0; i < n.fifoLen; i++ {
		fn(n.fifo[(n.fifoHead+i)%faninFIFO])
	}
}
