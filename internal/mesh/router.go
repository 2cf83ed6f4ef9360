package mesh

import (
	"fmt"

	"asyncnoc/internal/fault"
	"asyncnoc/internal/netlist"
	"asyncnoc/internal/node"
	"asyncnoc/internal/packet"
	"asyncnoc/internal/pool"
	"asyncnoc/internal/sim"
	"asyncnoc/internal/timing"
)

// Scheduler event payloads for the mesh package's sim.Handler
// implementations: the low byte selects the action, the high bits carry
// the input-port operand (same packing as internal/node).
const (
	evRtReady = iota // router: forward path elapsed on a port, try commit
	evRtRetry        // router: handshake-cycle retry timer on a port
	evRtAckIn        // router: acknowledge one input channel
)

// evArg packs an action and a port operand into an event payload.
func evArg(op, port int) int64 { return int64(port)<<8 | int64(op) }

// evOp and evPort unpack an event payload.
func evOp(arg int64) int   { return int(arg & 0xff) }
func evPort(arg int64) int { return int(arg >> 8) }

// Hooks receives a router's accounting side effects, as
// node.FanoutHooks does a fanout node's: the router passes itself, so
// one hooks value serves every router of a network.
type Hooks interface {
	// RouterForwarded observes a flit committed to `ports` output FIFOs.
	RouterForwarded(r *Router, f packet.Flit, ports int)
}

// Router is one asynchronous five-port mesh router. Timing and area come
// from the gate-level model (netlist.BuildMeshRouter): headers pay the
// route-compute + arbitration + crossbar path, body flits ride the held
// grant on the fast path, and the input handshake completes through a
// C-element over every selected output.
//
// Concurrency structure: each input port holds at most one
// unacknowledged flit; each output port carries a FIFO with
// virtual-cut-through reservation and a wormhole lock owned by one input
// from header to tail. Header commits acquire all needed output locks
// atomically (all-or-nothing), which, with XY dimension-order routing,
// keeps the channel dependency graph acyclic.
type Router struct {
	sched *sim.Scheduler
	grid  Grid
	t     timing.Node
	// Tile is the router's terminal index, (X, Y) its coordinates.
	Tile, X, Y int

	// Hooks, when set, receives the router's accounting side effects.
	Hooks Hooks

	in  [NumPorts]*node.Channel
	out [NumPorts]*node.Channel
	cap int

	fifo     [NumPorts]pool.Ring[packet.Flit]
	outBusy  [NumPorts]bool
	outOwner [NumPorts]int // input index owning the output, -1 free

	inCur    [NumPorts]packet.Flit
	inHas    [NumPorts]bool
	inReady  [NumPorts]bool // forward path elapsed, awaiting commit
	inOuts   [NumPorts]uint8
	inSub    [NumPorts][NumPorts]packet.DestSet
	stored   [NumPorts]uint8
	storedSb [NumPorts][NumPorts]packet.DestSet

	nextAllowed [NumPorts]sim.Time
	retryArmed  [NumPorts]bool
}

// Init builds the router of tile on grid g in place, with output FIFOs
// of fifoCap flits. Init writes the whole router, keeping only the
// storage of its FIFOs (a rebuilt network reuses it); wire its ports
// with ConnectInput and ConnectOutput before the first event.
func (r *Router) Init(sched *sim.Scheduler, g Grid, tile, fifoCap int) {
	x, y := g.Coord(tile)
	fifo := r.fifo
	for p := range fifo {
		fifo[p].Reset()
	}
	*r = Router{sched: sched, grid: g, t: timing.MustByName(netlist.MeshRouter), Tile: tile, X: x, Y: y, cap: fifoCap, fifo: fifo}
	for p := range r.outOwner {
		r.outOwner[p] = -1
	}
}

// Timing returns the router's derived parameters.
func (r *Router) Timing() timing.Node { return r.t }

// ConnectInput attaches the channel arriving on port p.
func (r *Router) ConnectInput(p int, ch *node.Channel) { r.in[p] = ch }

// ConnectOutput attaches the channel leaving port p.
func (r *Router) ConnectOutput(p int, ch *node.Channel) { r.out[p] = ch }

// OutputChannel returns the channel leaving port p, nil on a mesh edge.
func (r *Router) OutputChannel(p int) *node.Channel { return r.out[p] }

// InputPending returns the flit held on input port p, not yet committed
// to its outputs (stuck-flit diagnostics).
func (r *Router) InputPending(p int) (packet.Flit, bool) { return r.inCur[p], r.inHas[p] }

// EachQueued calls fn for every flit in output port p's FIFO, head
// first (stuck-flit diagnostics).
func (r *Router) EachQueued(p int, fn func(packet.Flit)) {
	q := &r.fifo[p]
	for i := 0; i < q.Len(); i++ {
		fn(q.At(i))
	}
}

// OnFlit implements node.Sink.
func (r *Router) OnFlit(port int, f packet.Flit) {
	if r.inHas[port] {
		panic(fault.Violationf(fmt.Sprintf("mesh router (%d,%d)", r.X, r.Y),
			"flit %v on port %d while %v unacknowledged", f, port, r.inCur[port]))
	}
	r.inCur[port] = f
	r.inHas[port] = true
	r.inReady[port] = false
	fwd := r.t.FwdBody
	if f.IsHeader() {
		fwd = r.t.FwdHeader
		mask, sub := r.grid.RouteOuts(r.X, r.Y, f.BranchDests())
		r.inOuts[port] = mask
		r.inSub[port] = sub
		r.stored[port] = mask
		r.storedSb[port] = sub
	} else {
		r.inOuts[port] = r.stored[port]
		r.inSub[port] = r.storedSb[port]
	}
	r.sched.In(fwd, r, evArg(evRtReady, port))
}

// OnEvent implements sim.Handler: the router's timer events.
func (r *Router) OnEvent(arg int64) {
	p := evPort(arg)
	switch evOp(arg) {
	case evRtReady:
		r.inReady[p] = true
		r.tryCommit(p)
	case evRtRetry:
		r.retryArmed[p] = false
		r.tryCommit(p)
	case evRtAckIn:
		r.in[p].Ack()
	}
}

// tryCommit attempts to move input port i's flit into every selected
// output FIFO, honoring the minimum handshake cycle, wormhole locks, and
// virtual-cut-through space reservation.
func (r *Router) tryCommit(i int) {
	if !r.inHas[i] || !r.inReady[i] {
		return
	}
	if now := r.sched.Now(); now < r.nextAllowed[i] {
		if !r.retryArmed[i] {
			r.retryArmed[i] = true
			r.sched.In(r.nextAllowed[i]-now, r, evArg(evRtRetry, i))
		}
		return
	}
	f := r.inCur[i]
	outs := r.inOuts[i]
	space := 1
	if f.IsHeader() {
		space = f.Pkt.Length
		if space > r.cap {
			space = r.cap
		}
	}
	// All-or-nothing feasibility check over every selected output.
	for o := 0; o < NumPorts; o++ {
		if outs&(1<<uint(o)) == 0 {
			continue
		}
		if r.outOwner[o] != -1 && r.outOwner[o] != i {
			return // locked by another worm; retried on release
		}
		if f.IsHeader() && r.outOwner[o] != i && r.cap-r.fifo[o].Len() < space {
			return
		}
		if r.cap-r.fifo[o].Len() < 1 {
			return
		}
	}
	// Commit: acquire locks, enqueue pruned copies, pump.
	ports := 0
	for o := 0; o < NumPorts; o++ {
		if outs&(1<<uint(o)) == 0 {
			continue
		}
		r.outOwner[o] = i
		branch := f
		branch.Branch = r.inSub[i][o]
		r.fifo[o].Push(branch)
		ports++
	}
	// The input's copy travels with one branch; each further branch is
	// a new copy, which the hooks count. The input slot drops its
	// pointer.
	if r.Hooks != nil {
		r.Hooks.RouterForwarded(r, f, ports)
	}
	r.inCur[i] = packet.Flit{}
	if f.IsTail() {
		for o := 0; o < NumPorts; o++ {
			if outs&(1<<uint(o)) != 0 {
				r.outOwner[o] = -1
			}
		}
	}
	cycle := r.t.FwdBody
	if f.IsHeader() {
		cycle = r.t.FwdHeader
	}
	r.nextAllowed[i] = r.sched.Now() + cycle + r.t.AckDelay
	r.inHas[i] = false
	r.sched.In(r.t.AckDelay, r, evArg(evRtAckIn, i))
	for o := 0; o < NumPorts; o++ {
		if outs&(1<<uint(o)) != 0 {
			r.pump(o)
		}
	}
	// A released lock may unblock other inputs.
	if f.IsTail() {
		r.retryAll()
	}
}

// pump drives one output FIFO head onto the wire.
func (r *Router) pump(o int) {
	if r.outBusy[o] || r.fifo[o].Len() == 0 {
		return
	}
	f := r.fifo[o].Pop()
	r.outBusy[o] = true
	r.out[o].Send(f)
}

// OnAck implements node.AckTarget.
func (r *Router) OnAck(o int) {
	r.outBusy[o] = false
	r.pump(o)
	r.retryAll()
}

func (r *Router) retryAll() {
	for i := 0; i < NumPorts; i++ {
		if r.inHas[i] && r.inReady[i] {
			r.tryCommit(i)
		}
	}
}
