// Package node implements the behavioral models that the network
// simulator executes: the two-phase bundled-data channel, the five fanout
// node variants of Section 4, and the fanin (arbitration) node.
//
// Each node is a state machine driven by two event kinds: a request edge
// delivering a flit on an input channel (OnFlit) and an acknowledge edge
// returning on an output channel (OnAck). Timing comes from the gate-level
// analyses in internal/timing; the handshake sequencing below mirrors the
// protocol descriptions of the paper.
//
// Protocol violations panic with a typed fault.Violation value; the run
// boundary in internal/core recovers them into a *core.ProtocolError so a
// poisoned simulation reports instead of crashing the process.
package node

import (
	"fmt"

	"asyncnoc/internal/fault"
	"asyncnoc/internal/packet"
	"asyncnoc/internal/sim"
)

// Scheduler event payloads for the node types' sim.Handler
// implementations: the low byte selects the action, the high bits carry a
// port operand where one is needed. Dispatching through (handler, payload)
// pairs instead of captured closures keeps the per-toggle hot path free of
// heap allocations (see internal/sim).
const (
	evChanDeliver = iota // channel: request edge reaches the receiver
	evChanCredit         // channel: credit returns to the sender
	evFoReady            // fanout: forward path elapsed, try to commit
	evFoRetry            // fanout: handshake-cycle retry timer
	evFoAckIn            // fanout: acknowledge the input channel
	evFiRetry            // fanin: handshake-cycle retry timer
	evFiGrant            // fanin: grant stage traversal complete (port operand)
	evFiAckIn            // fanin: acknowledge one input channel (port operand)
)

// evArg packs an action and a port operand into an event payload.
func evArg(op, port int) int64 { return int64(port)<<8 | int64(op) }

// evOp and evPort unpack an event payload.
func evOp(arg int64) int   { return int(arg & 0xff) }
func evPort(arg int64) int { return int(arg >> 8) }

// Sink receives flits from a channel.
type Sink interface {
	// OnFlit is invoked when the channel's request edge (with its
	// bundled flit) reaches input port `port` of the receiver.
	OnFlit(port int, f packet.Flit)
}

// AckTarget receives acknowledge edges from a channel.
type AckTarget interface {
	// OnAck is invoked when the acknowledge for the last flit sent on
	// output port `port` returns to the sender.
	OnAck(port int)
}

// ChannelHooks receives a channel's accounting side effects (energy,
// tracing, packet release).
type ChannelHooks interface {
	// ChannelTraversed observes every flit that enters the wire.
	ChannelTraversed(f packet.Flit)
	// ChannelRetired observes each flit that died in the channel's
	// handshake (Retire, or a payload dropped on the wire) once the
	// credit returns: until then the channel still holds the flit
	// (InFlightFlit), so a diagnostic never reads a retired one.
	ChannelRetired(f packet.Flit)
}

// Channel is a point-to-point two-phase bundled-data link. The sender
// toggles the request wire with the data bundle (Send); the receiver
// toggles the acknowledge wire (Ack) to return credit. At most one flit is
// in flight per channel: sending without the previous ack is a protocol
// violation and panics.
type Channel struct {
	Sched *sim.Scheduler
	// FwdDelay is the request/data wire flight time.
	FwdDelay sim.Time
	// AckDelay is the acknowledge wire flight time.
	AckDelay sim.Time
	// Dst receives flits on DstPort.
	Dst     Sink
	DstPort int
	// Src receives acknowledges on SrcPort.
	Src     AckTarget
	SrcPort int
	// Hooks, when set, receives the channel's accounting side effects.
	// One value serves every channel of an accounting context, so wiring
	// a channel builds no closure.
	Hooks ChannelHooks
	// Faults, when set, draws a deterministic per-traversal fault
	// decision for every Send (see internal/fault).
	Faults *fault.ChannelFaults

	inFlight bool
	acked    bool
	retired  bool
	cur      packet.Flit
}

// Send drives a flit onto the channel.
func (c *Channel) Send(f packet.Flit) {
	if c.inFlight {
		panic(fault.Violationf(fmt.Sprintf("channel to port %d of %T", c.DstPort, c.Dst),
			"send of %v while %v in flight", f, c.cur))
	}
	c.inFlight = true
	c.acked, c.retired = false, false
	c.cur = f
	fwd := c.FwdDelay
	if c.Faults != nil {
		d := c.Faults.Next(f.Kind() == packet.Body)
		if d.Stuck {
			return // wedged: the flit vanishes, the ack never comes
		}
		if d.Drop {
			// The payload bundle glitches away but the self-timed link
			// completes the handshake: the receiver never sees the flit,
			// the sender gets its credit back after the full round trip.
			if c.Hooks != nil {
				c.Hooks.ChannelTraversed(f)
			}
			c.retired = true
			c.Sched.In(c.FwdDelay+c.AckDelay, c, evChanCredit)
			return
		}
		if d.CorruptBit >= 0 {
			f.Flip ^= 1 << uint(d.CorruptBit)
			// The wire now carries the corrupted bundle; the delivery
			// event below reads the flit back from cur.
			c.cur = f
		}
		fwd += sim.Time(d.JitterPs)
	}
	if c.Hooks != nil {
		c.Hooks.ChannelTraversed(f)
	}
	c.Sched.In(fwd, c, evChanDeliver)
}

// OnEvent implements sim.Handler: the channel's wire-flight events.
func (c *Channel) OnEvent(arg int64) {
	switch evOp(arg) {
	case evChanDeliver:
		c.Dst.OnFlit(c.DstPort, c.cur)
	case evChanCredit:
		if c.retired && c.Hooks != nil {
			c.Hooks.ChannelRetired(c.cur)
		}
		c.inFlight = false
		if c.Src != nil {
			c.Src.OnAck(c.SrcPort)
		}
	}
}

// Ack returns the acknowledge edge to the sender. The receiver calls it
// exactly once per received flit.
func (c *Channel) Ack() {
	if !c.inFlight || c.acked {
		panic(fault.Violationf(fmt.Sprintf("channel to port %d of %T", c.DstPort, c.Dst),
			"ack without pending flit"))
	}
	c.acked = true
	c.Sched.In(c.AckDelay, c, evChanCredit)
}

// Retire marks the flit in flight as consumed for good by the receiver
// (a sink delivery or a throttle absorption); see
// ChannelHooks.ChannelRetired.
func (c *Channel) Retire() { c.retired = true }

// Busy reports whether a flit is in flight (sent but not yet acknowledged
// back to the sender).
func (c *Channel) Busy() bool { return c.inFlight }

// InFlightFlit returns the flit currently occupying the channel (sent but
// not yet credit-returned, including flits held by a wedged link) and
// whether one exists. Used by the deadlock watchdog's stuck-flit report.
func (c *Channel) InFlightFlit() (packet.Flit, bool) { return c.cur, c.inFlight }
