// Package timing derives the behavioral simulation parameters of every
// node type from the gate-level netlist analyses in internal/netlist,
// mirroring how the paper extracts accurate gate-level models (Spectre)
// and drives its network simulator with them.
//
// All delays are picoseconds. The per-node area doubles as the switched-
// capacitance proxy of the power model (internal/power).
package timing

import (
	"fmt"
	"sync"

	"asyncnoc/internal/netlist"
	"asyncnoc/internal/sim"
)

// Protocol selects the channel handshake protocol. The paper uses
// two-phase (NRZ) signaling — one round trip per transaction — citing its
// throughput advantage over four-phase (RZ), which needs a second
// (return-to-zero) round trip. Modeling both makes that design choice
// measurable.
type Protocol int

const (
	// TwoPhase is transition signaling: one req/ack round trip per flit.
	TwoPhase Protocol = iota
	// FourPhase is return-to-zero signaling: every transaction adds a
	// second round trip through the same control logic and wires.
	FourPhase
)

// String names the protocol.
func (p Protocol) String() string {
	if p == FourPhase {
		return "four-phase"
	}
	return "two-phase"
}

// Node holds the behavioral parameters of one node type.
type Node struct {
	// Name is the netlist node name.
	Name string
	// AreaUm2 is the placed area, the energy model's capacitance proxy.
	AreaUm2 float64
	// FwdHeader is the request-in to request-out latency of a header.
	FwdHeader sim.Time
	// FwdBody is the same for body and tail flits (lower only on nodes
	// with a body fast-forward path).
	FwdBody sim.Time
	// AckDelay is the additional delay, after the forward path
	// completes, until the node acknowledges its input channel.
	AckDelay sim.Time
	// ThrottleAck is the request-in to acknowledge latency for flits
	// the node absorbs (misrouted packets at non-speculative nodes,
	// blocked body flits at power-optimized speculative nodes).
	// Zero means the node never absorbs flits.
	ThrottleAck sim.Time
}

// Channel timing constants: the paper borrows channel lengths and delays
// from a synchronous MoT chip and scales them to 45 nm. One constant per
// direction models that fixed wire flight time.
const (
	// ChannelFwd is the request/data wire delay of one inter-node link.
	ChannelFwd sim.Time = 50
	// ChannelAck is the acknowledge wire delay of one link.
	ChannelAck sim.Time = 50
	// NICycle is the source network-interface overhead between receiving
	// an ack and driving the next flit onto the root channel.
	NICycle sim.Time = 60
	// SinkAck is the destination network-interface consume-and-ack time.
	SinkAck sim.Time = 40
)

var (
	mu    sync.Mutex
	table = map[string]Node{}
)

// derive builds the named node's netlist and reads its parameters off
// the gate-level paths.
func derive(name string) (Node, error) {
	nl, err := netlist.Build(name)
	if err != nil {
		return Node{}, fmt.Errorf("timing: unknown node type %q", name)
	}
	fwd := sim.Time(nl.MustPath(netlist.NetReqIn, netlist.NetReqOut0))
	ack := sim.Time(nl.MustPath(netlist.NetReqIn, netlist.NetAckOut))
	n := Node{
		Name:      name,
		AreaUm2:   nl.Area(),
		FwdHeader: fwd,
		FwdBody:   fwd,
		AckDelay:  ack - fwd,
	}
	if nl.Net(netlist.NetReqOutFast) != nil {
		n.FwdBody = sim.Time(nl.MustPath(netlist.NetReqIn, netlist.NetReqOutFast))
	}
	if nl.Net(netlist.NetAckFast) != nil {
		n.ThrottleAck = sim.Time(nl.MustPath(netlist.NetReqIn, netlist.NetAckFast))
	}
	return n, nil
}

// ByName returns the parameters of the named node type. Each type is
// derived from its netlist on its first lookup in the process and
// cached, so a run pays only for the node types it builds.
func ByName(name string) (Node, error) {
	mu.Lock()
	defer mu.Unlock()
	if n, ok := table[name]; ok {
		return n, nil
	}
	n, err := derive(name)
	if err != nil {
		return Node{}, err
	}
	table[name] = n
	return n, nil
}

// MustByName is ByName for statically known names.
func MustByName(name string) Node {
	n, err := ByName(name)
	if err != nil {
		panic(err)
	}
	return n
}

// ForProtocol adapts the node parameters to the handshake protocol: the
// four-phase return-to-zero half re-traverses the acknowledge logic, so
// the ack generation (and throttle ack) double while the bundled-data
// forward path is unchanged.
func (n Node) ForProtocol(p Protocol) Node {
	if p == FourPhase {
		n.AckDelay *= 2
		n.ThrottleAck *= 2
	}
	return n
}

// ChannelAckFor returns the acknowledge wire delay of one link under the
// protocol (four-phase pays the second ack flight).
func ChannelAckFor(p Protocol) sim.Time {
	if p == FourPhase {
		return 2 * ChannelAck
	}
	return ChannelAck
}
