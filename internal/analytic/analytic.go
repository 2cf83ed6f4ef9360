// Package analytic derives closed-form predictions from the gate-level
// timing parameters and cross-validates the discrete-event simulator
// against them:
//
//   - ZeroLoadLatency: the exact header flight time of a quiet unicast,
//     summing the netlist forward paths and wire delays along the unique
//     MoT route. The simulator must match this to the picosecond
//     (TestZeroLoadExact) — a strong end-to-end check that the behavioral
//     models implement the netlist timing faithfully.
//
//   - StageCycles / CapacityGFs: the sustained per-stage handshake
//     periods under backpressure and the resulting per-source injection
//     ceiling. Saturation search results must stay below this ceiling
//     and within a band of it for contention-free traffic.
package analytic

import (
	"fmt"

	"asyncnoc/internal/netlist"
	"asyncnoc/internal/network"
	"asyncnoc/internal/node"
	"asyncnoc/internal/sim"
	"asyncnoc/internal/timing"
	"asyncnoc/internal/topology"
)

// kindFor mirrors the network's node-kind selection.
func kindFor(spec network.Spec, pl *topology.Placement, k int) node.Kind {
	if spec.Serial {
		return node.Baseline
	}
	if pl.IsSpeculative(k) {
		return spec.SpecKind
	}
	return spec.NonSpecKind
}

// nodeTiming resolves the (protocol- and clock-adjusted) parameters of a
// fanout kind under the spec.
func nodeTiming(spec network.Spec, k node.Kind) timing.Node {
	t := timing.MustByName(k.NetlistName()).ForProtocol(spec.Protocol)
	if spec.SyncPeriod > 0 {
		t.FwdHeader, t.FwdBody = spec.SyncPeriod, spec.SyncPeriod
		t.AckDelay = spec.SyncPeriod / 8
	}
	return t
}

func faninTiming(spec network.Spec) timing.Node {
	t := timing.MustByName(netlist.FaninNode).ForProtocol(spec.Protocol)
	if spec.SyncPeriod > 0 {
		t.FwdHeader, t.FwdBody = spec.SyncPeriod, spec.SyncPeriod
		t.AckDelay = spec.SyncPeriod / 8
	}
	return t
}

// ZeroLoadLatency returns the exact quiet-network header latency from
// injection at src to delivery of the header at dest, in picoseconds:
//
//	NI drive + (wire + node forward) per hop + final wire to the sink.
func ZeroLoadLatency(spec network.Spec, src, dest int) (sim.Time, error) {
	if src < 0 || src >= spec.N || dest < 0 || dest >= spec.N {
		return 0, fmt.Errorf("analytic: src/dest %d/%d out of range", src, dest)
	}
	pl, err := spec.Placement()
	if err != nil {
		return 0, err
	}
	m := pl.MoT()
	chFwd := timing.ChannelFwd
	var total sim.Time
	// Fanout path: one wire + forward per level.
	for _, k := range m.PathTo(dest) {
		t := nodeTiming(spec, kindFor(spec, pl, k))
		total += chFwd + t.FwdHeader
	}
	// Fanin path: levels of the destination tree, same count.
	ft := faninTiming(spec)
	for lvl := 0; lvl < m.Levels; lvl++ {
		total += chFwd + ft.FwdHeader
	}
	// Final hop into the sink interface.
	total += chFwd
	return total, nil
}

// StageCycle describes one pipeline stage's sustained period under
// backpressure: the handshake control loop (forward + ack generation)
// plus the wire round trip it gates.
type StageCycle struct {
	Name string
	// HeaderPs/BodyPs are the per-flit-class sustained periods.
	HeaderPs, BodyPs sim.Time
}

// PacketAvgPs returns the average per-flit period for a packet of the
// given length (one header, length-1 body/tail flits).
func (s StageCycle) PacketAvgPs(packetLen int) float64 {
	if packetLen < 1 {
		packetLen = 1
	}
	return (float64(s.HeaderPs) + float64(s.BodyPs)*float64(packetLen-1)) / float64(packetLen)
}

// StageCycles lists the distinct stage periods of a network's unicast
// path: the source interface + root fanout stage, one entry per further
// fanout level, and the fanin stage.
func StageCycles(spec network.Spec) ([]StageCycle, error) {
	pl, err := spec.Placement()
	if err != nil {
		return nil, err
	}
	m := pl.MoT()
	wire := timing.ChannelFwd + timing.ChannelAckFor(spec.Protocol)
	var out []StageCycle
	for lvl := 0; lvl < m.Levels; lvl++ {
		k := m.FirstAtLevel(lvl)
		t := nodeTiming(spec, kindFor(spec, pl, k))
		cyc := StageCycle{
			Name:     fmt.Sprintf("fanout-L%d(%s)", lvl, kindFor(spec, pl, k)),
			HeaderPs: t.FwdHeader + t.AckDelay + wire,
			BodyPs:   t.FwdBody + t.AckDelay + wire,
		}
		if lvl == 0 {
			// The source interface adds its cycle to the root stage.
			cyc.Name = "NI+" + cyc.Name
			cyc.HeaderPs += timing.NICycle
			cyc.BodyPs += timing.NICycle
		}
		out = append(out, cyc)
	}
	ft := faninTiming(spec)
	out = append(out, StageCycle{
		Name:     "fanin",
		HeaderPs: ft.FwdHeader + ft.AckDelay + wire,
		BodyPs:   ft.FwdBody + ft.AckDelay + wire,
	})
	return out, nil
}

// CapacityGFs returns the analytic per-source injection ceiling for
// contention-free unicast traffic: the reciprocal of the slowest stage's
// packet-averaged period.
func CapacityGFs(spec network.Spec) (float64, error) {
	stages, err := StageCycles(spec)
	if err != nil {
		return 0, err
	}
	worst := 0.0
	for _, s := range stages {
		if p := s.PacketAvgPs(spec.PacketLen); p > worst {
			worst = p
		}
	}
	if worst == 0 {
		return 0, fmt.Errorf("analytic: no stages")
	}
	return 1000 / worst, nil // ps per flit -> GF/s
}
