// Package core is the paper's primary contribution surface: the local
// speculation architectures (Section 3), the five named multicast network
// configurations plus the serial baseline (Section 5.1), and the
// experiment harness (load runs and saturation search) that regenerates
// the evaluation.
package core

import (
	"fmt"

	"asyncnoc/internal/chiplet"
	"asyncnoc/internal/mesh"
	"asyncnoc/internal/netlist"
	"asyncnoc/internal/network"
	"asyncnoc/internal/node"
	"asyncnoc/internal/sim"
	"asyncnoc/internal/timing"
	"asyncnoc/internal/topology"
)

// DefaultPacketLen is the paper's fixed packet size of 5 flits.
const DefaultPacketLen = 5

// Network names, exactly as reported in the paper's tables.
const (
	NameBaseline        = "Baseline"
	NameBasicNonSpec    = "BasicNonSpeculative"
	NameBasicHybridSpec = "BasicHybridSpeculative"
	NameOptHybridSpec   = "OptHybridSpeculative"
	NameOptNonSpec      = "OptNonSpeculative"
	NameOptAllSpec      = "OptAllSpeculative"
)

// Baseline returns the serial-multicast baseline network [21]: unicast
// baseline fanout nodes, multicast expanded into back-to-back unicasts.
func Baseline(n int) network.Spec {
	return network.Spec{
		Name: NameBaseline, N: n, PacketLen: DefaultPacketLen,
		Scheme:      topology.NonSpeculative,
		NonSpecKind: node.Baseline,
		Serial:      true,
	}
}

// BasicNonSpeculative returns the simple tree-based parallel multicast
// network: every fanout node is an unoptimized non-speculative node.
func BasicNonSpeculative(n int) network.Spec {
	return network.Spec{
		Name: NameBasicNonSpec, N: n, PacketLen: DefaultPacketLen,
		Scheme:      topology.NonSpeculative,
		SpecKind:    node.Spec,
		NonSpecKind: node.NonSpec,
	}
}

// BasicHybridSpeculative returns the local-speculation hybrid network with
// unoptimized nodes (speculative root level, non-speculative below).
func BasicHybridSpeculative(n int) network.Spec {
	return network.Spec{
		Name: NameBasicHybridSpec, N: n, PacketLen: DefaultPacketLen,
		Scheme:      topology.Hybrid,
		SpecKind:    node.Spec,
		NonSpecKind: node.NonSpec,
	}
}

// OptHybridSpeculative returns the hybrid network built from the power-
// and performance-optimized nodes (Section 4(c)/(d)).
func OptHybridSpeculative(n int) network.Spec {
	return network.Spec{
		Name: NameOptHybridSpec, N: n, PacketLen: DefaultPacketLen,
		Scheme:      topology.Hybrid,
		SpecKind:    node.OptSpec,
		NonSpecKind: node.OptNonSpec,
	}
}

// OptNonSpeculative returns the zero-speculation optimized design point.
func OptNonSpeculative(n int) network.Spec {
	return network.Spec{
		Name: NameOptNonSpec, N: n, PacketLen: DefaultPacketLen,
		Scheme:      topology.NonSpeculative,
		SpecKind:    node.OptSpec,
		NonSpecKind: node.OptNonSpec,
	}
}

// OptAllSpeculative returns the almost fully speculative extreme: every
// level speculative except the last (the fanin network cannot throttle).
func OptAllSpeculative(n int) network.Spec {
	return network.Spec{
		Name: NameOptAllSpec, N: n, PacketLen: DefaultPacketLen,
		Scheme:      topology.AllSpeculative,
		SpecKind:    node.OptSpec,
		NonSpecKind: node.OptNonSpec,
	}
}

// ContributionTrajectory returns the four networks of the first case
// study (Section 5.1) in reporting order.
func ContributionTrajectory(n int) []network.Spec {
	return []network.Spec{
		Baseline(n), BasicNonSpeculative(n),
		BasicHybridSpeculative(n), OptHybridSpeculative(n),
	}
}

// DesignSpace returns the three optimized networks of the second case
// study, ordered by increasing speculation.
func DesignSpace(n int) []network.Spec {
	return []network.Spec{
		OptNonSpeculative(n), OptHybridSpeculative(n), OptAllSpeculative(n),
	}
}

// AllSpecs returns the six distinct network configurations.
func AllSpecs(n int) []network.Spec {
	return []network.Spec{
		Baseline(n), BasicNonSpeculative(n), BasicHybridSpeculative(n),
		OptHybridSpeculative(n), OptNonSpeculative(n), OptAllSpeculative(n),
	}
}

// MeshTree returns a w x h 2D mesh of asynchronous XY routers with
// tree-based multicast: the paper's future-work topology.
func MeshTree(w, h int) network.Spec {
	return network.Spec{Name: fmt.Sprintf("Mesh%dx%dTree", w, h), N: w * h, PacketLen: DefaultPacketLen,
		Mesh: &mesh.Size{W: w, H: h}}
}

// MeshSerial returns a w x h mesh expanding multicast into serial XY
// unicasts (the baseline scheme on the alternative topology).
func MeshSerial(w, h int) network.Spec {
	s := MeshTree(w, h)
	s.Name, s.Serial = fmt.Sprintf("Mesh%dx%dSerial", w, h), true
	return s
}

// SyncClockMargin is the setup/skew/jitter margin added to the slowest
// node path when deriving the synchronous variant's clock period.
const SyncClockMargin sim.Time = 100

// Synchronous derives the clocked comparison point of an architecture:
// the same topology and node designs, but every node quantized to a
// clock period of (slowest node forward path + SyncClockMargin), with
// clock-tree power charged. This makes the paper's async-vs-sync
// motivation measurable.
func Synchronous(spec network.Spec) network.Spec {
	worst := timing.MustByName(netlist.FaninNode).FwdHeader
	kinds := []node.Kind{spec.NonSpecKind}
	if spec.SpecKind != spec.NonSpecKind && !spec.Serial {
		kinds = append(kinds, spec.SpecKind)
	}
	for _, k := range kinds {
		if t := timing.MustByName(k.NetlistName()); t.FwdHeader > worst {
			worst = t.FwdHeader
		}
	}
	spec.SyncPeriod = worst + SyncClockMargin
	spec.Name += "(sync)"
	return spec
}

// WithStrategy rebuilds a spec to plan injections under the named
// multicast routing scheme (see routing.StrategyNames); the reporting
// name gains a "+strategy" suffix so tables and engine memo keys
// distinguish the variant. An empty name returns the spec unchanged:
// the architecture's default scheme.
func WithStrategy(spec network.Spec, strategy string) network.Spec {
	if strategy == "" {
		return spec
	}
	spec.Strategy = strategy
	spec.Name += "+" + strategy
	return spec
}

// WithChiplet composes a single-die architecture into a mesh of
// identical dies: p describes the interposer (NoI mesh dimensions plus
// the die-to-die channel's serial/parallel beat parameters), and the
// resulting spec simulates p.Dies() copies of the die connected through
// per-die egress gateways. The reporting name gains an "@WxHofN" suffix
// so tables and engine memo keys distinguish the composition. A nil p
// returns the spec unchanged.
func WithChiplet(spec network.Spec, p *chiplet.Params) network.Spec {
	if p == nil {
		return spec
	}
	spec.Chiplet = p
	spec.Name += "@" + p.Tag(spec.N)
	return spec
}

// SpecByName looks a configuration up by its reporting name.
func SpecByName(n int, name string) (network.Spec, error) {
	for _, s := range AllSpecs(n) {
		if s.Name == name {
			return s, nil
		}
	}
	return network.Spec{}, fmt.Errorf("core: unknown network %q", name)
}
