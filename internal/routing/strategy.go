package routing

import (
	"fmt"
	"math/bits"

	"asyncnoc/internal/packet"
	"asyncnoc/internal/topology"
)

// This file promotes the package's encode functions into a pluggable
// Strategy layer (ROADMAP item 3): a multicast scheme decides how one
// logical destination set becomes physical packets (the plan) and what
// header width the scheme costs. Five schemes are registered:
//
//   - SerialUnicast: one unicast packet per destination, in ascending
//     order — the paper's serial baseline, now available on every fabric.
//   - TreeMulticast: one tree-replicated packet for the whole set, with
//     every fanout node addressed (the paper's parallel multicast).
//   - SpeculativeMulticast: the same single-packet plan under the
//     simplified source routing of Section 3 — speculative nodes carry
//     no field, so the header shrinks with the placement (14 -> 12 -> 8
//     bits across the 8x8 architectures). The default multicast scheme.
//   - PathBased: dual-path multicast from the related work
//     (arXiv:1610.00751): destinations split into an "up" partition
//     (>= source, delivered in ascending Hamiltonian order) and a
//     "down" partition (< source, descending), one packet each.
//   - DPM: Dynamic Partition Merging (arXiv:2108.00566): start from
//     per-destination partitions in Hamiltonian order and greedily merge
//     adjacent partitions while the merged plan costs fewer link
//     traversals than the parts separately.
//
// Every fanout node decodes one way (DecodeSymbol): it reads its 2-bit
// route field (or its 1-bit path field on the serial baseline), so a
// strategy changes packet structure, never node hardware.

// Fabric is the routing-relevant description of a network: its
// speculation placement (which also carries the MoT geometry), whether
// it is the serial baseline whose nodes decode 1-bit unicast path
// routes, and — for a fabric whose routers read the destination mask
// instead of a route word — that fabric's path order and link cost.
type Fabric struct {
	Placement *topology.Placement
	Serial    bool
	// Mask, when set, plans for a mask-routed fabric (the 2D mesh): its
	// plans carry no route word, its Hamiltonian order and link cost
	// come from Mask, and Placement is unused. Nil means the MoT.
	Mask MaskRouted
}

// MaskRouted describes a fabric whose routers forward by the packet's
// destination mask.
type MaskRouted interface {
	// Terminals is the fabric's terminal count.
	Terminals() int
	// PathPos is terminal d's position on the fabric's Hamiltonian path.
	PathPos(d int) int
	// LinkCost counts the link traversals of delivering dests from src
	// in one packet (in unicasts on the serial fabric), excluding the
	// source's injection link.
	LinkCost(src int, dests packet.DestSet) int
}

// MoT returns the fabric's tree geometry.
func (f Fabric) MoT() *topology.MoT { return f.Placement.MoT() }

// terminals is the fabric's terminal count.
func (f Fabric) terminals() int {
	if f.Mask != nil {
		return f.Mask.Terminals()
	}
	return f.MoT().N
}

// pathPos is terminal d's Hamiltonian position: the index order itself
// on the MoT.
func (f Fabric) pathPos(d int) int {
	if f.Mask != nil {
		return f.Mask.PathPos(d)
	}
	return d
}

// pathOrder returns the set's members in Hamiltonian order, filling buf.
func (f Fabric) pathOrder(s packet.DestSet, buf *[64]int) []int {
	ds := buf[:0]
	for v := uint64(s); v != 0; v &= v - 1 {
		ds = append(ds, bits.TrailingZeros64(v))
	}
	if f.Mask != nil {
		for i := 1; i < len(ds); i++ {
			for j := i; j > 0 && f.Mask.PathPos(ds[j]) < f.Mask.PathPos(ds[j-1]); j-- {
				ds[j], ds[j-1] = ds[j-1], ds[j]
			}
		}
	}
	return ds
}

// Plan is one physical packet of a strategy's expansion of a logical
// multicast: the destination subset it covers and its packed route word.
type Plan struct {
	Dests packet.DestSet
	Route uint64
}

// Strategy is a multicast routing scheme.
type Strategy interface {
	// Name is the scheme's registry and reporting name.
	Name() string
	// Plan expands one logical injection into physical packets, calling
	// emit once per packet in injection order. Implementations validate
	// src and dests against the fabric before emitting anything.
	Plan(f Fabric, src int, dests packet.DestSet, emit func(Plan)) error
	// HeaderBits is the scheme's per-packet header address width on a
	// MoT fabric (Mask nil), extending the Section 5.2(d) cost
	// comparison.
	HeaderBits(f Fabric) int
}

// Scheme registry names.
const (
	SerialUnicastName        = "SerialUnicast"
	TreeMulticastName        = "TreeMulticast"
	SpeculativeMulticastName = "SpeculativeMulticast"
	PathBasedName            = "PathBased"
	DPMName                  = "DPM"
)

// DecodeSymbol is the one per-node decode of every route word a
// strategy plans on a MoT: baseline nodes read their 1-bit path field,
// multicast fabrics read the placement's 2-bit field (speculative nodes
// broadcast).
func DecodeSymbol(f Fabric, heap int, route uint64) Symbol {
	if f.Serial {
		if BaselinePort(route, f.MoT().LevelOf(heap)) == topology.Top {
			return SymTop
		}
		return SymBottom
	}
	return NodeSymbol(f.Placement, heap, route)
}

// emitChain expands one ordered delivery group into physical packets:
// on the serial fabric every member becomes its own unicast packet in
// Hamiltonian order (descending when desc is set), elsewhere the whole
// group rides one packet.
func emitChain(f Fabric, dests packet.DestSet, desc bool, emit func(Plan)) error {
	if dests.Empty() {
		return nil
	}
	if !f.Serial {
		return emitPlan(f, dests, emit)
	}
	var buf [64]int
	ds := f.pathOrder(dests, &buf)
	for i := range ds {
		d := ds[i]
		if desc {
			d = ds[len(ds)-1-i]
		}
		if err := emitPlan(f, packet.Dest(d), emit); err != nil {
			return err
		}
	}
	return nil
}

// emitPlan emits one packet for dests with its route word: the tree
// encoding on the MoT, the unicast path on the serial MoT, and none on a
// mask-routed fabric, whose routers read the destination mask.
func emitPlan(f Fabric, dests packet.DestSet, emit func(Plan)) error {
	var route uint64
	var err error
	switch {
	case f.Mask != nil:
	case f.Serial:
		route, err = EncodeBaseline(f.MoT(), dests.First())
	default:
		route, err = EncodeMulticast(f.Placement, dests)
	}
	if err == nil {
		emit(Plan{Dests: dests, Route: route})
	}
	return err
}

// validatePlan rejects the argument errors every scheme shares.
func validatePlan(f Fabric, src int, dests packet.DestSet) error {
	n := f.terminals()
	if src < 0 || src >= n {
		return fmt.Errorf("routing: source %d outside [0,%d)", src, n)
	}
	if dests.Empty() {
		return fmt.Errorf("routing: empty destination set")
	}
	if extra := dests &^ packet.Range(0, n); !extra.Empty() {
		return fmt.Errorf("routing: destinations %v outside [0,%d)", extra, n)
	}
	return nil
}

// scheme implements Strategy over two closures: planning and header
// cost are all that vary between registered schemes.
type scheme struct {
	name string
	plan func(f Fabric, src int, dests packet.DestSet, emit func(Plan)) error
	bits func(f Fabric) int
}

// Name implements Strategy.
func (s *scheme) Name() string { return s.name }

// Plan implements Strategy.
func (s *scheme) Plan(f Fabric, src int, dests packet.DestSet, emit func(Plan)) error {
	if err := validatePlan(f, src, dests); err != nil {
		return err
	}
	return s.plan(f, src, dests, emit)
}

// HeaderBits implements Strategy. The serial baseline always carries the
// 1-bit-per-level unicast path regardless of scheme.
func (s *scheme) HeaderBits(f Fabric) int {
	if f.Serial {
		return topology.BaselineAddressBits(f.MoT())
	}
	return s.bits(f)
}

// pathSplit partitions a destination set for dual-path delivery around
// the source's Hamiltonian position: up holds the destinations at or
// after the source on the fabric's path, down the rest.
func pathSplit(f Fabric, src int, dests packet.DestSet) (up, down packet.DestSet) {
	srcPos := f.pathPos(src)
	for v := uint64(dests); v != 0; v &= v - 1 {
		d := bits.TrailingZeros64(v)
		if f.pathPos(d) >= srcPos {
			up = up.Add(d)
		} else {
			down = down.Add(d)
		}
	}
	return up, down
}

// mergeAdjacent is the Dynamic Partition Merging core: given partitions
// in Hamiltonian order, repeatedly merge an adjacent pair whenever the
// merged partition's plan is strictly cheaper than the two parts
// separately, until no merge improves. Ties do not merge — a merge that
// saves nothing only serializes deliveries behind one header. The input
// slice is consumed.
func mergeAdjacent(parts []packet.DestSet, cost func(packet.DestSet) int) []packet.DestSet {
	for merged := true; merged; {
		merged = false
		for i := 0; i+1 < len(parts); i++ {
			a, b := parts[i], parts[i+1]
			if cost(a|b) < cost(a)+cost(b) {
				parts[i] = a | b
				parts = append(parts[:i+1], parts[i+2:]...)
				merged = true
				i--
			}
		}
	}
	return parts
}

// LinkCost counts the MoT fanout-tree link traversals the destination set
// costs on the fabric: the links of the decode walk from the tree root,
// including the wasted broadcasts of speculative nodes (an off-path copy
// still crosses the link that carries it to the addressable node that
// throttles it). On the serial fabric the set expands into unicasts,
// each walking the full Levels-deep path. The source-to-root injection
// link is common to every plan and excluded, so a merge that shares no
// tree links is never an improvement.
func LinkCost(f Fabric, dests packet.DestSet) int {
	m := f.MoT()
	if f.Serial {
		return dests.Count() * m.Levels
	}
	var walk func(k int) int
	walk = func(k int) int {
		sym := SymBoth
		if !f.Placement.IsSpeculative(k) {
			needTop := !dests.Intersect(m.SubtreeDests(m.Child(k, topology.Top))).Empty()
			needBot := !dests.Intersect(m.SubtreeDests(m.Child(k, topology.Bottom))).Empty()
			sym = SymbolFor(needTop, needBot)
		}
		cost := 0
		for _, p := range []topology.Port{topology.Top, topology.Bottom} {
			if !sym.Wants(p) {
				continue
			}
			cost++
			if c := m.Child(k, p); c < m.N {
				cost += walk(c)
			}
		}
		return cost
	}
	return walk(1)
}

// planOnePacket is the plan of both parallel multicast schemes: one
// packet carries the whole destination set, and the schemes differ only
// in header cost.
func planOnePacket(f Fabric, _ int, dests packet.DestSet, emit func(Plan)) error {
	return emitChain(f, dests, false, emit)
}

// ceilDiv is ceil(a/b) for positive operands.
func ceilDiv(a, b int) int { return (a + b - 1) / b }

var (
	serialUnicast = &scheme{
		name: SerialUnicastName,
		plan: func(f Fabric, _ int, dests packet.DestSet, emit func(Plan)) error {
			var err error
			dests.ForEach(func(d int) {
				if err == nil {
					err = emitChain(f, packet.Dest(d), false, emit)
				}
			})
			return err
		},
		// Nominally each unicast needs only its path bits, but a
		// multicast fabric's nodes read the placement's 2-bit fields, so
		// that is what every packet carries.
		bits: func(f Fabric) int { return f.Placement.AddressBits() },
	}

	treeMulticast = &scheme{
		name: TreeMulticastName,
		plan: planOnePacket,
		// Parallel multicast addresses every fanout node: 2 bits per
		// node (14 for the 8x8 MoT), the paper's pre-simplification cost.
		bits: func(f Fabric) int { return 2 * f.MoT().NodesPerTree() },
	}

	speculativeMulticast = &scheme{
		name: SpeculativeMulticastName,
		plan: planOnePacket,
		// Simplified source routing: only addressable nodes carry fields.
		bits: func(f Fabric) int { return f.Placement.AddressBits() },
	}

	pathBased = &scheme{
		name: PathBasedName,
		plan: func(f Fabric, src int, dests packet.DestSet, emit func(Plan)) error {
			up, down := pathSplit(f, src, dests)
			if err := emitChain(f, up, false, emit); err != nil {
				return err
			}
			return emitChain(f, down, true, emit)
		},
		// Each dual-path header is provisioned to list half the
		// terminals, log2(n) bits per listed destination.
		bits: func(f Fabric) int {
			m := f.MoT()
			return ceilDiv(m.N, 2) * m.Levels
		},
	}

	dpm = &scheme{
		name: DPMName,
		plan: func(f Fabric, src int, dests packet.DestSet, emit func(Plan)) error {
			var order [64]int
			var buf [64]packet.DestSet
			parts := buf[:0]
			for _, d := range f.pathOrder(dests, &order) {
				parts = append(parts, packet.Dest(d))
			}
			parts = mergeAdjacent(parts, func(s packet.DestSet) int {
				if f.Mask != nil {
					return f.Mask.LinkCost(src, s)
				}
				return LinkCost(f, s)
			})
			for _, part := range parts {
				if err := emitChain(f, part, false, emit); err != nil {
					return err
				}
			}
			return nil
		},
		// The merged-partition header must hold the worst case of every
		// destination in one partition: n entries of log2(n) bits.
		bits: func(f Fabric) int {
			m := f.MoT()
			return m.N * m.Levels
		},
	}
)

// Strategies returns every registered scheme in reporting order.
func Strategies() []Strategy {
	return []Strategy{serialUnicast, treeMulticast, speculativeMulticast, pathBased, dpm}
}

// StrategyNames returns the registry names in reporting order.
func StrategyNames() []string {
	all := Strategies()
	names := make([]string, len(all))
	for i, s := range all {
		names[i] = s.Name()
	}
	return names
}

// StrategyByName resolves a registry name.
func StrategyByName(name string) (Strategy, error) {
	for _, s := range Strategies() {
		if s.Name() == name {
			return s, nil
		}
	}
	return nil, fmt.Errorf("routing: unknown strategy %q (have %v)", name, StrategyNames())
}

// StrategyFor resolves a spec's strategy name. An empty name selects the
// fabric's default: the serial baseline expands multicasts into
// ascending unicasts, every other fabric uses the paper's simplified
// speculative multicast. Both reproduce the pre-strategy behavior
// bit-identically.
func StrategyFor(name string, serial bool) (Strategy, error) {
	switch {
	case name != "":
		return StrategyByName(name)
	case serial:
		return serialUnicast, nil
	default:
		return speculativeMulticast, nil
	}
}
