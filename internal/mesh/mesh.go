// Package mesh describes the paper's future-work topology: a 2D-mesh
// asynchronous NoC with XY dimension-order routing and tree-based
// (destination-encoded) multicast. It holds the mesh's spec, its XY
// geometry (Grid) and its five-port Router; package network wires the
// routers into a simulated network (network.NewMesh) with the same
// network interfaces, packet pool, accounting and trace as the
// Mesh-of-Trees networks.
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
// The mesh owns no multicast partitioning: a mesh network plans through
// the spec's routing.Strategy on a mask-routed routing.Fabric whose Mask
// is the Grid (its snake Hamiltonian order and XY link cost), so every
// registered scheme runs here exactly as on the MoT.
//
// Deadlock freedom mirrors the MoT argument (DESIGN.md): XY ordering
// makes channel dependencies acyclic, output locks are acquired
// all-or-nothing at the header, and virtual-cut-through reservation
// guarantees a committed packet never stalls mid-packet at a
// replication point.
package mesh

import (
	"fmt"

	"asyncnoc/internal/packet"
	"asyncnoc/internal/routing"
	"asyncnoc/internal/topology"
)

// Router port indices.
const (
	North = iota
	East
	South
	West
	LocalPort
	// NumPorts is the router's port count.
	NumPorts
)

// portNames labels the ports in diagnostics, indexed by port.
var portNames = [NumPorts]string{"N", "E", "S", "W", "L"}

// PortName labels port p in diagnostics: N, E, S, W or L (local).
func PortName(p int) string { return portNames[p] }

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

// Grid returns the spec's geometry.
func (s Spec) Grid() Grid { return Grid{W: s.W, H: s.H, Serial: s.Serial} }

// Grid is the XY geometry of a W x H mesh: tile coordinates, each
// router's output selection, and the routing.MaskRouted view the
// multicast strategies plan on. It is a plain value, copied into every
// router.
type Grid struct {
	W, H int
	// Serial prices LinkCost as separate unicast paths, the serial
	// fabric's, instead of one XY multicast tree.
	Serial bool
}

var _ routing.MaskRouted = Grid{}

// Coord maps a terminal index to tile coordinates.
func (g Grid) Coord(d int) (x, y int) { return d % g.W, d / g.W }

// Tile maps coordinates to the terminal index.
func (g Grid) Tile(x, y int) int { return y*g.W + x }

// RouteOuts partitions a branch destination set over the output ports
// of the router at (x, y) under XY dimension-order routing, returning
// the port bitmask and the pruned per-port subsets.
func (g Grid) RouteOuts(x, y int, dests packet.DestSet) (mask uint8, sub [NumPorts]packet.DestSet) {
	dests.ForEach(func(d int) {
		dx, dy := g.Coord(d)
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

// Terminals implements routing.MaskRouted: the tile count.
func (g Grid) Terminals() int { return g.W * g.H }

// PathPos implements routing.MaskRouted: a tile's position on the
// mesh's Hamiltonian path, the boustrophedon (snake) order that walks
// each row alternately left-to-right and right-to-left, so consecutive
// positions are mesh neighbors.
func (g Grid) PathPos(d int) int {
	x, y := g.Coord(d)
	if y%2 == 1 {
		x = g.W - 1 - x
	}
	return y*g.W + x
}

// LinkCost implements routing.MaskRouted: it counts the link traversals
// (router-to-router plus delivery locals) of delivering dests from src:
// the XY multicast tree's links on the tree fabric, the sum of the
// unicast XY paths — which share nothing physically — in serial mode.
// The source's injection link is common to every plan and excluded, so
// a merge that shares no links is never an improvement.
func (g Grid) LinkCost(src int, dests packet.DestSet) int {
	sx, sy := g.Coord(src)
	if g.Serial {
		total := 0
		dests.ForEach(func(d int) {
			dx, dy := g.Coord(d)
			total += absInt(dx-sx) + absInt(dy-sy) + 1
		})
		return total
	}
	var count func(x, y int, d packet.DestSet) int
	count = func(x, y int, d packet.DestSet) int {
		mask, sub := g.RouteOuts(x, y, d)
		c := 0
		for p := 0; p < NumPorts; p++ {
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
