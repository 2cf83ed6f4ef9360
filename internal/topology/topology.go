// Package topology models the variant Mesh-of-Trees (MoT) interconnect of
// Balkan et al. used by the paper, and the speculation placements that the
// local-speculation architectures impose on its fanout trees.
//
// An n x n variant MoT connects n source terminals to n destination
// terminals through two mirrored forests of binary trees:
//
//   - every source s roots a fanout tree of n-1 routing nodes whose n
//     leaf outputs reach every destination;
//   - every destination d roots a fanin tree of n-1 arbitration nodes whose
//     n leaf inputs come from every source.
//
// Leaf d of fanout tree s is wired to leaf s of fanin tree d, so each
// (source, destination) pair has exactly one path of 2*log2(n) nodes.
//
// Tree nodes use 1-based heap indexing: node k has children 2k ("top",
// covering the lower half of the destination range) and 2k+1 ("bottom").
// Heap slots [n, 2n) are the leaf channels; leaf n+d corresponds to
// destination d in a fanout tree (and to source d in a fanin tree).
package topology

import (
	"fmt"
	"math/bits"

	"asyncnoc/internal/packet"
)

// Port identifies one of the two output (or input) sides of a tree node.
type Port int

const (
	// Top is child 2k, covering the lower half of the index range.
	Top Port = 0
	// Bottom is child 2k+1, covering the upper half.
	Bottom Port = 1
)

// String names the port.
func (p Port) String() string {
	if p == Top {
		return "top"
	}
	return "bottom"
}

// MoT describes an n x n variant Mesh-of-Trees.
type MoT struct {
	// N is the number of terminals per side.
	N int
	// Levels is log2(N): the number of fanout (and fanin) node levels
	// on every source-destination path.
	Levels int
}

// maxRadix is the largest per-die radix New accepts. An n x n MoT
// instantiates ~2n^2 nodes plus channels and interfaces, so the ceiling
// keeps a careless flag value from allocating gigabytes; a larger
// network is composed of smaller dies with a chiplet spec.
const maxRadix = 1024

// New constructs an n x n MoT. n must be a power of two, at least 2 and
// at most 1024 (maxRadix).
func New(n int) (*MoT, error) {
	if n < 2 || n&(n-1) != 0 {
		return nil, fmt.Errorf("topology: n must be a power of two >= 2, got %d", n)
	}
	if n > maxRadix {
		// ~2n(n-1) tree nodes, 2n interfaces, and ~4n^2 channel endpoints;
		// at roughly 1 KiB of simulator state per element that is ~4n^2 KiB.
		estMiB := float64(4*n*n) / 1024
		return nil, fmt.Errorf("topology: n=%d exceeds the radix limit %d (an %dx%d MoT needs ~%.0f MiB of simulator state; compose smaller dies with a chiplet spec)",
			n, maxRadix, n, n, estMiB)
	}
	return &MoT{N: n, Levels: bits.TrailingZeros(uint(n))}, nil
}

// MustNew is New for statically valid sizes; it panics on error.
func MustNew(n int) *MoT {
	m, err := New(n)
	if err != nil {
		panic(err)
	}
	return m
}

// NodesPerTree returns the number of internal nodes of one tree (n-1).
func (m *MoT) NodesPerTree() int { return m.N - 1 }

// TotalFanoutNodes returns the fanout-node count of the whole network.
func (m *MoT) TotalFanoutNodes() int { return m.N * (m.N - 1) }

// TotalFaninNodes returns the fanin-node count of the whole network.
func (m *MoT) TotalFaninNodes() int { return m.N * (m.N - 1) }

// LevelOf returns the level of heap node k, with the root at level 0 and
// the leaf-adjacent level at Levels-1.
func (m *MoT) LevelOf(k int) int {
	if k < 1 || k >= m.N {
		panic(fmt.Sprintf("topology: node index %d out of [1,%d)", k, m.N))
	}
	return bits.Len(uint(k)) - 1
}

// NodesAtLevel returns the node count at a level (2^lvl).
func (m *MoT) NodesAtLevel(lvl int) int {
	if lvl < 0 || lvl >= m.Levels {
		panic(fmt.Sprintf("topology: level %d out of [0,%d)", lvl, m.Levels))
	}
	return 1 << uint(lvl)
}

// FirstAtLevel returns the smallest heap index at a level (2^lvl).
func (m *MoT) FirstAtLevel(lvl int) int { return m.NodesAtLevel(lvl) }

// IsLeafLevel reports whether heap node k sits at the last fanout level,
// whose outputs cross to the fanin forest.
func (m *MoT) IsLeafLevel(k int) bool { return m.LevelOf(k) == m.Levels-1 }

// Child returns the heap index reached through port p of node k. For
// leaf-level nodes the returned index is a leaf slot in [n, 2n).
func (m *MoT) Child(k int, p Port) int { return 2*k + int(p) }

// Parent returns the heap parent of node or leaf slot k, and the port of
// the parent that leads to k. The root (k=1) has no parent.
func (m *MoT) Parent(k int) (parent int, via Port) {
	if k < 2 || k >= 2*m.N {
		panic(fmt.Sprintf("topology: parent of %d undefined", k))
	}
	return k / 2, Port(k & 1)
}

// SubtreeDests returns the destination set covered by the subtree hanging
// off heap index k (k may be an internal node in [1,n) or a leaf slot in
// [n,2n)).
func (m *MoT) SubtreeDests(k int) packet.DestSet {
	if k < 1 || k >= 2*m.N {
		panic(fmt.Sprintf("topology: subtree of %d undefined", k))
	}
	h := m.Levels + 1 - bits.Len(uint(k)) // height above leaf slots
	lo := k<<uint(h) - m.N
	hi := (k+1)<<uint(h) - m.N
	return packet.Range(lo, hi)
}

// PathTo returns the heap indices of the fanout nodes on the unique path
// from the tree root to destination d, ordered root first. The slice has
// exactly Levels entries.
func (m *MoT) PathTo(d int) []int {
	if d < 0 || d >= m.N {
		panic(fmt.Sprintf("topology: destination %d out of [0,%d)", d, m.N))
	}
	path := make([]int, m.Levels)
	k := m.N + d
	for lvl := m.Levels - 1; lvl >= 0; lvl-- {
		k /= 2
		path[lvl] = k
	}
	return path
}

// PortToward returns which output port of node k leads toward destination
// d. It panics if d is not under k's subtree.
func (m *MoT) PortToward(k, d int) Port {
	if !m.SubtreeDests(k).Has(d) {
		panic(fmt.Sprintf("topology: dest %d not under node %d", d, k))
	}
	if m.SubtreeDests(m.Child(k, Top)).Has(d) {
		return Top
	}
	return Bottom
}

// LeafFor returns the leaf-level fanout node and port whose output is leaf
// slot n+d (i.e. the last fanout hop toward destination d).
func (m *MoT) LeafFor(d int) (k int, via Port) {
	slot := m.N + d
	return slot / 2, Port(slot & 1)
}

// HopCount returns the number of node traversals on any source-destination
// path: Levels fanout nodes plus Levels fanin nodes.
func (m *MoT) HopCount() int { return 2 * m.Levels }

// String describes the topology.
func (m *MoT) String() string {
	return fmt.Sprintf("%dx%d variant MoT (%d levels, %d fanout + %d fanin nodes)",
		m.N, m.N, m.Levels, m.TotalFanoutNodes(), m.TotalFaninNodes())
}
