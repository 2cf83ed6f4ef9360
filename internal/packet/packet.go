// Package packet defines the flit-level data units that travel through the
// asynchronous Mesh-of-Trees network.
//
// A packet is a fixed sequence of flits: one header carrying the source
// route, zero or more body flits, and one tail. The paper evaluates 5-flit
// packets (header + 3 body + tail); the model supports any length >= 1
// (a 1-flit packet is a combined header/tail).
package packet

import (
	"fmt"
	"hash/crc32"
	"math/bits"
	"strings"

	"asyncnoc/internal/pool"
)

// MaxDests is the widest destination space one DestSet can address.
// Larger systems go through the chiplet composition layer, which
// carries one local DestSet per die.
const MaxDests = 64

// DestSet is a bitmask over destination terminal indices (bit d set means
// destination d is addressed). It supports networks of up to 64 terminals
// per side, far beyond the 8x8 and 16x16 MoTs studied in the paper.
type DestSet uint64

// Dest returns the singleton set {d}.
func Dest(d int) DestSet { return 1 << uint(d) }

// Dests builds a set from a list of destination indices.
func Dests(ds ...int) DestSet {
	var s DestSet
	for _, d := range ds {
		s |= Dest(d)
	}
	return s
}

// Has reports whether d is in the set.
func (s DestSet) Has(d int) bool { return s&Dest(d) != 0 }

// Add returns the set with d included.
func (s DestSet) Add(d int) DestSet { return s | Dest(d) }

// Count returns the number of destinations in the set.
func (s DestSet) Count() int { return bits.OnesCount64(uint64(s)) }

// Empty reports whether the set has no destinations.
func (s DestSet) Empty() bool { return s == 0 }

// Intersect returns the intersection of two sets.
func (s DestSet) Intersect(o DestSet) DestSet { return s & o }

// Range returns the set of all destinations in [lo, hi).
func Range(lo, hi int) DestSet {
	if hi <= lo {
		return 0
	}
	if hi-lo >= 64 {
		return ^DestSet(0) << uint(lo)
	}
	return ((1 << uint(hi-lo)) - 1) << uint(lo)
}

// Members returns the destinations in ascending order. It allocates;
// hot paths iterate with ForEach instead.
func (s DestSet) Members() []int {
	out := make([]int, 0, s.Count())
	for v := uint64(s); v != 0; {
		d := bits.TrailingZeros64(v)
		out = append(out, d)
		v &= v - 1
	}
	return out
}

// ForEach calls fn for every destination in ascending order without
// allocating — the hot-path iteration primitive (injection expansion,
// routing and throttle checks); Members remains for tests and display.
func (s DestSet) ForEach(fn func(d int)) {
	for v := uint64(s); v != 0; v &= v - 1 {
		fn(bits.TrailingZeros64(v))
	}
}

// First returns the smallest destination in the set, or -1 if empty.
func (s DestSet) First() int {
	if s == 0 {
		return -1
	}
	return bits.TrailingZeros64(uint64(s))
}

// String renders the set as "{d0,d1,...}".
func (s DestSet) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, d := range s.Members() {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", d)
	}
	b.WriteByte('}')
	return b.String()
}

// FlitKind distinguishes the three flit classes of a packet.
type FlitKind uint8

const (
	// Header carries the source route and opens the path.
	Header FlitKind = iota
	// Body carries payload.
	Body
	// Tail carries payload and closes/releases the path.
	Tail
)

// String returns the conventional short name of the flit kind.
func (k FlitKind) String() string {
	switch k {
	case Header:
		return "header"
	case Body:
		return "body"
	case Tail:
		return "tail"
	default:
		return fmt.Sprintf("FlitKind(%d)", uint8(k))
	}
}

// Packet is a single injected message. For the serial-multicast baseline a
// logical multicast is expanded into several Packets that share the same
// Parent.
type Packet struct {
	// ID is unique per simulation run.
	ID uint64
	// Src is the injecting source terminal.
	Src int
	// Dests is the destination set (singleton for unicast).
	Dests DestSet
	// Length is the total number of flits (>= 1).
	Length int
	// Route is the packed source-routing address bits for the header,
	// interpreted by internal/routing against the network's placement.
	Route uint64
	// Parent links a serialized unicast clone back to the logical
	// multicast packet it was expanded from (nil otherwise).
	Parent *Packet
	// CreatedAt is the generation timestamp in picoseconds, recorded by
	// the network interface for latency accounting.
	CreatedAt int64
	// Owner is 1 + the terminal whose injection context allocated this
	// packet (0 means "use Src"). On chiplet-composed networks a
	// die-to-die leg is materialized at the ingress die, whose terminal
	// differs from the packet's original Src; every pooling operation
	// must route through the allocating context, so the owner is
	// carried explicitly.
	Owner int32
	// D2DHops is the number of die-to-die mesh hops this packet (or leg)
	// crossed before injection into its fanout tree; 0 on single-die
	// networks and intra-die traffic. It classifies deliveries into the
	// intra-die vs D2D hierarchy levels of the reports.
	D2DHops uint8

	// Refs and TxSlot are per-run pool bookkeeping managed by the owning
	// network (see internal/network and internal/mesh): Refs counts the
	// packet's live flit copies, queued at the source or in the fabric
	// (enqueued minus delivered/absorbed; for a serial-multicast parent,
	// its outstanding clones) so the packet can be recycled the instant
	// the last copy dies, and TxSlot is the source interface's
	// retransmission-slot handle in fault mode.
	Refs   int32
	TxSlot pool.Handle
}

// IsMulticast reports whether the packet addresses more than one destination.
func (p *Packet) IsMulticast() bool { return p.Dests.Count() > 1 }

// Flit is one transfer unit on a channel: 32 bytes, so every fanout
// FIFO slot, fanin buffer, NI ring slot and channel register holds one
// in half a cache line. A flit is a position in its packet; the data
// bundle it carries is derived from that identity (payloadFor), not
// stored, and only a fault run's corruption mask travels with it.
type Flit struct {
	Pkt *Packet
	// Branch is the per-branch destination subset used by
	// destination-encoded routing (the 2D-mesh substrate prunes the
	// header's destination mask at every replication). Zero means the
	// full Pkt.Dests applies (source-routed MoT networks never prune).
	Branch DestSet
	// Flip is the mask of payload bits a transient link fault inverted
	// in flight (zero on a clean copy). The modeled payload is
	// payloadFor(Pkt.ID, Index) ^ Flip and its checksum is sealed over
	// the clean payload at the source, so CheckCRC needs no stored
	// copy of either; routing and handshake fields are conservatively
	// assumed protected.
	Flip uint64
	// Index is the flit position within the packet, 0-based. int32 is
	// ample: Spec.Validate's build-memory guard bounds PacketLen far
	// below 2^31.
	Index int32
	// Attempt is the retransmission attempt that produced this copy
	// (0 = first transmission); fault.Config.Validate bounds the retry
	// budget to fit.
	Attempt int32
}

// crcTable is the Castagnoli polynomial table used for flit checksums.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// payloadFor derives a flit's modeled payload bits from its identity
// (splitmix64 finalizer over packet ID and flit index).
func payloadFor(id uint64, index int) uint64 {
	z := id<<20 ^ uint64(index) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// payloadCRC computes the CRC-32C of a payload word, processing its
// bytes in little-endian order. The table loop is bit-identical to
// crc32.Checksum over the same eight bytes (locked by a test) but keeps
// the word in registers: the library call forces a heap-escaping staging
// buffer, which was one allocation per materialized flit.
func payloadCRC(payload uint64) uint32 {
	crc := ^uint32(0)
	for i := 0; i < 8; i++ {
		crc = crcTable[byte(crc)^byte(payload)] ^ (crc >> 8)
		payload >>= 8
	}
	return ^crc
}

// CheckCRC reports whether the flit's payload still matches the CRC-32C
// checksum the source sealed over it — false after an in-flight
// corruption the checksum detects. A clean copy (Flip == 0) matches
// without computing anything; a corrupted one recomputes both sides, so
// the decision is exactly that of a stored checksum.
func (f Flit) CheckCRC() bool {
	if f.Flip == 0 {
		return true
	}
	payload := payloadFor(f.Pkt.ID, int(f.Index))
	return payloadCRC(payload^f.Flip) == payloadCRC(payload)
}

// BranchDests returns the destination set this flit copy is responsible
// for: the pruned branch subset if set, the packet's full set otherwise.
func (f Flit) BranchDests() DestSet {
	if f.Branch != 0 {
		return f.Branch
	}
	return f.Pkt.Dests
}

// Kind derives the flit class from its position and the packet length.
func (f Flit) Kind() FlitKind {
	switch {
	case f.Index == 0:
		return Header
	case int(f.Index) == f.Pkt.Length-1:
		return Tail
	default:
		return Body
	}
}

// IsHeader reports whether this is the header flit.
func (f Flit) IsHeader() bool { return f.Index == 0 }

// IsTail reports whether this is the last flit. A 1-flit packet's single
// flit is both header and tail.
func (f Flit) IsTail() bool { return int(f.Index) == f.Pkt.Length-1 }

// String renders the flit for traces.
func (f Flit) String() string {
	return fmt.Sprintf("pkt%d[%d/%d:%s]", f.Pkt.ID, f.Index, f.Pkt.Length, f.Kind())
}

// FlitAt materializes the i-th flit of the packet (0-based). It does
// not allocate; a source interface queues packets and materializes each
// flit only as it sends it, instead of building a slice per packet.
func (p *Packet) FlitAt(i int) Flit {
	return Flit{Pkt: p, Index: int32(i)}
}

// Flits materializes all flits of the packet in order (tests and cold
// paths; hot paths use FlitAt).
func (p *Packet) Flits() []Flit {
	out := make([]Flit, p.Length)
	for i := range out {
		out[i] = p.FlitAt(i)
	}
	return out
}
