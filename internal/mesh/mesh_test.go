package mesh

import (
	"testing"

	"asyncnoc/internal/node"
	"asyncnoc/internal/packet"
	"asyncnoc/internal/rng"
	"asyncnoc/internal/sim"
)

func treeSpec(w, h int) Spec {
	return Spec{Name: "MeshTree", W: w, H: h, PacketLen: 5}
}

func serialSpec(w, h int) Spec {
	return Spec{Name: "MeshSerial", W: w, H: h, PacketLen: 5, Serial: true}
}

func TestSpecValidation(t *testing.T) {
	if err := treeSpec(4, 4).Validate(); err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}
	for _, s := range []Spec{
		{W: 1, H: 1, PacketLen: 5},
		{W: 9, H: 8, PacketLen: 5}, // 72 tiles > 64
		{W: 4, H: 4, PacketLen: 0},
	} {
		if s.Validate() == nil {
			t.Errorf("invalid spec accepted: %+v", s)
		}
	}
}

func TestCoordRoundTrip(t *testing.T) {
	m, err := New(treeSpec(4, 3))
	if err != nil {
		t.Fatal(err)
	}
	for d := 0; d < 12; d++ {
		x, y := m.Coord(d)
		if m.Tile(x, y) != d {
			t.Fatalf("coord round trip failed for %d", d)
		}
		if x < 0 || x >= 4 || y < 0 || y >= 3 {
			t.Fatalf("coord(%d) = (%d,%d) out of bounds", d, x, y)
		}
	}
}

func TestRouteOutsPartition(t *testing.T) {
	m, err := New(treeSpec(4, 4))
	if err != nil {
		t.Fatal(err)
	}
	// From tile (1,1): dest (3,1) east, (0,1) west, (1,3) north, (1,0)
	// south, (1,1) local.
	dests := packet.Dests(m.Tile(3, 1), m.Tile(0, 1), m.Tile(1, 3), m.Tile(1, 0), m.Tile(1, 1))
	mask, sub := m.routeOuts(1, 1, dests)
	wantMask := uint8(1<<North | 1<<East | 1<<South | 1<<West | 1<<LocalPort)
	if mask != wantMask {
		t.Errorf("mask %05b, want %05b", mask, wantMask)
	}
	if sub[East] != packet.Dest(m.Tile(3, 1)) || sub[LocalPort] != packet.Dest(m.Tile(1, 1)) {
		t.Errorf("subsets wrong: %+v", sub)
	}
	// XY rule: X is resolved before Y — a dest at (3,3) goes east, not north.
	mask, sub = m.routeOuts(1, 1, packet.Dest(m.Tile(3, 3)))
	if mask != 1<<East {
		t.Errorf("XY violated: mask %05b", mask)
	}
	// Union of subsets is the input set.
	var union packet.DestSet
	for _, s := range sub {
		union |= s
	}
	if union != packet.Dest(m.Tile(3, 3)) {
		t.Errorf("subsets do not partition the destination set")
	}
}

func TestUnicastAllPairs4x4(t *testing.T) {
	for _, spec := range []Spec{treeSpec(4, 4), serialSpec(4, 4)} {
		m, err := New(spec)
		if err != nil {
			t.Fatal(err)
		}
		m.Rec.SetWindow(0, 1<<62)
		total := 0
		for s := 0; s < 16; s++ {
			for d := 0; d < 16; d++ {
				if _, err := m.Inject(s, packet.Dest(d)); err != nil {
					t.Fatal(err)
				}
				total++
			}
		}
		m.Sched.Run()
		if m.Rec.MeasuredCompleted() != total {
			t.Errorf("%s: %d/%d unicasts delivered", spec.Name, m.Rec.MeasuredCompleted(), total)
		}
	}
}

func TestMulticastDeliveryProperty(t *testing.T) {
	r := rng.New(31)
	for _, spec := range []Spec{treeSpec(4, 4), serialSpec(4, 4), treeSpec(8, 8), treeSpec(5, 3)} {
		m, err := New(spec)
		if err != nil {
			t.Fatal(err)
		}
		m.Rec.SetWindow(0, 1<<62)
		tiles := spec.Tiles()
		total := 0
		for trial := 0; trial < 100; trial++ {
			var dests packet.DestSet
			for dests.Empty() {
				for d := 0; d < tiles; d++ {
					if r.Bool(0.25) {
						dests = dests.Add(d)
					}
				}
			}
			if _, err := m.Inject(r.Intn(tiles), dests); err != nil {
				t.Fatal(err)
			}
			total++
		}
		m.Sched.Run()
		if m.Rec.MeasuredCompleted() != total {
			t.Errorf("%s %dx%d: %d/%d multicasts delivered",
				spec.Name, spec.W, spec.H, m.Rec.MeasuredCompleted(), total)
		}
	}
}

func TestInjectValidation(t *testing.T) {
	m, err := New(treeSpec(4, 4))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Inject(-1, packet.Dest(0)); err == nil {
		t.Error("negative source accepted")
	}
	if _, err := m.Inject(16, packet.Dest(0)); err == nil {
		t.Error("out-of-range source accepted")
	}
	if _, err := m.Inject(0, 0); err == nil {
		t.Error("empty destination set accepted")
	}
	if _, err := m.Inject(0, packet.Dest(16)); err == nil {
		t.Error("out-of-range destination accepted")
	}
}

func TestSerialExpansionQueue(t *testing.T) {
	m, err := New(serialSpec(4, 4))
	if err != nil {
		t.Fatal(err)
	}
	m.Rec.SetWindow(0, 1<<62)
	if _, err := m.Inject(0, packet.Dests(3, 7, 12)); err != nil {
		t.Fatal(err)
	}
	// 3 clones x 5 flits, minus the first flit already on the wire.
	if q := m.SourceQueueLen(0); q != 14 {
		t.Errorf("queue %d flits, want 14", q)
	}
	m.Sched.Run()
	if m.Rec.MeasuredCompleted() != 1 {
		t.Error("serial multicast incomplete")
	}
}

func TestBroadcastFloodStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	m, err := New(treeSpec(4, 4))
	if err != nil {
		t.Fatal(err)
	}
	broadcastFlood(t, m)
}

// broadcastFlood has every tile of a 4x4 mesh broadcast to all 16 tiles
// 25 times at once and requires every broadcast delivered.
func broadcastFlood(t *testing.T, m *Mesh) {
	t.Helper()
	m.Rec.SetWindow(0, 1<<62)
	total := 0
	for round := 0; round < 25; round++ {
		for s := 0; s < 16; s++ {
			if _, err := m.Inject(s, packet.Range(0, 16)); err != nil {
				t.Fatal(err)
			}
			total++
		}
	}
	m.Sched.Run()
	if m.Rec.MeasuredCompleted() != total {
		t.Fatalf("broadcast flood: %d/%d delivered (deadlock?)", m.Rec.MeasuredCompleted(), total)
	}
}

// TestMeshPacketConservation checks the mesh's reference counts: once a
// run has drained, every packet the mesh allocated is back on its
// freelist exactly once with no reference left. A missing replication
// reference frees a packet while copies still fly (release panics at
// the first negative count); a missing release leaves packets off the
// list.
func TestMeshPacketConservation(t *testing.T) {
	pathBased, dpm := treeSpec(4, 4), treeSpec(4, 4)
	pathBased.Strategy, dpm.Strategy = "PathBased", "DPM"
	for _, spec := range []Spec{treeSpec(4, 4), serialSpec(4, 4), pathBased, dpm} {
		m, err := New(spec)
		if err != nil {
			t.Fatal(err)
		}
		m.Rec.SetWindow(0, 1<<62)
		r := rng.New(7)
		total := 0
		for burst := 0; burst < 200; burst++ {
			for i := 0; i < 4; i++ {
				dests := packet.Dest(r.Intn(16))
				if r.Bool(0.3) {
					for dests.Count() < 2 {
						dests |= packet.DestSet(r.Uint64()) & packet.Range(0, 16)
					}
				}
				if _, err := m.Inject(r.Intn(16), dests); err != nil {
					t.Fatal(err)
				}
				total++
			}
			m.Sched.RunUntil(m.Sched.Now() + 2*sim.Nanosecond)
		}
		m.Sched.Run()
		if m.Rec.MeasuredCompleted() != total {
			t.Fatalf("%s/%s: %d/%d delivered", spec.Name, spec.Strategy, m.Rec.MeasuredCompleted(), total)
		}
		checkConserved(t, m, spec.Name+"/"+spec.Strategy)
		if m.allocated >= int(m.nextID) {
			t.Errorf("%s/%s: %d packets allocated for %d created: nothing recycled",
				spec.Name, spec.Strategy, m.allocated, m.nextID)
		}
	}
	m, err := New(treeSpec(4, 4))
	if err != nil {
		t.Fatal(err)
	}
	broadcastFlood(t, m)
	checkConserved(t, m, "broadcast flood")
}

// checkConserved requires every packet m allocated to sit on its
// freelist once, with a zero refcount.
func checkConserved(t *testing.T, m *Mesh, name string) {
	t.Helper()
	if len(m.pktFree) != m.allocated {
		t.Errorf("%s: %d of %d allocated packets on the freelist", name, len(m.pktFree), m.allocated)
	}
	seen := make(map[*packet.Packet]bool, len(m.pktFree))
	for _, p := range m.pktFree {
		if seen[p] {
			t.Fatalf("%s: packet %d on the freelist twice", name, p.ID)
		}
		seen[p] = true
		if p.Refs != 0 {
			t.Errorf("%s: free packet %d holds %d references", name, p.ID, p.Refs)
		}
	}
}

func TestWormholeNoInterleaving(t *testing.T) {
	// Two sources target the same destination; the sink must see the
	// packets' flits without interleaving (wormhole locks hold).
	m, err := New(treeSpec(4, 1))
	if err != nil {
		t.Fatal(err)
	}
	m.Rec.SetWindow(0, 1<<62)
	// Instrument the sink by checking recorder completion plus flit
	// ordering through a custom channel observer on the sink link.
	var order []uint64
	snk := m.sinks[3]
	snk.in.Hooks = traverseTap{snk.in.Hooks, func(f packet.Flit) { order = append(order, f.Pkt.ID) }}
	if _, err := m.Inject(0, packet.Dest(3)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Inject(1, packet.Dest(3)); err != nil {
		t.Fatal(err)
	}
	m.Sched.Run()
	if len(order) != 10 {
		t.Fatalf("sink saw %d flits, want 10", len(order))
	}
	for i := 1; i < 5; i++ {
		if order[i] != order[0] {
			t.Fatalf("interleaved flits at sink: %v", order)
		}
	}
	for i := 6; i < 10; i++ {
		if order[i] != order[5] {
			t.Fatalf("interleaved flits at sink: %v", order)
		}
	}
}

func TestXYPathUniquenessProperty(t *testing.T) {
	// XY dimension order: from any router, a destination maps to exactly
	// one output port, and walking the ports reaches it in
	// |dx|+|dy| hops.
	m, err := New(treeSpec(5, 3))
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 15; s++ {
		for d := 0; d < 15; d++ {
			x, y := m.Coord(s)
			dx, dy := m.Coord(d)
			hops := 0
			for m.Tile(x, y) != d {
				mask, sub := m.routeOuts(x, y, packet.Dest(d))
				if mask&(mask-1) != 0 {
					t.Fatalf("unicast fanned out at (%d,%d): mask %05b", x, y, mask)
				}
				switch mask {
				case 1 << East:
					x++
				case 1 << West:
					x--
				case 1 << North:
					y++
				case 1 << South:
					y--
				default:
					t.Fatalf("stuck at (%d,%d) toward %d", x, y, d)
				}
				if sub[East]|sub[West]|sub[North]|sub[South]|sub[LocalPort] != packet.Dest(d) {
					t.Fatal("subset lost the destination")
				}
				hops++
				if hops > 10 {
					t.Fatalf("no progress from %d to %d", s, d)
				}
			}
			want := abs(dx-m.xOf(s)) + abs(dy-m.yOf(s))
			if hops != want {
				t.Fatalf("%d->%d took %d hops, want %d", s, d, hops, want)
			}
		}
	}
}

func (m *Mesh) xOf(t int) int { x, _ := m.Coord(t); return x }
func (m *Mesh) yOf(t int) int { _, y := m.Coord(t); return y }

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// traverseTap chains fn after a channel's own traversal hook.
type traverseTap struct {
	node.ChannelHooks
	fn func(packet.Flit)
}

func (t traverseTap) ChannelTraversed(f packet.Flit) {
	t.ChannelHooks.ChannelTraversed(f)
	t.fn(f)
}
