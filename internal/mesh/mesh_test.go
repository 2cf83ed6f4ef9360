package mesh_test

// Geometry and network-level mesh tests: they build the mesh through
// network.NewMesh, which imports this package, so they live in the
// external test package.

import (
	"strings"
	"testing"

	"asyncnoc/internal/mesh"
	"asyncnoc/internal/network"
	"asyncnoc/internal/packet"
	"asyncnoc/internal/rng"
	"asyncnoc/internal/sim"
)

// newMesh builds spec with a measurement window covering every packet.
func newMesh(t *testing.T, spec mesh.Spec) *network.Network {
	t.Helper()
	nw, err := network.NewMesh(spec)
	if err != nil {
		t.Fatal(err)
	}
	nw.Rec.SetWindow(0, 1<<62)
	return nw
}

func TestSpecValidation(t *testing.T) {
	if err := treeSpec(4, 4).Validate(); err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}
	for _, s := range []mesh.Spec{
		{W: 1, H: 1, PacketLen: 5},
		{W: 9, H: 8, PacketLen: 5}, // 72 tiles > 64
		{W: 4, H: 4, PacketLen: 0},
	} {
		if s.Validate() == nil {
			t.Errorf("invalid spec accepted: %+v", s)
		}
		if _, err := network.NewMesh(s); err == nil {
			t.Errorf("NewMesh built an invalid spec: %+v", s)
		}
	}
}

func TestCoordRoundTrip(t *testing.T) {
	g := treeSpec(4, 3).Grid()
	for d := 0; d < 12; d++ {
		x, y := g.Coord(d)
		if g.Tile(x, y) != d {
			t.Fatalf("coord round trip failed for %d", d)
		}
		if x < 0 || x >= 4 || y < 0 || y >= 3 {
			t.Fatalf("coord(%d) = (%d,%d) out of bounds", d, x, y)
		}
	}
}

func TestRouteOutsPartition(t *testing.T) {
	g := treeSpec(4, 4).Grid()
	// From tile (1,1): dest (3,1) east, (0,1) west, (1,3) north, (1,0)
	// south, (1,1) local.
	dests := packet.Dests(g.Tile(3, 1), g.Tile(0, 1), g.Tile(1, 3), g.Tile(1, 0), g.Tile(1, 1))
	mask, sub := g.RouteOuts(1, 1, dests)
	wantMask := uint8(1<<mesh.North | 1<<mesh.East | 1<<mesh.South | 1<<mesh.West | 1<<mesh.LocalPort)
	if mask != wantMask {
		t.Errorf("mask %05b, want %05b", mask, wantMask)
	}
	if sub[mesh.East] != packet.Dest(g.Tile(3, 1)) || sub[mesh.LocalPort] != packet.Dest(g.Tile(1, 1)) {
		t.Errorf("subsets wrong: %+v", sub)
	}
	// XY rule: X is resolved before Y — a dest at (3,3) goes east, not north.
	mask, sub = g.RouteOuts(1, 1, packet.Dest(g.Tile(3, 3)))
	if mask != 1<<mesh.East {
		t.Errorf("XY violated: mask %05b", mask)
	}
	// Union of subsets is the input set.
	var union packet.DestSet
	for _, s := range sub {
		union |= s
	}
	if union != packet.Dest(g.Tile(3, 3)) {
		t.Errorf("subsets do not partition the destination set")
	}
}

func TestUnicastAllPairs4x4(t *testing.T) {
	for _, spec := range []mesh.Spec{treeSpec(4, 4), serialSpec(4, 4)} {
		nw := newMesh(t, spec)
		total := 0
		for s := 0; s < 16; s++ {
			for d := 0; d < 16; d++ {
				if _, err := nw.Inject(s, packet.Dest(d)); err != nil {
					t.Fatal(err)
				}
				total++
			}
		}
		nw.Sched.Run()
		if nw.Rec.MeasuredCompleted() != total {
			t.Errorf("%s: %d/%d unicasts delivered", spec.Name, nw.Rec.MeasuredCompleted(), total)
		}
	}
}

func TestMulticastDeliveryProperty(t *testing.T) {
	r := rng.New(31)
	for _, spec := range []mesh.Spec{treeSpec(4, 4), serialSpec(4, 4), treeSpec(8, 8), treeSpec(5, 3)} {
		nw := newMesh(t, spec)
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
			if _, err := nw.Inject(r.Intn(tiles), dests); err != nil {
				t.Fatal(err)
			}
			total++
		}
		nw.Sched.Run()
		if nw.Rec.MeasuredCompleted() != total {
			t.Errorf("%s %dx%d: %d/%d multicasts delivered",
				spec.Name, spec.W, spec.H, nw.Rec.MeasuredCompleted(), total)
		}
	}
}

func TestInjectValidation(t *testing.T) {
	nw := newMesh(t, treeSpec(4, 4))
	if _, err := nw.Inject(-1, packet.Dest(0)); err == nil {
		t.Error("negative source accepted")
	}
	if _, err := nw.Inject(16, packet.Dest(0)); err == nil {
		t.Error("out-of-range source accepted")
	}
	if _, err := nw.Inject(0, 0); err == nil {
		t.Error("empty destination set accepted")
	}
	if _, err := nw.Inject(0, packet.Dest(16)); err == nil {
		t.Error("out-of-range destination accepted")
	}
	if n := nw.Rec.MeasuredCreated(); n != 0 {
		t.Errorf("rejected injections registered %d packets", n)
	}
}

func TestSerialExpansionQueue(t *testing.T) {
	nw := newMesh(t, serialSpec(4, 4))
	if _, err := nw.Inject(0, packet.Dests(3, 7, 12)); err != nil {
		t.Fatal(err)
	}
	// 3 clones x 5 flits, minus the first flit already on the wire.
	if q := nw.SourceQueueLen(0); q != 14 {
		t.Errorf("queue %d flits, want 14", q)
	}
	nw.Sched.Run()
	if nw.Rec.MeasuredCompleted() != 1 {
		t.Error("serial multicast incomplete")
	}
}

func TestBroadcastFloodStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	nw := newMesh(t, treeSpec(4, 4))
	total := injectFlood(t, nw)
	nw.Sched.Run()
	if nw.Rec.MeasuredCompleted() != total {
		t.Fatalf("broadcast flood: %d/%d delivered (deadlock?)", nw.Rec.MeasuredCompleted(), total)
	}
}

// injectFlood has every tile of a 4x4 mesh broadcast to all 16 tiles 25
// times at once and returns the broadcast count.
func injectFlood(t *testing.T, nw *network.Network) int {
	t.Helper()
	total := 0
	for round := 0; round < 25; round++ {
		for s := 0; s < 16; s++ {
			if _, err := nw.Inject(s, packet.Range(0, 16)); err != nil {
				t.Fatal(err)
			}
			total++
		}
	}
	return total
}

// TestMeshPacketConservation checks the reference counts of a mesh
// build: once a run has drained, every packet the network's pool handed
// out is back on its freelist exactly once with no reference left. A
// missing replication reference frees a packet while copies still fly
// (the recorder or a later release then fails); a missing release
// leaves packets off the list.
func TestMeshPacketConservation(t *testing.T) {
	pathBased, dpm := treeSpec(4, 4), treeSpec(4, 4)
	pathBased.Strategy, dpm.Strategy = "PathBased", "DPM"
	for _, spec := range []mesh.Spec{treeSpec(4, 4), serialSpec(4, 4), pathBased, dpm} {
		nw := newMesh(t, spec)
		seen := tracePackets(nw)
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
				if _, err := nw.Inject(r.Intn(16), dests); err != nil {
					t.Fatal(err)
				}
				total++
			}
			nw.Sched.RunUntil(nw.Sched.Now() + 2*sim.Nanosecond)
		}
		nw.Sched.Run()
		name := spec.Name + "/" + spec.Strategy
		if nw.Rec.MeasuredCompleted() != total {
			t.Fatalf("%s: %d/%d delivered", name, nw.Rec.MeasuredCompleted(), total)
		}
		checkConserved(t, nw, seen, name)
		if free := len(nw.FreePackets()); free >= len(seen.ids) {
			t.Errorf("%s: %d packets allocated for %d created: nothing recycled", name, free, len(seen.ids))
		}
	}
	nw := newMesh(t, treeSpec(4, 4))
	seen := tracePackets(nw)
	total := injectFlood(t, nw)
	nw.Sched.Run()
	if nw.Rec.MeasuredCompleted() != total {
		t.Fatalf("broadcast flood: %d/%d delivered", nw.Rec.MeasuredCompleted(), total)
	}
	checkConserved(t, nw, seen, "broadcast flood")
}

// packetsSeen collects what a trace shows of the pool: every packet
// pointer (logical packets at injection, physical ones at delivery) and
// every packet ID.
type packetsSeen struct {
	ptrs map[*packet.Packet]bool
	ids  map[uint64]bool
}

// tracePackets records every packet nw's trace shows from now on.
func tracePackets(nw *network.Network) *packetsSeen {
	s := &packetsSeen{ptrs: map[*packet.Packet]bool{}, ids: map[uint64]bool{}}
	nw.Trace = func(ev network.TraceEvent) {
		s.ptrs[ev.Flit.Pkt] = true
		s.ids[ev.Flit.Pkt.ID] = true
	}
	return s
}

// checkConserved requires the network's freelist to hold every packet
// the trace showed, each once with a zero refcount.
func checkConserved(t *testing.T, nw *network.Network, seen *packetsSeen, name string) {
	t.Helper()
	free := nw.FreePackets()
	on := make(map[*packet.Packet]bool, len(free))
	for _, p := range free {
		if on[p] {
			t.Fatalf("%s: packet %d on the freelist twice", name, p.ID)
		}
		on[p] = true
		if p.Refs != 0 {
			t.Errorf("%s: free packet %d holds %d references", name, p.ID, p.Refs)
		}
	}
	for p := range seen.ptrs {
		if !on[p] {
			t.Errorf("%s: a traced packet never returned to the freelist", name)
			break
		}
	}
	if len(free) != len(seen.ptrs) {
		t.Errorf("%s: %d packets on the freelist, the trace showed %d", name, len(free), len(seen.ptrs))
	}
}

func TestWormholeNoInterleaving(t *testing.T) {
	// Two sources target the same destination; the sink must see the
	// packets' flits without interleaving (wormhole locks hold).
	nw := newMesh(t, treeSpec(4, 1))
	var order []uint64
	nw.Trace = func(ev network.TraceEvent) {
		if ev.Kind == network.TraceDeliver && ev.Dest == 3 {
			order = append(order, ev.Flit.Pkt.ID)
		}
	}
	if _, err := nw.Inject(0, packet.Dest(3)); err != nil {
		t.Fatal(err)
	}
	if _, err := nw.Inject(1, packet.Dest(3)); err != nil {
		t.Fatal(err)
	}
	nw.Sched.Run()
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
	g := treeSpec(5, 3).Grid()
	for s := 0; s < 15; s++ {
		for d := 0; d < 15; d++ {
			sx, sy := g.Coord(s)
			dx, dy := g.Coord(d)
			x, y := sx, sy
			hops := 0
			for g.Tile(x, y) != d {
				mask, sub := g.RouteOuts(x, y, packet.Dest(d))
				if mask&(mask-1) != 0 {
					t.Fatalf("unicast fanned out at (%d,%d): mask %05b", x, y, mask)
				}
				switch mask {
				case 1 << mesh.East:
					x++
				case 1 << mesh.West:
					x--
				case 1 << mesh.North:
					y++
				case 1 << mesh.South:
					y--
				default:
					t.Fatalf("stuck at (%d,%d) toward %d", x, y, d)
				}
				if sub[mesh.East]|sub[mesh.West]|sub[mesh.North]|sub[mesh.South]|sub[mesh.LocalPort] != packet.Dest(d) {
					t.Fatal("subset lost the destination")
				}
				hops++
				if hops > 10 {
					t.Fatalf("no progress from %d to %d", s, d)
				}
			}
			if want := abs(dx-sx) + abs(dy-sy); hops != want {
				t.Fatalf("%d->%d took %d hops, want %d", s, d, hops, want)
			}
		}
	}
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// TestMeshStuckFlits snapshots a flooded mesh mid-run: StuckFlits lists
// the held flits at source queues and links, router input slots, FIFOs
// and links, in a deterministic order, and lists nothing once the
// flood has drained.
func TestMeshStuckFlits(t *testing.T) {
	nw := newMesh(t, treeSpec(4, 4))
	injectFlood(t, nw)
	nw.Sched.RunUntil(20 * sim.Nanosecond)
	stuck := nw.StuckFlits()
	queued := 0
	for tile := 0; tile < 16; tile++ {
		queued += nw.SourceQueueLen(tile)
	}
	kinds := map[string]int{}
	for _, s := range stuck {
		var kind string
		switch f := strings.Fields(s.Where); {
		case f[0] == "source" && f[len(f)-1] == "queue":
			kind = "source queue"
		case f[0] == "channel" && f[1] == "source":
			kind = "source link"
		case f[0] == "router" && strings.HasPrefix(f[2], "input."):
			kind = "router input"
		case f[0] == "router" && strings.HasPrefix(f[2], "fifo."):
			kind = "router fifo"
		case f[0] == "channel" && f[1] == "router":
			kind = "router link"
		default:
			t.Fatalf("unexpected location %q", s.Where)
		}
		kinds[kind]++
	}
	if kinds["source queue"] != queued {
		t.Errorf("%d source-queue entries listed, the queues hold %d flits", kinds["source queue"], queued)
	}
	for _, k := range []string{"source link", "router fifo", "router link"} {
		if kinds[k] == 0 {
			t.Errorf("a flooded mesh lists no %s holding a flit: %v", k, kinds)
		}
	}
	if again := nw.StuckFlits(); len(again) != len(stuck) || again[0] != stuck[0] || again[len(again)-1] != stuck[len(stuck)-1] {
		t.Error("two snapshots of one instant differ")
	}
	nw.Sched.Run()
	if rest := nw.StuckFlits(); len(rest) != 0 {
		t.Errorf("a drained mesh still holds %d flits: %v", len(rest), rest[0])
	}
}
