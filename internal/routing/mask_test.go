package routing

import (
	"testing"
	"testing/quick"

	"asyncnoc/internal/packet"
	"asyncnoc/internal/rng"
)

// testMask is a MaskRouted fabric built from plain functions.
type testMask struct {
	n    int
	pos  func(d int) int
	cost func(src int, s packet.DestSet) int
}

func (m testMask) Terminals() int                         { return m.n }
func (m testMask) PathPos(d int) int                      { return m.pos(d) }
func (m testMask) LinkCost(src int, s packet.DestSet) int { return m.cost(src, s) }

// snakeGrid is a w x h mesh-like mask fabric: tile d sits at (d%w, d/w),
// the Hamiltonian path is the boustrophedon (snake) order, and a plan's
// link cost counts the distinct XY hops from src plus one local delivery
// link per destination — the union of the XY paths on the tree fabric,
// their sum (unicasts share nothing) on the serial one.
func snakeGrid(w, h int, serial bool) Fabric {
	pos := func(d int) int {
		x, y := d%w, d/w
		if y%2 == 1 {
			x = w - 1 - x
		}
		return y*w + x
	}
	cost := func(src int, s packet.DestSet) int {
		type hop struct{ x, y, dx, dy int }
		links := map[hop]bool{}
		total := 0
		s.ForEach(func(d int) {
			x, y := src%w, src/w
			tx, ty := d%w, d/w
			for x != tx || y != ty {
				h := hop{x: x, y: y}
				switch {
				case tx > x:
					h.dx = 1
				case tx < x:
					h.dx = -1
				case ty > y:
					h.dy = 1
				default:
					h.dy = -1
				}
				if serial || !links[h] {
					total++
				}
				links[h] = true
				x, y = x+h.dx, y+h.dy
			}
			total++ // the local delivery link
		})
		return total
	}
	return Fabric{Serial: serial, Mask: testMask{n: w * h, pos: pos, cost: cost}}
}

// plansOf runs the named scheme and returns its plans.
func plansOf(t *testing.T, f Fabric, name string, src int, dests packet.DestSet) []packet.DestSet {
	t.Helper()
	s, err := StrategyByName(name)
	if err != nil {
		t.Fatal(err)
	}
	var out []packet.DestSet
	err = s.Plan(f, src, dests, func(p Plan) {
		if p.Route != 0 {
			t.Errorf("%s: mask-fabric plan %v carries route word %#x", name, p.Dests, p.Route)
		}
		out = append(out, p.Dests)
	})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return out
}

func sameSets(a, b []packet.DestSet) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestMaskFabricPlans pins every scheme's plan on a 4x4 snake grid. The
// snake order puts row 1 backwards (tile 7 at position 4, tile 4 at
// position 7), which is where path order and index order part.
func TestMaskFabricPlans(t *testing.T) {
	d := packet.Dest
	tree, serial := snakeGrid(4, 4, false), snakeGrid(4, 4, true)
	cases := []struct {
		name  string
		f     Fabric
		strat string
		src   int
		dests packet.DestSet
		want  []packet.DestSet
	}{
		// Tree schemes: one mask-routed packet, or snake-ordered unicasts.
		{"tree one packet", tree, TreeMulticastName, 0, packet.Dests(4, 7, 8), []packet.DestSet{packet.Dests(4, 7, 8)}},
		{"speculative one packet", tree, SpeculativeMulticastName, 0, packet.Dests(4, 7, 8), []packet.DestSet{packet.Dests(4, 7, 8)}},
		{"serial tree snake order", serial, TreeMulticastName, 0, packet.Dests(4, 7, 8), []packet.DestSet{d(7), d(4), d(8)}},
		// SerialUnicast keeps ascending index order on every fabric.
		{"serial unicast index order", serial, SerialUnicastName, 0, packet.Dests(4, 7, 8), []packet.DestSet{d(4), d(7), d(8)}},
		{"tree fabric unicasts", tree, SerialUnicastName, 0, packet.Dests(4, 7, 8), []packet.DestSet{d(4), d(7), d(8)}},
		// Path-based: src 5 sits at position 6; up by ascending position,
		// down by descending position.
		{"path-based split", tree, PathBasedName, 5, packet.Dests(0, 4, 7, 8, 12), []packet.DestSet{packet.Dests(4, 8, 12), packet.Dests(0, 7)}},
		{"serial path-based", serial, PathBasedName, 5, packet.Dests(0, 4, 7, 8, 12), []packet.DestSet{d(4), d(8), d(12), d(7), d(0)}},
		// DPM: {1} costs 2 and {2} costs 3 from tile 0, together 4, so
		// they merge; {3} and {12} cost 4 each and 8 together, a tie.
		{"dpm merges shared hops", tree, DPMName, 0, packet.Dests(1, 2), []packet.DestSet{packet.Dests(1, 2)}},
		{"dpm tie stays split", tree, DPMName, 0, packet.Dests(3, 12), []packet.DestSet{d(3), d(12)}},
		// Serial costs are additive: no merge, parts in snake order.
		{"serial dpm snake order", serial, DPMName, 0, packet.Dests(4, 7), []packet.DestSet{d(7), d(4)}},
	}
	for _, c := range cases {
		if got := plansOf(t, c.f, c.strat, c.src, c.dests); !sameSets(got, c.want) {
			t.Errorf("%s: plans %v, want %v", c.name, got, c.want)
		}
	}
}

// TestMaskFabricPartitionProperty: on random grids every scheme's plans
// partition the request, serial plans are unicasts, and every serial
// delivery chain walks the snake order monotonically.
func TestMaskFabricPartitionProperty(t *testing.T) {
	prop := func(seed uint64) bool {
		r := rng.New(seed)
		w, h := 2+r.Intn(7), 1+r.Intn(8)
		f := snakeGrid(w, h, r.Bool(0.5))
		dests := randomDests(r, w*h)
		src := r.Intn(w * h)
		for _, s := range Strategies() {
			var union packet.DestSet
			var got []packet.DestSet
			ok := true
			err := s.Plan(f, src, dests, func(p Plan) {
				if !union.Intersect(p.Dests).Empty() || (f.Serial && p.Dests.Count() != 1) {
					t.Logf("seed %d %s: bad plan %v", seed, s.Name(), p.Dests)
					ok = false
				}
				union |= p.Dests
				got = append(got, p.Dests)
			})
			if err != nil || union != dests || !ok {
				t.Logf("seed %d %s: planned %v (%v), want %v", seed, s.Name(), union, err, dests)
				return false
			}
			if f.Serial && s.Name() == TreeMulticastName {
				for i := 1; i < len(got); i++ {
					if f.pathPos(got[i].First()) < f.pathPos(got[i-1].First()) {
						t.Logf("seed %d: serial tree plans %v leave snake order", seed, got)
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, quickCfg()); err != nil {
		t.Error(err)
	}
}
