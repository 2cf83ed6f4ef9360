package chiplet

import (
	"strings"
	"testing"

	"asyncnoc/internal/packet"
	"asyncnoc/internal/rng"
	"asyncnoc/internal/sim"
)

func TestGeometry(t *testing.T) {
	p := Default(3, 2)
	if p.Dies() != 6 {
		t.Fatalf("Dies() = %d, want 6", p.Dies())
	}
	for die := 0; die < p.Dies(); die++ {
		x, y := p.DieCoord(die)
		if p.DieAt(x, y) != die {
			t.Errorf("DieAt(DieCoord(%d)) = %d", die, p.DieAt(x, y))
		}
	}
	// XY Manhattan distance: die 0 = (0,0), die 5 = (2,1).
	if got := p.Hops(0, 5); got != 3 {
		t.Errorf("Hops(0,5) = %d, want 3", got)
	}
	if got := p.Hops(5, 0); got != 3 {
		t.Errorf("Hops(5,0) = %d, want 3", got)
	}
	if got := p.Hops(2, 2); got != 0 {
		t.Errorf("Hops(2,2) = %d, want 0", got)
	}
	if got := p.Tag(4); got != "3x2of4" {
		t.Errorf("Tag(4) = %q, want 3x2of4", got)
	}
}

func TestLinkModel(t *testing.T) {
	serial := Default(2, 2)
	if serial.BeatsPerFlit() != DefaultSerialFactor {
		t.Errorf("serial BeatsPerFlit = %d, want %d", serial.BeatsPerFlit(), DefaultSerialFactor)
	}
	if got, want := serial.FlitSerPs(), sim.Time(DefaultSerialFactor)*DefaultBeatPs; got != want {
		t.Errorf("serial FlitSerPs = %v, want %v", got, want)
	}
	if got, want := serial.FlitHopPJ(), 4*DefaultBeatPJPerHop; got != want {
		t.Errorf("serial FlitHopPJ = %v, want %v", got, want)
	}
	par := Parallel(2, 2)
	if par.BeatsPerFlit() != 1 || par.FlitSerPs() != DefaultBeatPs || par.FlitHopPJ() != DefaultBeatPJPerHop {
		t.Errorf("parallel link: beats=%d ser=%v pj=%v, want 1/%v/%v",
			par.BeatsPerFlit(), par.FlitSerPs(), par.FlitHopPJ(), DefaultBeatPs, DefaultBeatPJPerHop)
	}
}

func TestValidate(t *testing.T) {
	if err := Default(2, 2).Validate(4); err != nil {
		t.Fatalf("default 2x2: %v", err)
	}
	cases := []struct {
		name string
		p    *Params
		dieN int
		frag string
	}{
		{"1x1", Default(1, 1), 4, "at least 2"},
		{"zero width", Default(0, 2), 4, "outside"},
		{"too wide", Default(MaxMeshDim+1, 2), 4, "outside"},
		{"bad serial factor", &Params{MeshW: 2, MeshH: 2, Serial: true, SerialFactor: 0, BeatPs: 1, HopPs: 1}, 4, "serial factor"},
		{"bad beat", &Params{MeshW: 2, MeshH: 2, BeatPs: 0, HopPs: 1}, 4, "beat time"},
		{"bad hop", &Params{MeshW: 2, MeshH: 2, BeatPs: 1, HopPs: 0}, 4, "hop latency"},
		{"negative energy", &Params{MeshW: 2, MeshH: 2, BeatPs: 1, HopPs: 1, BeatPJPerHop: -1}, 4, "negative"},
		{"tiny die", Default(2, 2), 1, "die radix"},
	}
	for _, c := range cases {
		err := c.p.Validate(c.dieN)
		if err == nil {
			t.Errorf("%s: accepted", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.frag) {
			t.Errorf("%s: error %q missing %q", c.name, err, c.frag)
		}
	}
}

func TestWideBenchmarks(t *testing.T) {
	p := Default(2, 2)
	const dieN = 4
	for _, name := range []string{"UniformRandom", "Multicast5", "Multicast10"} {
		b, err := ByName(p, dieN, name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if b.Name() != name {
			t.Errorf("ByName(%q).Name() = %q", name, b.Name())
		}
		// Determinism: identical seeds draw identical destination sets.
		r1, r2 := rng.New(7), rng.New(7)
		a, c := make([]packet.DestSet, p.Dies()), make([]packet.DestSet, p.Dies())
		for i := 0; i < 200; i++ {
			b.NextWideDests(i%16, a, r1)
			b.NextWideDests(i%16, c, r2)
			total := 0
			for die := range a {
				if a[die] != c[die] {
					t.Fatalf("%s draw %d: die %d mask %v vs %v", name, i, die, a[die], c[die])
				}
				if hi := a[die] &^ (1<<dieN - 1); hi != 0 {
					t.Fatalf("%s draw %d: die %d mask %v exceeds radix %d", name, i, die, a[die], dieN)
				}
				total += a[die].Count()
			}
			if total == 0 {
				t.Fatalf("%s draw %d: empty destination set", name, i)
			}
		}
	}
	if _, err := ByName(p, dieN, "Shuffle"); err == nil {
		t.Error("ByName accepted an unknown benchmark")
	}

	// Flat NextDests must refuse to address a composition.
	defer func() {
		if recover() == nil {
			t.Error("flat NextDests did not panic")
		}
	}()
	b, _ := ByName(p, dieN, "UniformRandom")
	b.(UniformRandom).NextDests(0, rng.New(1))
}

// TestMulticastRegionBounds: the multicast region spans at most
// MaxMulticastDies dies and always totals >= 2 destinations when the
// multicast branch fires; the overall draw mix contains both unicast
// and multicast at Frac = 0.10.
func TestMulticastRegionBounds(t *testing.T) {
	p := Default(4, 4)
	const dieN = 8
	b := Multicast{P: p, DieN: dieN, Frac: 0.10}
	r := rng.New(2016)
	byDie := make([]packet.DestSet, p.Dies())
	multi, uni := 0, 0
	for i := 0; i < 2000; i++ {
		b.NextWideDests(i%dieN, byDie, r)
		touched, total := 0, 0
		for _, m := range byDie {
			if !m.Empty() {
				touched++
				total += m.Count()
			}
		}
		if touched > MaxMulticastDies {
			t.Fatalf("draw %d: region spans %d dies > %d", i, touched, MaxMulticastDies)
		}
		if total == 1 {
			uni++
		} else if total >= 2 {
			multi++
		} else {
			t.Fatalf("draw %d: empty destination set", i)
		}
	}
	if multi == 0 || uni == 0 {
		t.Errorf("mix degenerate: %d multicast, %d unicast draws", multi, uni)
	}
	if frac := float64(multi) / 2000; frac < 0.05 || frac > 0.20 {
		t.Errorf("multicast fraction %.3f far from 0.10", frac)
	}
}

// TestWideMulticastDrawInPlace: the multicast draw takes its die order
// from a permutation built in the caller's byDie scratch, so it
// allocates nothing, and it draws exactly what the draw over a fresh
// permutation slice drew, with the generator left in the same state.
func TestWideMulticastDrawInPlace(t *testing.T) {
	p := Default(4, 4)
	const dieN = 8
	b := Multicast{P: p, DieN: dieN, Frac: 0.5}
	reference := func(byDie []packet.DestSet, r *rng.Source) {
		clear(byDie)
		if !r.Bool(b.Frac) {
			d := r.Intn(p.Dies() * dieN)
			byDie[d/dieN] = packet.Dest(d % dieN)
			return
		}
		for {
			k := 1 + r.Intn(MaxMulticastDies)
			// The historical rng.Perm(n): a fresh inside-out shuffle.
			order := make([]int, p.Dies())
			for i := range order {
				j := r.Intn(i + 1)
				order[i] = order[j]
				order[j] = i
			}
			clear(byDie)
			total := 0
			for _, die := range order[:k] {
				s := localSubset(dieN, r)
				byDie[die] = s
				total += s.Count()
			}
			if total >= 2 {
				return
			}
		}
	}
	r1, r2 := rng.New(2016), rng.New(2016)
	got, want := make([]packet.DestSet, p.Dies()), make([]packet.DestSet, p.Dies())
	for i := 0; i < 2000; i++ {
		b.NextWideDests(i%dieN, got, r1)
		reference(want, r2)
		for die := range got {
			if got[die] != want[die] {
				t.Fatalf("draw %d: die %d mask %v, reference %v", i, die, got[die], want[die])
			}
		}
	}
	if r1.Uint64() != r2.Uint64() {
		t.Fatal("generator state diverged from the reference draw")
	}
	if n := testing.AllocsPerRun(200, func() { b.NextWideDests(0, got, r1) }); n != 0 {
		t.Fatalf("NextWideDests allocated %v times per draw", n)
	}
}
