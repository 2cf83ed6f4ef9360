package routing

import (
	"strings"
	"testing"
	"testing/quick"

	"asyncnoc/internal/packet"
	"asyncnoc/internal/rng"
	"asyncnoc/internal/topology"
)

// fabricFor builds the named scheme's fabric on an n x n MoT.
func fabricFor(t *testing.T, n int, sc topology.Scheme, serial bool) Fabric {
	t.Helper()
	m, err := topology.New(n)
	if err != nil {
		t.Fatal(err)
	}
	p, err := topology.ForScheme(m, sc)
	if err != nil {
		t.Fatal(err)
	}
	return Fabric{Placement: p, Serial: serial}
}

// strategyWalk replays a planned packet through the fanout tree using the
// nodes' decode, returning the delivered destination set. It is the
// per-plan oracle of the differential property test.
func strategyWalk(f Fabric, route uint64) packet.DestSet {
	m := f.MoT()
	var delivered packet.DestSet
	var walk func(k int)
	walk = func(k int) {
		sym := DecodeSymbol(f, k, route)
		for _, port := range []topology.Port{topology.Top, topology.Bottom} {
			if !sym.Wants(port) {
				continue
			}
			c := m.Child(k, port)
			if c >= m.N {
				delivered = delivered.Add(c - m.N)
				continue
			}
			walk(c)
		}
	}
	walk(1)
	return delivered
}

// TestStrategyPlanDelivery: over random architectures (serial and not),
// every registered strategy plans a partition of the destination set —
// the plan sets are disjoint, their union is exactly the request — and
// decoding each plan's route delivers exactly that plan's subset.
func TestStrategyPlanDelivery(t *testing.T) {
	prop := func(seed uint64) bool {
		m, p := randomArch(seed)
		r := rng.New(seed ^ 0x9e3779b97f4a7c15)
		f := Fabric{Placement: p, Serial: r.Bool(0.3)}
		dests := randomDests(r, m.N)
		src := r.Intn(m.N)
		for _, s := range Strategies() {
			var union packet.DestSet
			ok := true
			err := s.Plan(f, src, dests, func(pl Plan) {
				if !union.Intersect(pl.Dests).Empty() {
					t.Logf("seed %d %s: plan overlaps earlier plans (%v)", seed, s.Name(), pl.Dests)
					ok = false
				}
				union |= pl.Dests
				if got := strategyWalk(f, pl.Route); got != pl.Dests {
					t.Logf("seed %d %s: plan %v decoded to %v", seed, s.Name(), pl.Dests, got)
					ok = false
				}
				if f.Serial && pl.Dests.Count() != 1 {
					t.Logf("seed %d %s: serial plan %v is not a unicast", seed, s.Name(), pl.Dests)
					ok = false
				}
			})
			if err != nil {
				t.Logf("seed %d %s: plan: %v", seed, s.Name(), err)
				return false
			}
			if union != dests {
				t.Logf("seed %d %s: planned %v, want %v", seed, s.Name(), union, dests)
				return false
			}
			if !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, quickCfg()); err != nil {
		t.Error(err)
	}
}

// TestStrategyValidation: every scheme rejects a bad source, an empty
// set, and out-of-range destinations without emitting anything, on the
// MoT and on a mask-routed fabric (which has no placement: its own
// terminal count bounds both).
func TestStrategyValidation(t *testing.T) {
	for _, fab := range []struct {
		f Fabric
		n int
	}{{fabricFor(t, 8, topology.Hybrid, false), 8}, {snakeGrid(3, 5, false), 15}} {
		cases := []struct {
			name  string
			src   int
			dests packet.DestSet
		}{
			{"source too low", -1, packet.Dest(0)},
			{"source too high", fab.n, packet.Dest(0)},
			{"empty set", 0, 0},
			{"dest out of range", 0, packet.Dest(fab.n)},
		}
		for _, s := range Strategies() {
			for _, c := range cases {
				err := s.Plan(fab.f, c.src, c.dests, func(Plan) {
					t.Errorf("%s/%s/n=%d: emitted a plan despite invalid input", s.Name(), c.name, fab.n)
				})
				if err == nil {
					t.Errorf("%s/%s/n=%d: expected error, got nil", s.Name(), c.name, fab.n)
				}
			}
		}
	}
}

// TestHeaderBitsGolden pins the Section 5.2(d)-style header widths of all
// five schemes on the 8x8 architectures. On the serial baseline fabric
// every scheme reports the 1-bit-per-level unicast path width.
func TestHeaderBitsGolden(t *testing.T) {
	want := map[topology.Scheme]map[string]int{
		topology.NonSpeculative: {
			SerialUnicastName:        14,
			TreeMulticastName:        14,
			SpeculativeMulticastName: 14,
			PathBasedName:            12,
			DPMName:                  24,
		},
		topology.Hybrid: {
			SerialUnicastName:        12,
			TreeMulticastName:        14,
			SpeculativeMulticastName: 12,
			PathBasedName:            12,
			DPMName:                  24,
		},
		topology.AllSpeculative: {
			SerialUnicastName:        8,
			TreeMulticastName:        14,
			SpeculativeMulticastName: 8,
			PathBasedName:            12,
			DPMName:                  24,
		},
	}
	for sc, widths := range want {
		f := fabricFor(t, 8, sc, false)
		for _, s := range Strategies() {
			if got := s.HeaderBits(f); got != widths[s.Name()] {
				t.Errorf("%v/%s: HeaderBits = %d, want %d", sc, s.Name(), got, widths[s.Name()])
			}
		}
	}
	serial := fabricFor(t, 8, topology.NonSpeculative, true)
	for _, s := range Strategies() {
		if got := s.HeaderBits(serial); got != 3 {
			t.Errorf("serial/%s: HeaderBits = %d, want 3", s.Name(), got)
		}
	}
}

// TestPathSplit: destinations at or after the source's path position go
// up, the rest down, under both the MoT's identity order and a mask
// fabric's own one.
func TestPathSplit(t *testing.T) {
	mot := fabricFor(t, 8, topology.Hybrid, false)
	up, down := pathSplit(mot, 3, packet.Dests(0, 1, 3, 5))
	if up != packet.Dests(3, 5) || down != packet.Dests(0, 1) {
		t.Errorf("identity split: up=%v down=%v, want up={3,5} down={0,1}", up, down)
	}
	// Reversed order flips the partitions (position 7-d, source 3 at pos 4).
	rev := Fabric{Mask: testMask{n: 8, pos: func(d int) int { return 7 - d }}}
	up, down = pathSplit(rev, 3, packet.Dests(0, 1, 3, 5))
	if up != packet.Dests(0, 1, 3) || down != packet.Dest(5) {
		t.Errorf("reversed split: up=%v down=%v, want up={0,1,3} down={5}", up, down)
	}
	up, down = pathSplit(mot, 0, packet.Dests(0, 7))
	if up != packet.Dests(0, 7) || !down.Empty() {
		t.Errorf("all-up split: up=%v down=%v", up, down)
	}
}

// TestMergeAdjacent: strictly subadditive costs merge everything, additive
// costs merge nothing, and an exact tie does not merge.
func TestMergeAdjacent(t *testing.T) {
	parts := func() []packet.DestSet {
		return []packet.DestSet{packet.Dest(0), packet.Dest(1), packet.Dest(2)}
	}
	constant := func(packet.DestSet) int { return 5 } // merged 5 < 10 separate
	if got := mergeAdjacent(parts(), constant); len(got) != 1 || got[0] != packet.Dests(0, 1, 2) {
		t.Errorf("subadditive: got %v, want one merged partition", got)
	}
	additive := func(s packet.DestSet) int { return s.Count() } // merged == separate
	if got := mergeAdjacent(parts(), additive); len(got) != 3 {
		t.Errorf("additive (tie): got %d partitions, want 3 (ties must not merge)", len(got))
	}
	// Only the first pair is cheaper together.
	pairOnly := func(s packet.DestSet) int {
		if s == packet.Dests(0, 1) {
			return 1
		}
		return s.Count() * 2
	}
	if got := mergeAdjacent(parts(), pairOnly); len(got) != 2 || got[0] != packet.Dests(0, 1) {
		t.Errorf("partial: got %v, want [{0,1} {2}]", got)
	}
}

// TestLinkCost pins hand-computed fanout-link counts on the 8x8 fabrics.
func TestLinkCost(t *testing.T) {
	serial := fabricFor(t, 8, topology.NonSpeculative, true)
	if got := LinkCost(serial, packet.Dests(0, 3, 7)); got != 3*3 {
		t.Errorf("serial: LinkCost = %d, want 9 (3 unicasts x 3 levels)", got)
	}
	nonspec := fabricFor(t, 8, topology.NonSpeculative, false)
	if got := LinkCost(nonspec, packet.Dest(0)); got != 3 {
		t.Errorf("non-spec singleton: LinkCost = %d, want 3", got)
	}
	// Hybrid: level 1 speculates, so a singleton wastes one broadcast
	// link (root 1 + broadcast 2 + leaf-level 1).
	hybrid := fabricFor(t, 8, topology.Hybrid, false)
	if got := LinkCost(hybrid, packet.Dest(0)); got != 4 {
		t.Errorf("hybrid singleton: LinkCost = %d, want 4", got)
	}
	// All-speculative: levels 0-1 broadcast (6 links), the addressable
	// leaf level forwards one copy and throttles the other three.
	allspec := fabricFor(t, 8, topology.AllSpeculative, false)
	if got := LinkCost(allspec, packet.Dest(0)); got != 7 {
		t.Errorf("all-spec singleton: LinkCost = %d, want 7", got)
	}
	// Broadcast saturates the tree: 2 links per internal node.
	if got := LinkCost(nonspec, packet.Range(0, 8)); got != 14 {
		t.Errorf("broadcast: LinkCost = %d, want 14", got)
	}
}

// countPlans runs a strategy and returns the emitted plan subsets.
func countPlans(t *testing.T, f Fabric, s Strategy, src int, dests packet.DestSet) []packet.DestSet {
	t.Helper()
	var out []packet.DestSet
	if err := s.Plan(f, src, dests, func(p Plan) { out = append(out, p.Dests) }); err != nil {
		t.Fatalf("%s: %v", s.Name(), err)
	}
	return out
}

// TestDPMPartitioning: DPM merges exactly when sharing tree links wins.
func TestDPMPartitioning(t *testing.T) {
	s, err := StrategyByName(DPMName)
	if err != nil {
		t.Fatal(err)
	}
	// Hybrid, sibling destinations: {0} and {1} cost 4 each, {0,1} costs
	// 5, so they merge into one packet.
	hybrid := fabricFor(t, 8, topology.Hybrid, false)
	if got := countPlans(t, hybrid, s, 0, packet.Dests(0, 1)); len(got) != 1 {
		t.Errorf("hybrid {0,1}: %d plans, want 1 (merge saves links)", len(got))
	}
	// Non-speculative, opposite halves: {0} and {4} cost 3 each, {0,4}
	// costs 6 — a tie, which must not merge.
	nonspec := fabricFor(t, 8, topology.NonSpeculative, false)
	if got := countPlans(t, nonspec, s, 0, packet.Dests(0, 4)); len(got) != 2 {
		t.Errorf("non-spec {0,4}: %d plans, want 2 (tie must not merge)", len(got))
	}
	// Serial: costs are additive, so DPM degenerates to serial unicast.
	serial := fabricFor(t, 8, topology.NonSpeculative, true)
	if got := countPlans(t, serial, s, 0, packet.Dests(1, 4, 6)); len(got) != 3 {
		t.Errorf("serial: %d plans, want 3 (additive costs never merge)", len(got))
	}
	// All-speculative: broadcasts dominate, so everything merges.
	allspec := fabricFor(t, 8, topology.AllSpeculative, false)
	if got := countPlans(t, allspec, s, 0, packet.Dests(0, 4, 7)); len(got) != 1 {
		t.Errorf("all-spec: %d plans, want 1 (shared broadcasts always win)", len(got))
	}
}

// TestPathBasedPlans: the dual-path split yields an up chain (ascending)
// then a down chain (descending), unicast-expanded on the serial fabric.
func TestPathBasedPlans(t *testing.T) {
	s, err := StrategyByName(PathBasedName)
	if err != nil {
		t.Fatal(err)
	}
	hybrid := fabricFor(t, 8, topology.Hybrid, false)
	got := countPlans(t, hybrid, s, 3, packet.Dests(0, 1, 3, 5))
	if len(got) != 2 || got[0] != packet.Dests(3, 5) || got[1] != packet.Dests(0, 1) {
		t.Errorf("hybrid: plans %v, want [{3,5} {0,1}]", got)
	}
	serial := fabricFor(t, 8, topology.NonSpeculative, true)
	got = countPlans(t, serial, s, 3, packet.Dests(0, 1, 3, 5))
	want := []packet.DestSet{packet.Dest(3), packet.Dest(5), packet.Dest(1), packet.Dest(0)}
	if len(got) != len(want) {
		t.Fatalf("serial: %d plans, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("serial plan %d: %v, want %v (up ascending, down descending)", i, got[i], want[i])
		}
	}
}

// TestSerialUnicastOrder: expansion is ascending regardless of fabric.
func TestSerialUnicastOrder(t *testing.T) {
	s, err := StrategyByName(SerialUnicastName)
	if err != nil {
		t.Fatal(err)
	}
	for _, serial := range []bool{true, false} {
		f := fabricFor(t, 8, topology.Hybrid, serial)
		got := countPlans(t, f, s, 0, packet.Dests(6, 2, 5))
		want := []packet.DestSet{packet.Dest(2), packet.Dest(5), packet.Dest(6)}
		if len(got) != 3 {
			t.Fatalf("serial=%v: %d plans, want 3", serial, len(got))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("serial=%v plan %d: %v, want %v", serial, i, got[i], want[i])
			}
		}
	}
}

// TestTreeSchemesSinglePlan: both tree schemes emit one packet covering
// the whole set on multicast fabrics.
func TestTreeSchemesSinglePlan(t *testing.T) {
	f := fabricFor(t, 8, topology.Hybrid, false)
	for _, name := range []string{TreeMulticastName, SpeculativeMulticastName} {
		s, err := StrategyByName(name)
		if err != nil {
			t.Fatal(err)
		}
		got := countPlans(t, f, s, 0, packet.Dests(0, 3, 6))
		if len(got) != 1 || got[0] != packet.Dests(0, 3, 6) {
			t.Errorf("%s: plans %v, want one covering {0,3,6}", name, got)
		}
	}
}

// TestStrategyRegistry: names, lookup, lookup failure, and defaults.
func TestStrategyRegistry(t *testing.T) {
	names := StrategyNames()
	want := []string{SerialUnicastName, TreeMulticastName, SpeculativeMulticastName, PathBasedName, DPMName}
	if len(names) != len(want) {
		t.Fatalf("StrategyNames = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Errorf("StrategyNames[%d] = %q, want %q", i, names[i], want[i])
		}
	}
	for _, n := range want {
		s, err := StrategyByName(n)
		if err != nil || s.Name() != n {
			t.Errorf("StrategyByName(%q) = %v, %v", n, s, err)
		}
	}
	if _, err := StrategyByName("Bogus"); err == nil || !strings.Contains(err.Error(), "unknown strategy") {
		t.Errorf("StrategyByName(Bogus) error = %v, want unknown-strategy error", err)
	}
	for _, c := range []struct {
		name   string
		serial bool
		want   string
	}{
		{"", true, SerialUnicastName},
		{"", false, SpeculativeMulticastName},
		{DPMName, true, DPMName},
		{TreeMulticastName, false, TreeMulticastName},
	} {
		if s, err := StrategyFor(c.name, c.serial); err != nil || s.Name() != c.want {
			t.Errorf("StrategyFor(%q, %v) = %v, %v; want %s", c.name, c.serial, s, err, c.want)
		}
	}
	if _, err := StrategyFor("Bogus", false); err == nil || !strings.Contains(err.Error(), "unknown strategy") {
		t.Errorf("StrategyFor(Bogus) error = %v, want unknown-strategy error", err)
	}
}

// TestDecodeSymbolSerial: on the serial fabric the shared decode reads
// the baseline path bit of the node's level.
func TestDecodeSymbolSerial(t *testing.T) {
	f := fabricFor(t, 8, topology.NonSpeculative, true)
	m := f.MoT()
	route, err := EncodeBaseline(m, 5)
	if err != nil {
		t.Fatal(err)
	}
	k := 1
	for lvl := 0; lvl < m.Levels; lvl++ {
		sym := DecodeSymbol(f, k, route)
		if sym != SymTop && sym != SymBottom {
			t.Fatalf("level %d: serial decode %v, want a single port", lvl, sym)
		}
		port := topology.Bottom
		if sym == SymTop {
			port = topology.Top
		}
		k = m.Child(k, port)
	}
	if k-m.N != 5 {
		t.Errorf("serial decode walked to %d, want 5", k-m.N)
	}
}
