package topology

import (
	"testing"
	"testing/quick"

	"asyncnoc/internal/packet"
)

func TestNewValidation(t *testing.T) {
	for _, n := range []int{0, 1, 3, 5, 6, 7, 65, 96, -8, 2 * maxRadix} {
		if _, err := New(n); err == nil {
			t.Errorf("New(%d) accepted invalid size", n)
		}
	}
	for _, n := range []int{2, 4, 8, 16, 32, 64, 128, maxRadix} {
		m, err := New(n)
		if err != nil {
			t.Fatalf("New(%d): %v", n, err)
		}
		if 1<<uint(m.Levels) != n {
			t.Errorf("New(%d).Levels = %d", n, m.Levels)
		}
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustNew(3) did not panic")
		}
	}()
	MustNew(3)
}

func TestCounts8x8(t *testing.T) {
	m := MustNew(8)
	if m.NodesPerTree() != 7 {
		t.Errorf("NodesPerTree = %d, want 7", m.NodesPerTree())
	}
	if m.TotalFanoutNodes() != 56 || m.TotalFaninNodes() != 56 {
		t.Errorf("totals = %d/%d, want 56/56", m.TotalFanoutNodes(), m.TotalFaninNodes())
	}
	if m.HopCount() != 6 {
		t.Errorf("HopCount = %d, want 6", m.HopCount())
	}
}

func TestLevels(t *testing.T) {
	m := MustNew(8)
	wantLvl := map[int]int{1: 0, 2: 1, 3: 1, 4: 2, 5: 2, 6: 2, 7: 2}
	for k, want := range wantLvl {
		if got := m.LevelOf(k); got != want {
			t.Errorf("LevelOf(%d) = %d, want %d", k, got, want)
		}
	}
	if m.NodesAtLevel(0) != 1 || m.NodesAtLevel(1) != 2 || m.NodesAtLevel(2) != 4 {
		t.Error("NodesAtLevel wrong")
	}
	if m.FirstAtLevel(2) != 4 {
		t.Errorf("FirstAtLevel(2) = %d", m.FirstAtLevel(2))
	}
	if !m.IsLeafLevel(7) || m.IsLeafLevel(3) {
		t.Error("IsLeafLevel wrong")
	}
}

func TestLevelOfPanics(t *testing.T) {
	m := MustNew(8)
	for _, k := range []int{0, 8, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("LevelOf(%d) did not panic", k)
				}
			}()
			m.LevelOf(k)
		}()
	}
}

func TestChildParentRoundTrip(t *testing.T) {
	m := MustNew(16)
	for k := 1; k < m.N; k++ {
		for _, p := range []Port{Top, Bottom} {
			c := m.Child(k, p)
			gotParent, gotVia := m.Parent(c)
			if gotParent != k || gotVia != p {
				t.Fatalf("Parent(Child(%d,%v)) = (%d,%v)", k, p, gotParent, gotVia)
			}
		}
	}
}

func TestSubtreeDests8x8(t *testing.T) {
	m := MustNew(8)
	cases := []struct {
		k      int
		lo, hi int
	}{
		{1, 0, 8},
		{2, 0, 4},
		{3, 4, 8},
		{4, 0, 2},
		{7, 6, 8},
		{8, 0, 1},  // leaf slot for dest 0
		{15, 7, 8}, // leaf slot for dest 7
	}
	for _, c := range cases {
		if got := m.SubtreeDests(c.k); got != packet.Range(c.lo, c.hi) {
			t.Errorf("SubtreeDests(%d) = %v, want [%d,%d)", c.k, got, c.lo, c.hi)
		}
	}
}

func TestSubtreePartition(t *testing.T) {
	// Children partition the parent's destination range, for all sizes.
	for _, n := range []int{2, 4, 8, 16, 64} {
		m := MustNew(n)
		for k := 1; k < n; k++ {
			top := m.SubtreeDests(m.Child(k, Top))
			bot := m.SubtreeDests(m.Child(k, Bottom))
			if top.Intersect(bot) != 0 {
				t.Fatalf("n=%d node %d children overlap", n, k)
			}
			if top|bot != m.SubtreeDests(k) {
				t.Fatalf("n=%d node %d children do not cover parent", n, k)
			}
		}
	}
}

func TestPathTo(t *testing.T) {
	m := MustNew(8)
	// Destination 5 = 0b101: root -> bottom(3) -> top(6) -> bottom(13).
	path := m.PathTo(5)
	want := []int{1, 3, 6}
	if len(path) != 3 {
		t.Fatalf("PathTo(5) = %v", path)
	}
	for i := range want {
		if path[i] != want[i] {
			t.Fatalf("PathTo(5) = %v, want %v", path, want)
		}
	}
}

func TestPathToConsistent(t *testing.T) {
	for _, n := range []int{4, 8, 16, 32} {
		m := MustNew(n)
		for d := 0; d < n; d++ {
			path := m.PathTo(d)
			if len(path) != m.Levels {
				t.Fatalf("n=%d PathTo(%d) length %d", n, d, len(path))
			}
			if path[0] != 1 {
				t.Fatalf("path does not start at root: %v", path)
			}
			for i, k := range path {
				if m.LevelOf(k) != i {
					t.Fatalf("n=%d d=%d path node %d at level %d, want %d", n, d, k, m.LevelOf(k), i)
				}
				if !m.SubtreeDests(k).Has(d) {
					t.Fatalf("n=%d d=%d path node %d does not cover dest", n, d, k)
				}
				if i > 0 {
					want := m.Child(path[i-1], m.PortToward(path[i-1], d))
					if k != want {
						t.Fatalf("n=%d d=%d path discontinuity at %d", n, d, i)
					}
				}
			}
			// Last hop reaches the leaf slot.
			leafNode, via := m.LeafFor(d)
			if path[m.Levels-1] != leafNode {
				t.Fatalf("n=%d d=%d path end %d, want leaf parent %d", n, d, path[m.Levels-1], leafNode)
			}
			if m.Child(leafNode, via) != n+d {
				t.Fatalf("n=%d d=%d LeafFor port wrong", n, d)
			}
		}
	}
}

func TestPortTowardPanicsOffSubtree(t *testing.T) {
	m := MustNew(8)
	defer func() {
		if recover() == nil {
			t.Error("PortToward(2, 7) did not panic (dest 7 not under node 2)")
		}
	}()
	m.PortToward(2, 7)
}

func TestPortString(t *testing.T) {
	if Top.String() != "top" || Bottom.String() != "bottom" {
		t.Error("port names wrong")
	}
}

func TestMoTString(t *testing.T) {
	want := "8x8 variant MoT (3 levels, 56 fanout + 56 fanin nodes)"
	if got := MustNew(8).String(); got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

// Property: for random n and dest, every node on PathTo(d) is an ancestor
// of leaf slot n+d in heap arithmetic.
func TestPathAncestorProperty(t *testing.T) {
	f := func(sizeSel, destSel uint8) bool {
		sizes := []int{2, 4, 8, 16, 32, 64}
		n := sizes[int(sizeSel)%len(sizes)]
		m := MustNew(n)
		d := int(destSel) % n
		leaf := n + d
		for _, k := range m.PathTo(d) {
			anc := leaf
			isAnc := false
			for anc > 0 {
				if anc == k {
					isAnc = true
					break
				}
				anc /= 2
			}
			if !isAnc {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
