package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("%d/100 identical draws from different seeds", same)
	}
}

func TestZeroSeedUsable(t *testing.T) {
	r := New(0)
	seen := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		seen[r.Uint64()] = true
	}
	if len(seen) < 100 {
		t.Errorf("zero seed produced only %d distinct values in 100 draws", len(seen))
	}
}

func TestIntnRange(t *testing.T) {
	r := New(3)
	for _, n := range []int{1, 2, 7, 8, 64, 1000} {
		for i := 0; i < 500; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnUniform(t *testing.T) {
	r := New(11)
	const n, draws = 8, 80000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Intn(n)]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 0.05*want {
			t.Errorf("Intn(%d): bucket %d has %d draws, want ~%.0f", n, i, c, want)
		}
	}
}

func TestIntnPanics(t *testing.T) {
	r := New(1)
	for _, n := range []int{0, -5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Intn(%d) did not panic", n)
				}
			}()
			r.Intn(n)
		}()
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(5)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", f)
		}
	}
}

func TestExpMean(t *testing.T) {
	r := New(9)
	const mean, draws = 250.0, 200000
	sum := 0.0
	for i := 0; i < draws; i++ {
		v := r.Exp(mean)
		if v < 0 {
			t.Fatalf("Exp returned negative %v", v)
		}
		sum += v
	}
	got := sum / draws
	if math.Abs(got-mean) > 0.02*mean {
		t.Errorf("Exp empirical mean %.2f, want ~%.2f", got, mean)
	}
}

func TestExpPanics(t *testing.T) {
	r := New(1)
	defer func() {
		if recover() == nil {
			t.Error("Exp(0) did not panic")
		}
	}()
	r.Exp(0)
}

func TestBool(t *testing.T) {
	r := New(13)
	if r.Bool(0) {
		t.Error("Bool(0) returned true")
	}
	if !r.Bool(1) {
		t.Error("Bool(1) returned false")
	}
	const p, draws = 0.05, 100000
	hits := 0
	for i := 0; i < draws; i++ {
		if r.Bool(p) {
			hits++
		}
	}
	got := float64(hits) / draws
	if math.Abs(got-p) > 0.005 {
		t.Errorf("Bool(%.2f) hit rate %.4f", p, got)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(21)
	for _, n := range []int{0, 1, 2, 8, 63} {
		p := make([]int, n)
		Perm(r, p)
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) = %v not a permutation", n, p)
			}
			seen[v] = true
		}
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	child := parent.Split()
	// The child stream must not replay the parent stream.
	p2 := New(7)
	p2.Uint64() // advance past the draw Split consumed
	for i := 0; i < 100; i++ {
		if child.Uint64() == p2.Uint64() {
			t.Fatal("child replays parent stream")
		}
	}
}

// Property: Intn(n) stays in range for arbitrary seeds and bounds.
func TestIntnRangeProperty(t *testing.T) {
	f := func(seed uint64, nRaw uint16) bool {
		n := int(nRaw)%1000 + 1
		r := New(seed)
		for i := 0; i < 50; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkExp(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Exp(100)
	}
}
