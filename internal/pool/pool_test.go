package pool

import (
	"math/rand"
	"testing"
)

func TestSlabAllocFreeRecycle(t *testing.T) {
	var s Slab[int]
	h1, v1 := s.Alloc()
	*v1 = 42
	h2, v2 := s.Alloc()
	*v2 = 7
	if s.Live() != 2 {
		t.Fatalf("Live = %d, want 2", s.Live())
	}
	if got := s.Get(h1); got == nil || *got != 42 {
		t.Fatalf("Get(h1) = %v", got)
	}
	if !s.Free(h1) {
		t.Fatal("Free(h1) returned false")
	}
	if s.Get(h1) != nil {
		t.Fatal("Get after Free must return nil")
	}
	if s.Free(h1) {
		t.Fatal("double Free must return false")
	}
	// The freed slot is recycled under a new generation; the stale
	// handle must not reach the new occupant.
	h3, v3 := s.Alloc()
	*v3 = 99
	if h3.Index() != h1.Index() {
		t.Fatalf("expected slot %d recycled, got %d", h1.Index(), h3.Index())
	}
	if s.Get(h1) != nil {
		t.Fatal("stale handle aliases recycled slot")
	}
	if got := s.Get(h3); got == nil || *got != 99 {
		t.Fatalf("Get(h3) = %v", got)
	}
	if got := s.Get(h2); got == nil || *got != 7 {
		t.Fatalf("Get(h2) = %v", got)
	}
}

func TestSlabFreeAt(t *testing.T) {
	var s Slab[int]
	h, v := s.Alloc()
	*v = 5
	s.FreeAt(h.Index())
	if s.Live() != 0 || s.Get(h) != nil {
		t.Fatalf("FreeAt left slot live: Live = %d", s.Live())
	}
	if h2, _ := s.Alloc(); h2.Index() != h.Index() || h2 == h {
		t.Fatalf("FreeAt slot not recycled under a new generation: %v then %v", h, h2)
	}
	s.FreeAt(h.Index())
	defer func() {
		if recover() == nil {
			t.Fatal("FreeAt of a free slot must panic")
		}
	}()
	s.FreeAt(h.Index())
}

func TestSlabZeroHandle(t *testing.T) {
	var s Slab[int]
	var zero Handle
	if zero.Valid() {
		t.Fatal("zero Handle must be invalid")
	}
	if s.Get(zero) != nil {
		t.Fatal("Get(zero) must return nil")
	}
	if s.Free(zero) {
		t.Fatal("Free(zero) must return false")
	}
}

func TestSlabAllocZeroesSlot(t *testing.T) {
	var s Slab[[2]int]
	h, v := s.Alloc()
	v[0], v[1] = 5, 6
	s.Free(h)
	_, v2 := s.Alloc()
	if v2[0] != 0 || v2[1] != 0 {
		t.Fatalf("recycled slot not zeroed: %v", *v2)
	}
}

func TestIDMapBasic(t *testing.T) {
	var m IDMap
	if _, ok := m.Get(1); ok {
		t.Fatal("empty map Get must miss")
	}
	m.Put(1, Handle{idx: 10, gen: 1})
	m.Put(2, Handle{idx: 20, gen: 1})
	if h, ok := m.Get(1); !ok || h.idx != 10 {
		t.Fatalf("Get(1) = %v %v", h, ok)
	}
	m.Put(1, Handle{idx: 11, gen: 2}) // replace
	if h, _ := m.Get(1); h.idx != 11 {
		t.Fatalf("replace failed: %v", h)
	}
	if m.Len() != 2 {
		t.Fatalf("Len = %d, want 2", m.Len())
	}
	if !m.Delete(1) || m.Delete(1) {
		t.Fatal("Delete semantics broken")
	}
	if _, ok := m.Get(1); ok {
		t.Fatal("Get after Delete must miss")
	}
	if h, ok := m.Get(2); !ok || h.idx != 20 {
		t.Fatalf("unrelated key lost: %v %v", h, ok)
	}
}

// TestIDMapVsMap cross-checks against the built-in map under a random
// insert/lookup/delete workload, exercising cluster compaction.
func TestIDMapVsMap(t *testing.T) {
	var m IDMap
	ref := map[uint64]Handle{}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 200000; i++ {
		k := uint64(r.Intn(500) + 1)
		switch r.Intn(3) {
		case 0:
			h := Handle{idx: int32(i), gen: uint32(i + 1)}
			m.Put(k, h)
			ref[k] = h
		case 1:
			got, ok := m.Get(k)
			want, wok := ref[k]
			if ok != wok || got != want {
				t.Fatalf("step %d: Get(%d) = %v %v, want %v %v", i, k, got, ok, want, wok)
			}
		case 2:
			if m.Delete(k) != (func() bool { _, ok := ref[k]; return ok })() {
				t.Fatalf("step %d: Delete(%d) mismatch", i, k)
			}
			delete(ref, k)
		}
		if m.Len() != len(ref) {
			t.Fatalf("step %d: Len = %d, want %d", i, m.Len(), len(ref))
		}
	}
}

func TestIDMapSteadyStateAllocFree(t *testing.T) {
	var m IDMap
	if n := testing.AllocsPerRun(100, func() {
		for k := uint64(1); k <= 32; k++ {
			m.Put(k, Handle{idx: int32(k), gen: 1})
		}
		for k := uint64(1); k <= 32; k++ {
			m.Delete(k)
		}
	}); n != 0 {
		t.Fatalf("steady-state IDMap allocated %v times per run", n)
	}
}

func TestRingFIFOAndWraparound(t *testing.T) {
	var r Ring[int]
	for round := 0; round < 5; round++ {
		for i := 0; i < 13; i++ {
			r.Push(round*100 + i)
		}
		if r.Len() != 13 {
			t.Fatalf("Len = %d", r.Len())
		}
		if got := r.At(3); got != round*100+3 {
			t.Fatalf("At(3) = %d", got)
		}
		for i := 0; i < 13; i++ {
			if got := r.Pop(); got != round*100+i {
				t.Fatalf("Pop = %d, want %d", got, round*100+i)
			}
		}
	}
}

func TestRingSteadyStateAllocFree(t *testing.T) {
	var r Ring[int]
	if n := testing.AllocsPerRun(100, func() {
		for i := 0; i < 48; i++ {
			r.Push(i)
		}
		for i := 0; i < 48; i++ {
			r.Pop()
		}
	}); n != 0 {
		t.Fatalf("steady-state ring allocated %v times per run", n)
	}
}

func TestRingGrowPreservesOrder(t *testing.T) {
	var r Ring[int]
	// Force a wrapped state, then grow.
	for i := 0; i < 8; i++ {
		r.Push(i)
	}
	for i := 0; i < 5; i++ {
		r.Pop()
	}
	for i := 8; i < 30; i++ {
		r.Push(i)
	}
	for want := 5; want < 30; want++ {
		if got := r.Pop(); got != want {
			t.Fatalf("Pop = %d, want %d", got, want)
		}
	}
}
