// Package pool provides the per-run memory primitives behind the
// simulator's near-zero-allocation data plane: an index-keyed slot slab
// with a free list and generation-counted handles (the same pattern the
// event kernel in internal/sim uses for its slots), an open-addressing
// uint64 index that replaces map churn on ID-keyed lookups, and a
// growable ring buffer for FIFO queues that reuse their backing arrays.
//
// All three types grow to the high-water mark of their run and are then
// reused without further allocation; Reset empties one and keeps its
// storage for a later run. They are strictly single-goroutine
// structures, like everything else inside one simulation run; worker
// pools parallelize across runs, each of which owns its own pools.
package pool

// Handle identifies one live slab slot: an index plus a generation
// counter. The zero Handle never matches a live slot, and a handle goes
// stale the instant its slot is freed (generations advance on every
// release), so Get on a dead handle safely returns nil instead of
// aliasing a recycled slot.
type Handle struct {
	idx int32
	gen uint32
}

// Valid reports whether h could refer to a slot (it is not the zero
// Handle). A valid handle may still be stale; Get is the authority.
func (h Handle) Valid() bool { return h.gen != 0 }

// Index returns the slot index of the handle, usable with Slab.At by
// callers that guarantee liveness out of band (e.g. a timer that is
// always canceled before its slot is freed).
func (h Handle) Index() int32 { return h.idx }

// slabSlot wraps one value with its liveness bookkeeping.
type slabSlot[T any] struct {
	v T
	// gen advances on every release so stale Handles cannot reach a
	// recycled slot. It is never zero (the zero Handle is invalid).
	gen  uint32
	live bool
}

// Slab is an index-keyed slot pool: Alloc hands out a zeroed slot and a
// generation-counted Handle, Free recycles it through a free list. The
// zero value is ready to use. Pointers returned by Alloc/Get/At are
// invalidated by the next Alloc (the backing array may move); callers
// must not hold them across allocations.
type Slab[T any] struct {
	slots []slabSlot[T]
	free  []int32
	live  int
}

// Alloc returns a handle to a zeroed slot and a pointer to its value.
// The pointer is valid only until the next Alloc.
func (s *Slab[T]) Alloc() (Handle, *T) {
	var idx int32
	if n := len(s.free); n > 0 {
		idx = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		s.slots = append(s.slots, slabSlot[T]{gen: 1})
		idx = int32(len(s.slots) - 1)
	}
	sl := &s.slots[idx]
	var zero T
	sl.v = zero
	sl.live = true
	s.live++
	return Handle{idx: idx, gen: sl.gen}, &sl.v
}

// Get returns the slot value for a live handle, or nil when the handle
// is stale (freed, recycled under a newer generation) or zero.
func (s *Slab[T]) Get(h Handle) *T {
	if h.gen == 0 || int(h.idx) >= len(s.slots) {
		return nil
	}
	sl := &s.slots[h.idx]
	if !sl.live || sl.gen != h.gen {
		return nil
	}
	return &sl.v
}

// At returns the value at a raw slot index without a generation check.
// The caller must guarantee the slot is live — the one legitimate use is
// an event payload whose schedule is always canceled before the slot is
// freed, exactly like the kernel's cancel-before-release invariant.
func (s *Slab[T]) At(idx int32) *T { return &s.slots[idx].v }

// Free releases a slot back to the free list, advancing its generation
// so outstanding handles go stale. Freeing a stale or zero handle is a
// safe no-op and returns false.
func (s *Slab[T]) Free(h Handle) bool {
	if h.gen == 0 || int(h.idx) >= len(s.slots) {
		return false
	}
	sl := &s.slots[h.idx]
	if !sl.live || sl.gen != h.gen {
		return false
	}
	var zero T
	sl.v = zero // drop pointers held by the value; slots outlive entries
	sl.live = false
	sl.gen++
	if sl.gen == 0 {
		sl.gen = 1 // skip the invalid generation on wraparound
	}
	s.free = append(s.free, h.idx)
	s.live--
	return true
}

// FreeAt releases the slot at a raw index, the counterpart of At: an
// event whose payload is a slot index frees it when it runs. It panics
// when the slot is not live.
func (s *Slab[T]) FreeAt(idx int32) {
	if !s.Free(Handle{idx: idx, gen: s.slots[idx].gen}) {
		panic("pool: FreeAt of a free slot")
	}
}

// Live returns the number of currently allocated slots.
func (s *Slab[T]) Live() int { return s.live }

// Reset frees every slot at once and returns the slab to the state of
// its zero value, keeping the capacity of its storage: the next Alloc
// hands out slot 0 at generation 1, as on a new slab.
func (s *Slab[T]) Reset() {
	clear(s.slots)
	*s = Slab[T]{slots: s.slots[:0], free: s.free[:0]}
}

// Each calls fn on every live slot's value, in slot order.
func (s *Slab[T]) Each(fn func(*T)) {
	for i := range s.slots {
		if s.slots[i].live {
			fn(&s.slots[i].v)
		}
	}
}

// IDMap is an open-addressing hash index from non-zero uint64 keys
// (packet IDs) to Handles. Unlike a Go map it performs no per-entry
// allocation and reaches a steady state after growing to its high-water
// load: insert/delete cycles then allocate nothing. Deletion uses
// backward-shift compaction, so there are no tombstones and lookups stay
// short. The zero value is ready to use.
type IDMap struct {
	keys []uint64 // 0 = empty
	vals []Handle
	n    int
}

// minIDMapSize keeps the first growth from thrashing tiny tables.
const minIDMapSize = 16

// Len returns the number of stored entries.
func (m *IDMap) Len() int { return m.n }

// Reset removes every entry, keeping the table's size.
func (m *IDMap) Reset() {
	clear(m.keys)
	clear(m.vals)
	m.n = 0
}

// Get returns the handle stored under key and whether it exists.
func (m *IDMap) Get(key uint64) (Handle, bool) {
	if m.n == 0 {
		return Handle{}, false
	}
	mask := uint64(len(m.keys) - 1)
	for i := key & mask; ; i = (i + 1) & mask {
		switch m.keys[i] {
		case key:
			return m.vals[i], true
		case 0:
			return Handle{}, false
		}
	}
}

// Put stores key → h, replacing any previous entry. The key must be
// non-zero (packet IDs start at 1).
func (m *IDMap) Put(key uint64, h Handle) {
	if key == 0 {
		panic("pool: IDMap key 0 is reserved for empty slots")
	}
	if len(m.keys) == 0 || (m.n+1)*4 > len(m.keys)*3 {
		size := len(m.keys) * 2
		if size < minIDMapSize {
			size = minIDMapSize
		}
		m.rehash(size)
	}
	mask := uint64(len(m.keys) - 1)
	for i := key & mask; ; i = (i + 1) & mask {
		switch m.keys[i] {
		case key:
			m.vals[i] = h
			return
		case 0:
			m.keys[i] = key
			m.vals[i] = h
			m.n++
			return
		}
	}
}

// Delete removes key and reports whether it was present.
func (m *IDMap) Delete(key uint64) bool {
	if m.n == 0 {
		return false
	}
	mask := uint64(len(m.keys) - 1)
	i := key & mask
	for m.keys[i] != key {
		if m.keys[i] == 0 {
			return false
		}
		i = (i + 1) & mask
	}
	// Backward-shift: pull subsequent cluster entries left until a hole
	// or an entry already sitting at its home slot bounds the cluster.
	for {
		m.keys[i] = 0
		j := i
		for {
			j = (j + 1) & mask
			if m.keys[j] == 0 {
				m.n--
				return true
			}
			home := m.keys[j] & mask
			// The entry at j may shift into the hole at i only if its
			// home position does not lie strictly between i (exclusive)
			// and j (inclusive) in probe order.
			if (i <= j && (home <= i || home > j)) || (i > j && home <= i && home > j) {
				break
			}
		}
		m.keys[i] = m.keys[j]
		m.vals[i] = m.vals[j]
		i = j
	}
}

// rehash rebuilds the table at the given power-of-two size.
func (m *IDMap) rehash(size int) {
	oldKeys, oldVals := m.keys, m.vals
	m.keys = make([]uint64, size)
	m.vals = make([]Handle, size)
	mask := uint64(size - 1)
	for oi, k := range oldKeys {
		if k == 0 {
			continue
		}
		i := k & mask
		for m.keys[i] != 0 {
			i = (i + 1) & mask
		}
		m.keys[i] = k
		m.vals[i] = oldVals[oi]
	}
}

// Ring is a growable FIFO ring buffer. Pops reuse the backing array
// instead of re-slicing it away, so a queue that drains and refills —
// the NI injection queue's steady state — allocates only while growing
// to its high-water occupancy. The zero value is ready to use.
type Ring[T any] struct {
	buf  []T
	head int
	n    int
}

// Len returns the number of queued elements.
func (r *Ring[T]) Len() int { return r.n }

// Reset empties the ring, keeping its backing array.
func (r *Ring[T]) Reset() {
	clear(r.buf)
	r.head, r.n = 0, 0
}

// Push appends v at the tail, growing the backing array if full.
func (r *Ring[T]) Push(v T) {
	if r.n == len(r.buf) {
		r.grow(r.n + 1)
	}
	r.buf[(r.head+r.n)%len(r.buf)] = v
	r.n++
}

// Pop removes and returns the head element; it panics on an empty ring.
func (r *Ring[T]) Pop() T {
	if r.n == 0 {
		panic("pool: Pop on empty ring")
	}
	v := r.buf[r.head]
	var zero T
	r.buf[r.head] = zero // drop pointers held by the vacated slot
	r.head = (r.head + 1) % len(r.buf)
	r.n--
	return v
}

// At returns the i-th queued element (0 = head) without removing it.
func (r *Ring[T]) At(i int) T {
	if i < 0 || i >= r.n {
		panic("pool: Ring index out of range")
	}
	return r.buf[(r.head+i)%len(r.buf)]
}

// grow reallocates the backing array to hold at least need elements,
// unrolling the ring to index 0.
func (r *Ring[T]) grow(need int) {
	size := len(r.buf) * 2
	if size < minRingSize {
		size = minRingSize
	}
	for size < need {
		size *= 2
	}
	buf := make([]T, size)
	for i := 0; i < r.n; i++ {
		buf[i] = r.buf[(r.head+i)%len(r.buf)]
	}
	r.buf = buf
	r.head = 0
}

const minRingSize = 8
