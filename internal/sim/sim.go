// Package sim provides a deterministic discrete-event simulation kernel
// with picosecond time resolution.
//
// The kernel is a zero-allocation event scheduler: pending events are
// value-typed records in a flat slab, with a free-list recycling slab
// slots. An event is a (Handler, int64 payload) pair — the component
// being simulated is its own handler and the payload selects the action —
// so steady-state scheduling and dispatch perform no heap allocations and
// create no garbage. Sequence numbers make the execution order of
// simultaneous events deterministic (FIFO among equal timestamps), which
// in turn makes every experiment in this repository reproducible
// bit-for-bit.
//
// Pending events are ordered by a timing wheel (a calendar queue, Brown,
// CACM 1988) with one bucket per picosecond over the next wheelSize
// picoseconds, backed by a 4-ary min-heap for events further out. The
// split follows the measured profile of a handshake model: on the serial
// paper-window MoT runs 99.5% of At calls land less than 512 ps past Now
// (45% exactly 50 ps), about 22 events are pending, and a heap-only
// queue spent about half the CPU time in siftDown's comparison branches.
// In the wheel, scheduling is a bucket append and finding the next event
// is a bitmap scan. Injector gaps, retransmission timers and Never
// wait in the far heap and migrate into the wheel as the clock comes
// within one span of them.
//
// The wheel invariant: every wheel event satisfies now <= at <
// now+wheelSize, so each bucket holds events of exactly one timestamp and
// its FIFO order is (at, seq) order. Serial At appends (sequence numbers
// only grow), and every clock advance migrates the far events that fall
// inside the new span into their buckets, in heap order, before any At
// can reach those buckets.
//
// Three fast paths rest on the invariant, none of which changes the
// dispatch order. A serial In within the span skips the general At and
// goes straight to a bucket append (wheelPush, which At's serial wheel
// branch shares). The far heap's earliest timestamp is cached, so a
// clock advance with nothing to migrate is one comparison. And the run
// loop derives the head event's time from its bucket index, without
// loading the slot, before it checks the time against the deadline.
//
// LastAt exposes one more consequence of the FIFO buckets: an event that
// is its bucket's tail is followed, at its timestamp, by whatever is
// scheduled there next, and by nothing else, ever. A component can then
// run a follow-up action at the end of that event's handler instead of
// scheduling it as an event of its own, and report it with Fused so that
// Executed still counts it; the fanin node does so with its
// handshake-cycle retry (internal/node).
//
// Asynchronous NoC models are built on top of this kernel by scheduling
// request/acknowledge toggle events between handshake components: each
// channel and node implements Handler once and schedules itself with
// At/In, paying only a slab write and a bucket append per toggle.
//
// The closure-based Schedule/After entry points remain for cold paths
// (tests, per-packet timers, replay harnesses); they allocate one adapter
// per call and dispatch through the same queue.
package sim

import (
	"fmt"
	"math"
	"math/bits"
)

// Time is a simulation timestamp in picoseconds.
type Time int64

// Common time units.
const (
	Picosecond  Time = 1
	Nanosecond  Time = 1000
	Microsecond Time = 1000 * 1000
)

// Never is a sentinel timestamp larger than any reachable simulation time.
const Never Time = 1<<63 - 1

// Nanoseconds returns t expressed in (fractional) nanoseconds.
func (t Time) Nanoseconds() float64 { return float64(t) / float64(Nanosecond) }

// AddSat returns a+b saturated at Never: if either operand is Never, or
// the sum of two non-negative operands overflows, the result is Never.
// Deadline arithmetic (watchdog chunking, retransmission backoff) uses it
// so that "no deadline" composes safely with any finite offset.
func AddSat(a, b Time) Time {
	if a == Never || b == Never {
		return Never
	}
	c := a + b
	if b > 0 && c < a || a > 0 && c < b {
		return Never
	}
	return c
}

// String formats the time with an adaptive unit. Negative durations keep
// the adaptive unit of their magnitude (e.g. "-2.500ns", not "-2500ps").
func (t Time) String() string {
	switch {
	case t == Never:
		return "never"
	case t == math.MinInt64:
		// -t overflows; format through float64 directly.
		return fmt.Sprintf("%.3fus", float64(t)/float64(Microsecond))
	case t < 0:
		return "-" + (-t).magnitude()
	default:
		return t.magnitude()
	}
}

// magnitude formats a non-negative time with an adaptive unit.
func (t Time) magnitude() string {
	switch {
	case t >= Microsecond:
		return fmt.Sprintf("%.3fus", float64(t)/float64(Microsecond))
	case t >= Nanosecond:
		return fmt.Sprintf("%.3fns", float64(t)/float64(Nanosecond))
	default:
		return fmt.Sprintf("%dps", int64(t))
	}
}

// Handler dispatches scheduled events. A simulated component implements
// Handler once; the int64 payload passed back at dispatch selects the
// action (and encodes a small operand such as a port index), replacing
// the captured closure of the previous kernel so that scheduling does not
// allocate.
type Handler interface {
	OnEvent(arg int64)
}

// EventID is a cancellation handle for a pending event: a slab index plus
// a generation counter. The zero EventID never matches a live event, and
// an ID goes stale the instant its event fires or is canceled (slot
// generations advance on every release), so Cancel on a dead handle is a
// safe no-op.
type EventID struct {
	slot int32
	gen  uint32
}

// Pending reports whether id still refers to a queued event in s.
func (s *Scheduler) Pending(id EventID) bool {
	return id.gen != 0 && int(id.slot) < len(s.slots) &&
		s.slots[id.slot].gen == id.gen && s.slots[id.slot].heapIdx != slotFree
}

// Slot states stored in slot.heapIdx besides far-heap positions (>= 0).
const (
	slotFree  int32 = -1 // on the free list
	slotWheel int32 = -2 // queued in a wheel bucket
)

// slot is one slab entry: an event record plus its queue links.
type slot struct {
	at  Time
	seq uint64
	h   Handler
	arg int64
	// heapIdx is the event's position in the far heap, slotWheel while
	// it waits in a wheel bucket, and slotFree when the slot is free.
	heapIdx int32
	// next links a wheel event to its successor in the bucket FIFO; it
	// is meaningless at the bucket's tail and outside the wheel.
	next int32
	// gen advances on every release so stale EventIDs cannot cancel a
	// recycled slot. It is never zero (the zero EventID is invalid).
	gen uint32
}

const (
	// wheelSize is the wheel span in picoseconds, one bucket each. It
	// covers the gate, wire and handshake delays that make up almost
	// every event; anything further ahead waits in the far heap.
	wheelSize  = 1024
	wheelMask  = wheelSize - 1
	wheelWords = wheelSize / 64
)

// bucket is one wheel bucket: a FIFO of slots linked through slot.next.
// head and tail are meaningful only while the bucket's occupancy bit is
// set, so the zero value is an empty wheel.
type bucket struct{ head, tail int32 }

// Scheduler is a single-threaded discrete-event scheduler.
// The zero value is not usable; construct with NewScheduler.
type Scheduler struct {
	now Time
	// slots is the event slab and free lists recycled slots. Both grow
	// to the high-water mark of concurrently pending events and are then
	// reused forever: steady-state scheduling allocates nothing.
	slots []slot
	free  []int32

	// wheel holds the events less than wheelSize ahead of now, in bucket
	// at&wheelMask; occ has one bit set per non-empty bucket, and
	// wheelLen counts the wheel's events.
	wheel    [wheelSize]bucket
	occ      [wheelWords]uint64
	wheelLen int
	// heap holds the far events (at >= now+wheelSize when queued) as
	// slot indices in an implicit 4-ary min-heap by (at, seq); farAt
	// caches its root's timestamp, Never when it is empty, so a clock
	// advance with nothing to migrate costs one comparison.
	heap  []int32
	farAt Time

	nextSeq uint64
	// executed counts events dispatched since construction.
	executed uint64
	// stopped is set by Stop and cleared by the run loops on entry.
	stopped bool
	// shard is the sharded-execution context, non-nil only on schedulers
	// owned by a ShardGroup (see shard.go). Serial schedulers never touch
	// it beyond one nil check per At/step.
	shard *shardState
}

// NewScheduler returns an empty scheduler at time zero.
func NewScheduler() *Scheduler {
	return &Scheduler{farAt: Never}
}

// Reset drops every pending event and returns a serial scheduler to the
// state NewScheduler returns: time zero, sequence numbers and the
// executed count from zero, slots allocated from index 0 at generation
// 1. The slab, its free list and the far heap keep their capacity, so a
// run on a reset scheduler allocates nothing until it outgrows the one
// before.
func (s *Scheduler) Reset() {
	if s.shard != nil {
		panic("sim: Reset of a shard scheduler")
	}
	clear(s.slots) // drop handler references
	*s = Scheduler{slots: s.slots[:0], free: s.free[:0], heap: s.heap[:0], farAt: Never}
}

// Now returns the current simulation time.
func (s *Scheduler) Now() Time { return s.now }

// Len returns the number of pending events.
func (s *Scheduler) Len() int { return s.wheelLen + len(s.heap) }

// Executed returns the total number of events dispatched so far,
// including those a handler ran in place (Fused).
func (s *Scheduler) Executed() uint64 { return s.executed }

// At enqueues h to be dispatched with arg at absolute time at. Scheduling
// in the past (before Now) panics: in a handshake model a causality
// violation is always a modeling bug and must not be silently reordered.
// This is the zero-allocation hot path; the returned EventID can cancel
// the event and costs nothing to discard.
func (s *Scheduler) At(at Time, h Handler, arg int64) EventID {
	if at < s.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", at, s.now))
	}
	if h == nil {
		panic("sim: schedule with nil handler")
	}
	if s.shard == nil && at-s.now < wheelSize {
		return s.wheelPush(at, h, arg)
	}
	idx := s.alloc()
	sl := &s.slots[idx]
	sl.at, sl.h, sl.arg = at, h, arg
	if sh := s.shard; sh != nil {
		// Composite creation-order stamp; provisional stamps are recorded
		// for rewriting at the window barrier.
		sl.seq = sh.stampSeq()
		if sl.seq>>childBits >= provBase {
			sh.fresh = append(sh.fresh, freshRef{idx: idx, gen: sl.gen})
		}
		s.insert(idx)
	} else {
		sl.seq = s.nextSeq
		s.nextSeq++
		s.pushFar(idx)
	}
	return EventID{slot: idx, gen: sl.gen}
}

// In enqueues h to be dispatched with arg after delay picoseconds,
// saturating at Never on overflow (an event at Never is beyond every
// finite RunUntil deadline). The zero-allocation hot path: a serial
// scheduler puts a delay inside the wheel span straight into its bucket.
func (s *Scheduler) In(delay Time, h Handler, arg int64) EventID {
	// A negative delay fails the unsigned compare, and within a span of
	// Never the sum could overflow; both take the checked path.
	if uint64(delay) < wheelSize && s.now < Never-wheelSize && s.shard == nil {
		if h == nil {
			panic("sim: schedule with nil handler")
		}
		return s.wheelPush(s.now+delay, h, arg)
	}
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %d", delay))
	}
	return s.At(AddSat(s.now, delay), h, arg)
}

// wheelPush queues a serial event at at, which must lie inside the wheel
// span. Sequence numbers only grow, so the event queues behind every
// pending event at its timestamp.
func (s *Scheduler) wheelPush(at Time, h Handler, arg int64) EventID {
	idx := s.alloc()
	sl := &s.slots[idx]
	sl.at, sl.h, sl.arg = at, h, arg
	sl.seq = s.nextSeq
	s.nextSeq++
	s.wheelAppend(idx, at)
	return EventID{slot: idx, gen: sl.gen}
}

// LastAt reports whether id is pending in the wheel at exactly at and is
// the tail of its bucket, on a serial scheduler. When it holds, an event
// scheduled at at now dispatches immediately after id, and nothing can
// later come between them: every later event gets a larger sequence
// number and queues behind both, and no far event shares a wheel
// event's timestamp. A component can then run that event's work at the
// end of id's handler instead, and report it with Fused. Sharded
// schedulers always report false: mailbox arrivals are inserted by
// sequence and can land between.
func (s *Scheduler) LastAt(id EventID, at Time) bool {
	if s.shard != nil || !s.Pending(id) {
		return false
	}
	sl := &s.slots[id.slot]
	return sl.heapIdx == slotWheel && sl.at == at && s.wheel[int(at)&wheelMask].tail == id.slot
}

// Fused counts one event that the handler now dispatching ran in place,
// at its end, instead of scheduling it, as a true LastAt allows. Executed
// then reads exactly as if the event had been dispatched: event budgets
// keep their meaning, and a serial run reports the count a sharded run
// of the same model reports, where LastAt is false and the event is
// dispatched.
func (s *Scheduler) Fused() { s.executed++ }

// funcEvent adapts a captured closure to Handler — the compatibility path
// for cold call sites; each Schedule/After allocates one.
type funcEvent struct{ fn func() }

func (f *funcEvent) OnEvent(int64) { f.fn() }

// Schedule enqueues fn to run at absolute time at. This is the
// closure-compatibility entry point: it allocates an adapter per call, so
// per-toggle hot paths use At with a Handler instead.
func (s *Scheduler) Schedule(at Time, fn func()) EventID {
	return s.At(at, &funcEvent{fn: fn}, 0)
}

// After enqueues fn to run delay picoseconds from now (closure
// compatibility; see Schedule).
func (s *Scheduler) After(delay Time, fn func()) EventID {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %d", delay))
	}
	return s.Schedule(AddSat(s.now, delay), fn)
}

// Cancel removes a pending event. Canceling an already-fired,
// already-canceled, or zero EventID is a no-op and returns false.
func (s *Scheduler) Cancel(id EventID) bool {
	if id.gen == 0 || int(id.slot) >= len(s.slots) {
		return false
	}
	sl := &s.slots[id.slot]
	if sl.gen != id.gen || sl.heapIdx == slotFree {
		return false
	}
	if sl.heapIdx == slotWheel {
		s.unlink(id.slot)
	} else {
		s.removeAt(int(sl.heapIdx))
	}
	s.release(id.slot)
	return true
}

// alloc takes a slot from the free list, growing the slab when it is
// empty.
func (s *Scheduler) alloc() int32 {
	if n := len(s.free); n > 0 {
		idx := s.free[n-1]
		s.free = s.free[:n-1]
		return idx
	}
	s.slots = append(s.slots, slot{gen: 1})
	return int32(len(s.slots) - 1)
}

// release returns a slot to the free list, advancing its generation so
// outstanding EventIDs for it go stale.
func (s *Scheduler) release(idx int32) {
	sl := &s.slots[idx]
	sl.h = nil // drop the handler reference; slots outlive events
	sl.heapIdx = slotFree
	sl.gen++
	if sl.gen == 0 {
		sl.gen = 1 // skip the invalid generation on wraparound
	}
	s.free = append(s.free, idx)
}

// wheelAppend links slot idx, due at at, at the tail of its bucket.
func (s *Scheduler) wheelAppend(idx int32, at Time) {
	s.slots[idx].heapIdx = slotWheel
	b := int(at) & wheelMask
	bk := &s.wheel[b]
	if w, bit := &s.occ[b>>6], uint64(1)<<(b&63); *w&bit == 0 {
		*w |= bit
		bk.head = idx
	} else {
		s.slots[bk.tail].next = idx
	}
	bk.tail = idx
	s.wheelLen++
}

// insert queues slot idx at its (at, seq) position. Sharded schedulers
// use it: a cross-shard arrival can precede events already queued at its
// timestamp (its creator may have dispatched before theirs), so it walks
// its bucket from the head unless it belongs at the tail.
func (s *Scheduler) insert(idx int32) {
	sl := &s.slots[idx]
	if sl.at-s.now >= wheelSize {
		s.pushFar(idx)
		return
	}
	b := int(sl.at) & wheelMask
	bk := &s.wheel[b]
	if s.occ[b>>6]&(uint64(1)<<(b&63)) == 0 || s.slots[bk.tail].seq < sl.seq {
		s.wheelAppend(idx, sl.at)
		return
	}
	sl.heapIdx = slotWheel
	s.wheelLen++
	if s.slots[bk.head].seq > sl.seq {
		sl.next = bk.head
		bk.head = idx
		return
	}
	// The tail sorts after idx, so the walk stops before it.
	p := bk.head
	for s.slots[s.slots[p].next].seq < sl.seq {
		p = s.slots[p].next
	}
	sl.next = s.slots[p].next
	s.slots[p].next = idx
}

// unlink removes wheel slot idx from its bucket, walking from the head
// (buckets are short; only Cancel and sharded decrease-keys get here).
func (s *Scheduler) unlink(idx int32) {
	b := int(s.slots[idx].at) & wheelMask
	bk := &s.wheel[b]
	s.wheelLen--
	if bk.head == idx {
		if bk.tail == idx {
			s.occ[b>>6] &^= uint64(1) << (b & 63)
		} else {
			bk.head = s.slots[idx].next
		}
		return
	}
	p := bk.head
	for s.slots[p].next != idx {
		p = s.slots[p].next
	}
	s.slots[p].next = s.slots[idx].next
	if bk.tail == idx {
		bk.tail = p
	}
}

// firstBucket returns the bucket holding the earliest wheel event; the
// wheel must not be empty. The span [now, now+wheelSize) wraps around
// the bucket array, so the scan starts at now's bucket and wraps.
func (s *Scheduler) firstBucket() int {
	start := int(s.now) & wheelMask
	w := start >> 6
	word := s.occ[w] &^ (uint64(1)<<(start&63) - 1)
	for word == 0 {
		w = (w + 1) & (wheelWords - 1)
		word = s.occ[w]
	}
	return (w<<6 | bits.TrailingZeros64(word)) & wheelMask
}

// peekAt returns the earliest pending timestamp, or Never when nothing
// is pending. By the wheel invariant every far event lies beyond every
// wheel event.
func (s *Scheduler) peekAt() Time {
	if s.wheelLen > 0 {
		return s.slots[s.wheel[s.firstBucket()].head].at
	}
	return s.farAt
}

// advance moves the clock forward to t and restores the wheel invariant:
// far events that now fall inside the span migrate into their buckets in
// heap order. No wheel event shares their timestamp yet — one could only
// have been queued once the clock came within a span of it, and the
// advance that brought the clock there migrated the far event first — so
// appending keeps every bucket in (at, seq) order. Every clock change
// goes through here.
func (s *Scheduler) advance(t Time) {
	s.now = t
	if s.farAt-t < wheelSize {
		s.migrate()
	}
}

// migrate moves the far events inside the span into their buckets.
// farAt is Never on an empty heap, and Never-now < wheelSize once the
// clock comes within a span of Never, so the loop also checks the heap.
func (s *Scheduler) migrate() {
	for s.farAt-s.now < wheelSize && len(s.heap) > 0 {
		idx := s.heap[0]
		s.removeAt(0)
		s.wheelAppend(idx, s.slots[idx].at)
	}
}

// less orders slab entries by (at, seq): time first, schedule order among
// simultaneous events.
func (s *Scheduler) less(a, b int32) bool {
	sa, sb := &s.slots[a], &s.slots[b]
	return sa.at < sb.at || (sa.at == sb.at && sa.seq < sb.seq)
}

// heapArity is the far heap's branching factor: a 4-ary heap halves the
// tree depth of a binary heap and keeps each node's children in one or
// two cache lines of the flat index array.
const heapArity = 4

// pushFar queues slot idx on the far heap.
func (s *Scheduler) pushFar(idx int32) {
	s.slots[idx].heapIdx = int32(len(s.heap))
	s.heap = append(s.heap, idx)
	s.siftUp(len(s.heap) - 1)
	s.refreshFar()
}

// refreshFar recomputes farAt after the heap's root may have changed.
func (s *Scheduler) refreshFar() {
	if len(s.heap) == 0 {
		s.farAt = Never
		return
	}
	s.farAt = s.slots[s.heap[0]].at
}

// siftUp restores heap order from position i toward the root.
func (s *Scheduler) siftUp(i int) {
	idx := s.heap[i]
	for i > 0 {
		p := (i - 1) / heapArity
		pi := s.heap[p]
		if !s.less(idx, pi) {
			break
		}
		s.heap[i] = pi
		s.slots[pi].heapIdx = int32(i)
		i = p
	}
	s.heap[i] = idx
	s.slots[idx].heapIdx = int32(i)
}

// siftDown restores heap order from position i toward the leaves and
// reports whether the entry moved.
func (s *Scheduler) siftDown(i int) bool {
	idx := s.heap[i]
	start := i
	n := len(s.heap)
	for {
		c := heapArity*i + 1
		if c >= n {
			break
		}
		best := c
		end := c + heapArity
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if s.less(s.heap[j], s.heap[best]) {
				best = j
			}
		}
		if !s.less(s.heap[best], idx) {
			break
		}
		bi := s.heap[best]
		s.heap[i] = bi
		s.slots[bi].heapIdx = int32(i)
		i = best
	}
	s.heap[i] = idx
	s.slots[idx].heapIdx = int32(i)
	return i != start
}

// removeAt deletes the heap entry at position i (the caller releases the
// slot).
func (s *Scheduler) removeAt(i int) {
	last := len(s.heap) - 1
	li := s.heap[last]
	s.heap = s.heap[:last]
	if i != last {
		s.heap[i] = li
		s.slots[li].heapIdx = int32(i)
		if !s.siftDown(i) {
			s.siftUp(i)
		}
	}
	s.refreshFar()
}

// Stop makes the currently running Run/RunUntil loop return after the
// in-flight event completes.
func (s *Scheduler) Stop() { s.stopped = true }

// step dispatches the earliest pending event, advancing time.
// It reports whether an event was dispatched.
func (s *Scheduler) step() bool { return s.stepUntil(Never) }

// stepUntil dispatches the earliest pending event if its timestamp is at
// most limit, advancing time, and reports whether it did.
func (s *Scheduler) stepUntil(limit Time) bool {
	var idx int32
	if s.wheelLen > 0 {
		b := s.firstBucket()
		// By the wheel invariant bucket b holds the one timestamp in
		// [now, now+wheelSize) that maps to it, so the head's time needs
		// no slot load before the limit check.
		at := s.now + Time((b-int(s.now))&wheelMask)
		if at > limit {
			return false
		}
		bk := &s.wheel[b]
		idx = bk.head
		if idx == bk.tail {
			s.occ[b>>6] &^= uint64(1) << (b & 63)
		} else {
			bk.head = s.slots[idx].next
		}
		s.wheelLen--
		if at != s.now {
			s.advance(at)
		}
	} else if len(s.heap) > 0 {
		at := s.farAt
		if at > limit {
			return false
		}
		idx = s.heap[0]
		s.removeAt(0)
		s.advance(at)
	} else {
		return false
	}
	sl := &s.slots[idx]
	if sh := s.shard; sh != nil {
		sh.beginDispatch(sl.at, sl.seq)
	}
	h, arg := sl.h, sl.arg
	// Release before dispatch: a self-rescheduling handler chain then
	// recycles one slot forever instead of walking the slab.
	s.release(idx)
	s.executed++
	h.OnEvent(arg)
	return true
}

// Run dispatches events until the queue drains or Stop is called.
func (s *Scheduler) Run() {
	s.stopped = false
	for !s.stopped && s.step() {
	}
}

// RunUntil dispatches events with timestamps <= deadline, then sets the
// clock to deadline (if the simulation got that far). Events scheduled
// beyond the deadline remain queued.
func (s *Scheduler) RunUntil(deadline Time) {
	s.stopped = false
	for !s.stopped && s.stepUntil(deadline) {
	}
	if !s.stopped && s.now < deadline {
		s.advance(deadline)
	}
}
