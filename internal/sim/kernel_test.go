// Kernel-specific tests: a randomized schedule/cancel/reschedule property
// checked against a naive sorted-slice reference scheduler, and
// allocation-reporting benchmarks for the zero-allocation contract of the
// At/In + dispatch + Cancel hot path.
package sim

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
	"testing"
	"testing/quick"
)

// refEv mirrors one pending event in the reference scheduler.
type refEv struct {
	at  Time
	seq uint64
	tag int64
}

// refSched is the reference implementation: an unordered slice scanned
// for the stable minimum by (at, seq). Quadratic and obviously correct.
type refSched struct{ evs []refEv }

func (r *refSched) add(at Time, seq uint64, tag int64) {
	r.evs = append(r.evs, refEv{at: at, seq: seq, tag: tag})
}

// lastAt reports whether tag is pending and no pending event shares its
// timestamp with a larger sequence number.
func (r *refSched) lastAt(tag int64) bool {
	i := slices.IndexFunc(r.evs, func(e refEv) bool { return e.tag == tag })
	if i < 0 {
		return false
	}
	for _, e := range r.evs {
		if e.at == r.evs[i].at && e.seq > r.evs[i].seq {
			return false
		}
	}
	return true
}

func (r *refSched) cancel(tag int64) bool {
	for i := range r.evs {
		if r.evs[i].tag == tag {
			r.evs = append(r.evs[:i], r.evs[i+1:]...)
			return true
		}
	}
	return false
}

// minIdx returns the index of the (at, seq)-least event, -1 if none.
func (r *refSched) minIdx() int {
	best := -1
	for i, e := range r.evs {
		if best < 0 {
			best = i
			continue
		}
		b := r.evs[best]
		if e.at < b.at || (e.at == b.at && e.seq < b.seq) {
			best = i
		}
	}
	return best
}

func (r *refSched) peekMin() (refEv, bool) {
	if i := r.minIdx(); i >= 0 {
		return r.evs[i], true
	}
	return refEv{}, false
}

func (r *refSched) popMin() (refEv, bool) {
	best := r.minIdx()
	if best < 0 {
		return refEv{}, false
	}
	ev := r.evs[best]
	r.evs = append(r.evs[:best], r.evs[best+1:]...)
	return ev, true
}

// dispatchRec is one observed dispatch: the payload tag and the clock.
type dispatchRec struct {
	tag int64
	at  Time
}

// tagRecorder logs every dispatch it receives.
type tagRecorder struct {
	s   *Scheduler
	log []dispatchRec
}

func (h *tagRecorder) OnEvent(arg int64) {
	h.log = append(h.log, dispatchRec{tag: arg, at: h.s.Now()})
}

// Operation kinds of the kernel-versus-reference harness: an op is a
// uint32 whose low four bits pick the kind and whose upper bits (sel)
// pick the delay, deadline or live event it acts on.
const (
	opKinds    = 16
	opSelShift = 4
)

// spanEdges are the delays where an event changes sides between the
// timing wheel and the far heap.
var spanEdges = [...]Time{0, wheelSize - 1, wheelSize, wheelSize + 1, 7*wheelSize + 3}

// kernelRefMismatch drives ops through both the kernel and the reference
// scheduler: schedules near, at the span edges, anywhere up to nine
// spans ahead and at Never, through At and In alternately; cancels and
// reschedules; single steps; RunUntil deadlines that fall between
// occupied buckets, on an event or past the span; and LastAt queries. It
// requires identical dispatch sequences (tags and timestamps), identical
// Cancel outcomes and clocks, correct staleness of spent EventIDs, and
// that LastAt holds exactly for a wheel event that is the reference's
// last pending event at its time, and describes the first difference
// ("" if there is none).
func kernelRefMismatch(ops []uint32) string {
	s := NewScheduler()
	rec := &tagRecorder{s: s}
	ref := &refSched{}
	live := make(map[int64]EventID)
	liveOrder := []int64{} // deterministic pick among live tags
	liveAt := make(map[int64]Time)
	var nextTag int64
	var seq uint64 // mirrors the kernel's per-At sequence counter
	// spent is the ID of the most recently dispatched or canceled event,
	// spentAt its timestamp.
	var spent EventID
	var spentAt Time

	pick := func(sel uint32) (int64, bool) {
		if len(liveOrder) == 0 {
			return 0, false
		}
		return liveOrder[int(sel)%len(liveOrder)], true
	}
	drop := func(tag int64) {
		spent, spentAt = live[tag], liveAt[tag]
		delete(live, tag)
		delete(liveAt, tag)
		for i, v := range liveOrder {
			if v == tag {
				liveOrder = append(liveOrder[:i], liveOrder[i+1:]...)
				break
			}
		}
	}
	schedule := func(delay Time) {
		tag := nextTag
		nextTag++
		at := AddSat(s.Now(), delay)
		var id EventID
		if tag%2 == 0 {
			id = s.At(at, rec, tag)
		} else {
			id = s.In(delay, rec, tag)
		}
		ref.add(at, seq, tag)
		seq++
		live[tag] = id
		liveAt[tag] = at
		liveOrder = append(liveOrder, tag)
	}
	// checkLast compares the kernel's latest dispatch with want.
	checkLast := func(want refEv) string {
		got := rec.log[len(rec.log)-1]
		if got.tag != want.tag || got.at != want.at {
			return fmt.Sprintf("dispatched (tag=%d at=%v), want (tag=%d at=%v)",
				got.tag, got.at, want.tag, want.at)
		}
		return ""
	}
	checkStep := func() string {
		before := len(rec.log)
		did := s.step()
		want, ok := ref.popMin()
		if did != ok {
			return fmt.Sprintf("step dispatched=%v, reference had event=%v", did, ok)
		}
		if !ok {
			return ""
		}
		drop(want.tag)
		if len(rec.log) != before+1 {
			return fmt.Sprintf("step logged %d dispatches, want 1", len(rec.log)-before)
		}
		return checkLast(want)
	}
	// checkLastAt compares LastAt for a live tag with the reference; the
	// far heap never answers true, and neither does any other timestamp.
	checkLastAt := func(tag int64) string {
		id, at := live[tag], liveAt[tag]
		want := at-s.Now() < wheelSize && ref.lastAt(tag)
		if got := s.LastAt(id, at); got != want {
			return fmt.Sprintf("LastAt(tag=%d at=%v) = %v at now=%v, want %v", tag, at, got, s.Now(), want)
		}
		if s.LastAt(id, at^1) {
			return fmt.Sprintf("LastAt(tag=%d) true at %v, event is at %v", tag, at^1, at)
		}
		return ""
	}
	runUntil := func(deadline Time) string {
		now := s.Now()
		before := len(rec.log)
		s.RunUntil(deadline)
		got := rec.log[before:]
		for i := 0; ; i++ {
			want, ok := ref.peekMin()
			if !ok || want.at > deadline {
				if i != len(got) {
					return fmt.Sprintf("RunUntil(%v) dispatched %d events, want %d", deadline, len(got), i)
				}
				break
			}
			ref.popMin()
			drop(want.tag)
			if i >= len(got) {
				return fmt.Sprintf("RunUntil(%v) stopped after %d events; next want (tag=%d at=%v)",
					deadline, len(got), want.tag, want.at)
			}
			if got[i].tag != want.tag || got[i].at != want.at {
				return fmt.Sprintf("RunUntil(%v) dispatch %d: (tag=%d at=%v), want (tag=%d at=%v)",
					deadline, i, got[i].tag, got[i].at, want.tag, want.at)
			}
		}
		if want := max(now, deadline); s.Now() != want {
			return fmt.Sprintf("RunUntil(%v) left the clock at %v, want %v", deadline, s.Now(), want)
		}
		return ""
	}

	for _, op := range ops {
		sel := op >> opSelShift
		var bad string
		switch op % opKinds {
		case 0, 1, 2, 3: // schedule with a small pseudo-random delay
			schedule(Time(sel % 97))
		case 4: // schedule on either side of the wheel span
			schedule(spanEdges[sel%uint32(len(spanEdges))])
		case 5: // schedule anywhere up to nine spans ahead
			schedule(Time(sel % (9 * wheelSize)))
		case 6: // a delay that saturates at Never
			schedule(Never - Time(sel%4))
		case 7: // cancel a live event; both sides must agree
			if tag, ok := pick(sel); ok {
				if !s.Cancel(live[tag]) {
					return fmt.Sprintf("Cancel of live tag %d returned false", tag)
				}
				if !ref.cancel(tag) {
					return fmt.Sprintf("reference missing live tag %d", tag)
				}
				stale := live[tag]
				drop(tag)
				if s.Cancel(stale) {
					return fmt.Sprintf("second Cancel of tag %d returned true", tag)
				}
			}
		case 8: // reschedule: cancel + schedule at a fresh time
			if tag, ok := pick(sel); ok {
				s.Cancel(live[tag])
				ref.cancel(tag)
				drop(tag)
				schedule(Time(sel % (3 * wheelSize)))
			}
		case 9, 10, 11: // dispatch one event
			bad = checkStep()
		case 12: // LastAt on a zero, spent or live ID
			switch sel % 4 {
			case 0:
				if s.LastAt(EventID{}, s.Now()) {
					return "LastAt of zero EventID returned true"
				}
			case 1:
				if s.LastAt(spent, spentAt) {
					return fmt.Sprintf("LastAt of spent ID at %v returned true", spentAt)
				}
			case 2: // the live event's bucket gains a later entry
				if tag, ok := pick(sel >> 2); ok {
					schedule(liveAt[tag] - s.Now())
					if bad = checkLastAt(tag); bad == "" {
						bad = checkLastAt(nextTag - 1)
					}
				}
			case 3:
				if tag, ok := pick(sel >> 2); ok {
					bad = checkLastAt(tag)
				}
			}
		case 13: // canceling the zero ID is always a no-op
			if s.Cancel(EventID{}) {
				return "Cancel of zero EventID returned true"
			}
		case 14: // a deadline between buckets or past the span
			bad = runUntil(AddSat(s.Now(), Time(sel%(3*wheelSize))))
		case 15: // a deadline just before, on or just after a live event
			if tag, ok := pick(sel); ok {
				d := AddSat(liveAt[tag], Time(sel/7%3)) - 1
				bad = runUntil(max(d, s.Now()))
			}
		}
		if bad != "" {
			return bad
		}
		if s.Len() != len(ref.evs) {
			return fmt.Sprintf("Len() = %d, reference holds %d", s.Len(), len(ref.evs))
		}
	}
	// Drain both schedulers completely and compare the tails.
	for {
		want, ok := ref.popMin()
		did := s.step()
		if did != ok {
			return fmt.Sprintf("drain: dispatched=%v, reference=%v", did, ok)
		}
		if !ok {
			break
		}
		if bad := checkLast(want); bad != "" {
			return "drain " + bad
		}
	}
	if s.Len() != 0 {
		return fmt.Sprintf("drained kernel reports Len() = %d", s.Len())
	}
	return ""
}

// TestKernelMatchesReferenceProperty runs random op sequences through
// kernelRefMismatch.
func TestKernelMatchesReferenceProperty(t *testing.T) {
	f := func(ops []uint32) bool {
		if bad := kernelRefMismatch(ops); bad != "" {
			t.Log(bad)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// FuzzKernelOrder decodes the input into kernelRefMismatch ops, four
// little-endian bytes each, so the fuzzer can reach any delay, deadline
// and interleaving the op set expresses.
//
//	go test -run '^$' -fuzz FuzzKernelOrder -fuzztime 1m ./internal/sim
func FuzzKernelOrder(f *testing.F) {
	op := func(kind, sel uint32) []byte {
		return binary.LittleEndian.AppendUint32(nil, sel<<opSelShift|kind)
	}
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	f.Add([]byte{})
	// A far event at 3 spans, a final RunUntil jump to within one span
	// of it, then a wheel event one span minus 1 ps later that must not
	// overtake it.
	f.Add(cat(op(5, 3*wheelSize), op(14, 2*wheelSize+100), op(4, 1), op(9, 0), op(9, 0)))
	// A far event 1 ps past the span, a wheel event 1 ps short of it,
	// and a near event scheduled after the step between them.
	f.Add(cat(op(4, 3), op(4, 1), op(9, 0), op(0, 5), op(9, 0), op(9, 0)))
	// Every span edge, a Never event and a deadline past them all.
	f.Add(cat(op(4, 0), op(4, 1), op(4, 2), op(4, 3), op(4, 4), op(6, 0), op(14, 3*wheelSize-1)))
	// Cancel and reschedule across the span.
	f.Add(cat(op(5, 2*wheelSize), op(0, 10), op(7, 0), op(8, 1), op(15, 7), op(10, 0)))
	f.Fuzz(func(t *testing.T, data []byte) {
		const maxOps = 512 // the reference is quadratic
		ops := make([]uint32, 0, min(len(data)/4, maxOps))
		for len(data) >= 4 && len(ops) < maxOps {
			ops = append(ops, binary.LittleEndian.Uint32(data))
			data = data[4:]
		}
		if bad := kernelRefMismatch(ops); bad != "" {
			t.Fatal(bad)
		}
	})
}

// TestPending covers the EventID liveness probe across fire and cancel.
func TestPending(t *testing.T) {
	s := NewScheduler()
	var nop nopHandler
	id := s.At(10, &nop, 0)
	if !s.Pending(id) {
		t.Error("Pending(live) = false")
	}
	s.Run()
	if s.Pending(id) {
		t.Error("Pending(fired) = true")
	}
	id2 := s.At(20, &nop, 0)
	s.Cancel(id2)
	if s.Pending(id2) {
		t.Error("Pending(canceled) = true")
	}
	if s.Pending(EventID{}) {
		t.Error("Pending(zero) = true")
	}
}

// TestAddSat pins the saturating deadline arithmetic.
func TestAddSat(t *testing.T) {
	cases := []struct{ a, b, want Time }{
		{0, 0, 0},
		{1, 2, 3},
		{Never, 1, Never},
		{1, Never, Never},
		{Never, Never, Never},
		{Never - 1, 1, Never},
		{Never - 1, 2, Never},
		{Never / 2, Never/2 + 2, Never},
		{-5, 3, -2},
	}
	for _, c := range cases {
		if got := AddSat(c.a, c.b); got != c.want {
			t.Errorf("AddSat(%d, %d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

// TestInOverflowSaturates schedules with a delay that would overflow the
// clock and expects the event to land at Never instead of panicking.
func TestInOverflowSaturates(t *testing.T) {
	s := NewScheduler()
	var nop nopHandler
	s.At(100, &nop, 0)
	s.RunUntil(100)
	id := s.In(Never-50, &nop, 0)
	if !s.Pending(id) {
		t.Fatal("overflowing In did not schedule")
	}
	s.RunUntil(Never - 1)
	if !s.Pending(id) {
		t.Error("event at Never dispatched before the deadline Never-1")
	}
	// A short delay within a span of Never saturates too.
	id2 := s.In(5, &nop, 0)
	s.Run()
	if s.Pending(id) || s.Pending(id2) || s.Now() != Never {
		t.Errorf("after Run: pending %v/%v, clock %v; want both dispatched at Never",
			s.Pending(id), s.Pending(id2), s.Now())
	}
}

// nopHandler is an inert dispatch target for benchmarks and tests.
type nopHandler struct{}

func (*nopHandler) OnEvent(int64) {}

// chainHandler reschedules itself until its budget is exhausted: the
// steady-state pattern of a handshake component (one event in flight,
// slot recycled every dispatch).
type chainHandler struct {
	s    *Scheduler
	left int
}

func (h *chainHandler) OnEvent(int64) {
	if h.left > 0 {
		h.left--
		h.s.In(1, h, 0)
	}
}

// BenchmarkKernelScheduleDispatch measures one In + one dispatch per op
// on a self-rescheduling chain. Must report 0 allocs/op.
func BenchmarkKernelScheduleDispatch(b *testing.B) {
	s := NewScheduler()
	h := &chainHandler{s: s, left: b.N}
	s.At(0, h, 0)
	b.ReportAllocs()
	b.ResetTimer()
	s.Run()
}

// fanChainHandler keeps many events pending at once with varied delays,
// exercising shared buckets and the occupancy scan instead of the
// depth-1 chain.
type fanChainHandler struct {
	s    *Scheduler
	left int
}

func (h *fanChainHandler) OnEvent(arg int64) {
	if h.left > 0 {
		h.left--
		h.s.In(Time(1+(arg*7)%97), h, arg)
	}
}

// BenchmarkKernelScheduleDispatchFanout measures schedule + dispatch with
// 64 interleaved chains (64 events pending in steady state, spread over
// the first 97 ps of the wheel). Must report 0 allocs/op.
func BenchmarkKernelScheduleDispatchFanout(b *testing.B) {
	s := NewScheduler()
	h := &fanChainHandler{s: s, left: b.N}
	for i := 0; i < 64; i++ {
		s.At(Time(i), h, int64(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	s.Run()
}

// BenchmarkKernelCancel measures one Cancel + one replacement At per op
// against a 512-event pending window. Must report 0 allocs/op.
func BenchmarkKernelCancel(b *testing.B) {
	s := NewScheduler()
	var nop nopHandler
	const window = 512
	ids := make([]EventID, window)
	for i := range ids {
		ids[i] = s.At(Time(i+1), &nop, 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % window
		s.Cancel(ids[j])
		ids[j] = s.At(Time(j+1), &nop, 0)
	}
}

// farChainHandler reschedules itself at least one wheel span ahead, so
// every event is queued on the far heap and migrates into the wheel
// before it dispatches.
type farChainHandler struct {
	s    *Scheduler
	left int
}

func (h *farChainHandler) OnEvent(arg int64) {
	if h.left > 0 {
		h.left--
		h.s.In(wheelSize+Time(arg*37)%(3*wheelSize), h, arg)
	}
}

// BenchmarkKernelScheduleDispatchFar measures schedule + migration +
// dispatch with 64 interleaved chains whose every hop is at least one
// wheel span long. Must report 0 allocs/op.
func BenchmarkKernelScheduleDispatchFar(b *testing.B) {
	s := NewScheduler()
	h := &farChainHandler{s: s, left: b.N}
	for i := 0; i < 64; i++ {
		s.At(Time(i), h, int64(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	s.Run()
}

// TestKernelFarPathAllocFree pins the far path at zero allocations once
// the slab and heap have grown: far scheduling, migration into the wheel
// on every clock advance (step and the final RunUntil jump), and Cancel
// of a far event.
func TestKernelFarPathAllocFree(t *testing.T) {
	s := NewScheduler()
	h := &farChainHandler{s: s, left: 1 << 30}
	for i := 0; i < 64; i++ {
		s.At(Time(i), h, int64(i))
	}
	var nop nopHandler
	s.RunUntil(64 * wheelSize) // warm up
	migrated := s.Executed()
	allocs := testing.AllocsPerRun(100, func() {
		s.Cancel(s.In(2*wheelSize, &nop, 0))
		s.RunUntil(s.Now() + 4*wheelSize + 7)
	})
	if allocs != 0 {
		t.Errorf("far path: %v allocs/run, want 0", allocs)
	}
	if s.Executed() == migrated {
		t.Error("no far event dispatched during the measured runs")
	}
}
