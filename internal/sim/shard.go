// Sharded conservative-lookahead execution (Chandy–Misra style PDES).
//
// A ShardGroup drives K schedulers in bounded time windows under a
// per-pair lookahead matrix la[src][dst]: every event shard src creates
// for shard dst lands at least la[src][dst] after its creation time, so
// nothing created during a window can retroactively belong inside it.
// Each round, the calling goroutine (the coordinator) runs every shard's
// window in turn; shards exchange cross-shard events through per-pair
// mailbox rings that the coordinator drains at the window barriers.
//
// Window computation is adaptive. At each barrier the coordinator knows
// every shard's earliest pending event time next[i] (heap head and
// undelivered mailbox arrivals). A naive fence would stop everyone at
// minNext+lookahead; instead the coordinator computes, per shard, the
// earliest time any OTHER shard's activity could reach it — including
// multi-hop reaction chains — as the fixpoint
//
//	act[j] = min(next[j], min_{i != j}(act[i] + la[i][j]))
//
// (a shortest-path relaxation over the lookahead matrix), and lets each
// shard run to horizon[j] = min_{i != j}(act[i] + la[i][j]) - 1. Shards
// with sparse queues therefore run far past the global fence, which cuts
// the barrier count — dramatically so on chiplet compositions, where
// la grows with die distance.
//
// Determinism — the group reproduces the serial scheduler's dispatch
// sequence EXACTLY, not just approximately:
//
//   - The serial scheduler orders simultaneous events by creation order
//     (the monotone seq counter). Creation order is equivalent to the
//     lexicographic pair (creator's global dispatch ordinal, child index
//     within that dispatch): a dispatch creates its children back to
//     back, and dispatches themselves are totally ordered.
//   - Sharded events therefore carry a composite sequence
//     creatorOrd<<childBits | childIdx. Until the creator's global
//     ordinal is known, children are stamped with a provisional ordinal
//     (provBase + the creator's absolute dispatch index in its shard's
//     log); provBase exceeds every resolvable ordinal, which is exactly
//     the right tie-break (everything not yet merged was created after
//     everything already merged, and same-shard provisional order equals
//     log order equals eventual ordinal order).
//   - At each merging barrier the per-shard dispatch logs are k-way
//     merged by (at, seq) — but only strictly below safeAt, the earliest
//     still-pending event anywhere: a dispatch at time t is final only
//     once no pending event could precede it. Merged dispatches receive
//     dense global ordinals; provisional references in log tails, pending
//     events, and mailboxes are then rewritten to their resolved values,
//     and the merged log prefix is trimmed (absolute dispatch indices
//     keep references stable across trims).
//   - A mailbox entry is delivered only once its creator's ordinal is
//     resolved; the earliest pending arrival anywhere always is (its
//     creator dispatched at least one lookahead earlier, hence below
//     safeAt), so held mail never stalls progress — it only caps the
//     holder's horizon.
//
// Barriers with no cross-shard traffic skip the merge entirely
// (coalesced replay): the logs accumulate and a later barrier merges the
// whole stretch in one pass, in the same global order.
//
// The merged order drives the ReplayFunc callback, through which a
// client (the network layer) applies order-sensitive side effects —
// floating-point energy accumulation, latency recording, trace emission,
// pool releases — in exact serial order, keeping run results and traces
// byte-identical at any shard count.
package sim

import (
	"fmt"
	"time"

	"asyncnoc/internal/pool"
)

const (
	// childBits is the width of the per-dispatch child index in a
	// composite sequence number.
	childBits = 20
	childMask = 1<<childBits - 1
	// provBase is the provisional creator-ordinal base. It exceeds every
	// resolved ordinal (guarded in mergeTo), so provisional sequences
	// sort after all resolved ones — the correct not-yet-merged
	// tie-break.
	provBase uint64 = 1 << 40
	// flushBacklog bounds how many dispatches coalesced (merge-skipping)
	// barriers may accumulate before a merge is forced, bounding the
	// dispatch logs and the client's deferred-effect backlog.
	flushBacklog = 1 << 14
)

// ReplayFunc observes every dispatch in merged global serial order at
// each merging barrier: shard is the dispatching shard, dispatchIdx its
// absolute dispatch index on that shard (the value DispatchIndex returned
// while it executed). The network layer uses it to apply deferred side
// effects in exact serial order.
type ReplayFunc func(shard int, dispatchIdx int)

// dispatchStamp is one entry of a shard's dispatch log.
type dispatchStamp struct {
	at  Time
	seq uint64 // composite; creator may still be provisional
}

// freshRef remembers a slot holding a provisional sequence so a merging
// barrier can rewrite it once the creator resolves. The generation
// detects slots already dispatched (and possibly recycled).
type freshRef struct {
	idx int32
	gen uint32
}

// shardState is the per-scheduler sharding context, present only on
// schedulers owned by a ShardGroup.
type shardState struct {
	group *ShardGroup
	idx   int

	// dlog is the dispatch log. Entries [0, merged) have been k-way
	// merged into the global order — resolved holds their ordinals,
	// index-aligned — while [merged, len) ran ahead of the current safe
	// horizon. dlogStart is the absolute dispatch index of dlog[0];
	// provisional stamps carry absolute indices, so the merged prefix
	// can be trimmed without invalidating references.
	dlog      []dispatchStamp
	resolved  []uint64
	merged    int
	dlogStart uint64

	fresh []freshRef

	// curDispatch is the log-local index of the in-flight dispatch (-1
	// outside a dispatch); childIdx counts events it has created.
	curDispatch int
	childIdx    uint32

	// merge-cursor cache (coordinator only).
	headAt  Time
	headSeq uint64
}

// stampSeq assigns the composite sequence for an event created now.
func (sh *shardState) stampSeq() uint64 {
	if sh.curDispatch < 0 {
		// Genesis (pre-run build) event: creator ordinal 0, group-global
		// creation index — build order is serial creation order.
		g := sh.group
		if g.started {
			panic("sim: event scheduled outside a dispatch after the sharded run started")
		}
		ci := g.genesisIdx
		g.genesisIdx++
		if ci >= childMask {
			panic("sim: genesis event index overflow")
		}
		return ci
	}
	ci := sh.childIdx
	sh.childIdx++
	if ci >= childMask {
		panic(fmt.Sprintf("sim: dispatch created %d events (child index overflow)", ci))
	}
	abs := sh.dlogStart + uint64(sh.curDispatch)
	return (provBase+abs)<<childBits | uint64(ci)
}

// beginDispatch opens a dispatch-log entry for the event about to run.
func (sh *shardState) beginDispatch(at Time, seq uint64) {
	sh.dlog = append(sh.dlog, dispatchStamp{at: at, seq: seq})
	sh.curDispatch = len(sh.dlog) - 1
	sh.childIdx = 0
}

// resolveSeq rewrites seq's provisional creator reference if that creator
// has merged; ok reports whether the result is fully resolved.
func (sh *shardState) resolveSeq(seq uint64) (_ uint64, ok bool) {
	c := seq >> childBits
	if c < provBase {
		return seq, true
	}
	local := c - provBase - sh.dlogStart
	if local >= uint64(sh.merged) {
		return seq, false
	}
	return sh.resolved[local]<<childBits | seq&childMask, true
}

// loadHead caches the merge cursor's next entry with its creator
// reference resolved. Safe even for zero-delay chains: a creator always
// dispatched earlier in the same shard's log, so its resolved ordinal is
// already assigned when its child reaches the head.
func (sh *shardState) loadHead() {
	if sh.merged >= len(sh.dlog) {
		return
	}
	r := sh.dlog[sh.merged]
	if c := r.seq >> childBits; c >= provBase {
		r.seq = sh.resolved[c-provBase-sh.dlogStart]<<childBits | r.seq&childMask
	}
	sh.headAt, sh.headSeq = r.at, r.seq
}

// rewriteTail resolves creator references of unmerged log entries whose
// creators merged this barrier, so the merged prefix (and its resolution
// table) can be trimmed without dangling references.
func (sh *shardState) rewriteTail() {
	for i := sh.merged; i < len(sh.dlog); i++ {
		r := &sh.dlog[i]
		if c := r.seq >> childBits; c >= provBase {
			if local := c - provBase - sh.dlogStart; local < uint64(sh.merged) {
				r.seq = sh.resolved[local]<<childBits | r.seq&childMask
			}
		}
	}
}

// trim drops the merged log prefix, advancing the absolute base. After
// rewriteTail/resolveFresh/deliverMail no reference to a merged creator
// survives, so the prefix and its resolution table are dead weight.
func (sh *shardState) trim() {
	m := sh.merged
	if m == 0 {
		return
	}
	sh.dlogStart += uint64(m)
	if m == len(sh.dlog) {
		sh.dlog = sh.dlog[:0]
	} else {
		n := copy(sh.dlog, sh.dlog[m:])
		sh.dlog = sh.dlog[:n]
	}
	sh.resolved = sh.resolved[:0]
	sh.merged = 0
}

// remoteEvent is one cross-shard event awaiting barrier delivery.
type remoteEvent struct {
	at  Time
	seq uint64
	h   Handler
	arg int64
}

// mailbox is a single-writer ring of cross-shard events: the sending
// shard pushes during its window, the coordinator pops at barriers (the
// barrier separates the two, so no lock is needed). The ring grows to
// its high-water mark once and is then reused for the whole run. minAt
// caches the earliest queued arrival (Never when empty) so the barrier
// scan does not walk the queue.
type mailbox struct {
	q     pool.Ring[remoteEvent]
	minAt Time
}

// RemoteRef is one direction of a cross-shard link. Events sent through
// it are stamped with the sending shard's creation order and delivered
// into the receiving shard's queue at a barrier once their creator's
// global ordinal is resolved.
type RemoteRef struct {
	from     *Scheduler
	box      *mailbox
	src, dst int
}

// Send schedules h(arg) on the remote shard delay picoseconds from the
// sending shard's now. The delay must be at least the pair's lookahead —
// that is the conservative-execution contract.
func (r *RemoteRef) Send(delay Time, h Handler, arg int64) {
	g := r.from.shard.group
	if la := g.la[r.src][r.dst]; delay < la {
		panic(fmt.Sprintf("sim: cross-shard delay %v below lookahead %v (shard %d -> %d)", delay, la, r.src, r.dst))
	}
	if h == nil {
		panic("sim: cross-shard send with nil handler")
	}
	at := AddSat(r.from.now, delay)
	r.box.q.Push(remoteEvent{at: at, seq: r.from.shard.stampSeq(), h: h, arg: arg})
	if at < r.box.minAt {
		r.box.minAt = at
	}
}

// ShardStats counts one group's window/barrier activity. The counters
// are diagnostics only — they never feed back into the simulation.
type ShardStats struct {
	// Barriers counts coordinator barrier rounds; Windows counts shard
	// windows executed across them (<= Barriers * Shards — idle shards
	// sit rounds out).
	Barriers uint64
	Windows  uint64
	// ExtendedWindows counts windows whose adaptive horizon exceeded the
	// classic minNext+lookahead fence.
	ExtendedWindows uint64
	// CoalescedReplays counts barriers that skipped the merge/replay
	// pass (no mailbox traffic, small backlog).
	CoalescedReplays uint64
	// MergedDispatches counts dispatches merged into the global order
	// and replayed.
	MergedDispatches uint64
	// MailboxEvents counts cross-shard events delivered; HeldMail counts
	// deliveries deferred because the creator's ordinal was unresolved.
	MailboxEvents uint64
	HeldMail      uint64
	// BarrierNs is coordinator wall time inside merge/horizon barrier
	// sections (window execution excluded). Zero unless barrier timing
	// is enabled: the clock reads would cost a few percent at
	// million-barrier scale.
	BarrierNs int64
}

// ShardGroup coordinates K schedulers executing one simulation under
// conservative lookahead. Construct with NewShardGroup, wire cross-shard
// links with Cross (and optionally widen pair lookaheads with
// SetLookahead), then drive it with RunUntil; Close publishes the stats.
type ShardGroup struct {
	shards []*Scheduler
	// la[src][dst] is the pair lookahead matrix; minLa the floor passed
	// to NewShardGroup (the classic-fence reference).
	la    [][]Time
	minLa Time
	now   Time

	genesisIdx uint64
	nextOrd    uint64
	started    bool
	replay     ReplayFunc

	// mail[dst][src] carries events from shard src to shard dst;
	// refs[src][dst] is the preallocated RemoteRef table Cross serves
	// from (Send sits on model hot paths, so handing out a fresh ref per
	// call would allocate).
	mail [][]mailbox
	refs [][]RemoteRef
	// uniformLa is true while every pair lookahead equals minLa, enabling
	// the O(k) horizon fast path (the fixpoint collapses: one relaxation
	// from the minimum reaches it).
	uniformLa bool

	// Preallocated barrier scratch, reused every round.
	next    []Time
	act     []Time
	horizon []Time
	heldMin []Time

	stats  ShardStats
	timing bool
	closed bool
}

// NewShardGroup returns a group of k schedulers (k >= 1) with the given
// conservative lookahead (> 0): the minimum delay of any cross-shard
// event. Individual pairs may be widened with SetLookahead.
func NewShardGroup(k int, lookahead Time) *ShardGroup {
	if k < 1 {
		panic(fmt.Sprintf("sim: shard count %d < 1", k))
	}
	if lookahead <= 0 {
		panic(fmt.Sprintf("sim: lookahead %v must be positive", lookahead))
	}
	g := &ShardGroup{
		minLa:     lookahead,
		nextOrd:   1,
		uniformLa: true,
	}
	g.shards = make([]*Scheduler, k)
	g.mail = make([][]mailbox, k)
	g.refs = make([][]RemoteRef, k)
	g.la = make([][]Time, k)
	g.next = make([]Time, k)
	g.act = make([]Time, k)
	g.horizon = make([]Time, k)
	g.heldMin = make([]Time, k)
	for i := range g.shards {
		s := NewScheduler()
		s.shard = &shardState{
			group: g, idx: i, curDispatch: -1,
			// Warm starting capacities: the logs grow to the run's
			// high-water mark once and are reused from then on.
			dlog:     make([]dispatchStamp, 0, 256),
			resolved: make([]uint64, 0, 256),
			fresh:    make([]freshRef, 0, 64),
		}
		g.shards[i] = s
		g.mail[i] = make([]mailbox, k)
		for j := range g.mail[i] {
			g.mail[i][j].minAt = Never
		}
		g.la[i] = make([]Time, k)
		for j := range g.la[i] {
			g.la[i][j] = lookahead
		}
	}
	for src := range g.refs {
		g.refs[src] = make([]RemoteRef, k)
		for dst := range g.refs[src] {
			g.refs[src][dst] = RemoteRef{from: g.shards[src], box: &g.mail[dst][src], src: src, dst: dst}
		}
	}
	return g
}

// Shards returns the shard count.
func (g *ShardGroup) Shards() int { return len(g.shards) }

// Lookahead returns the group's lookahead floor (the NewShardGroup
// value; individual pairs may be wider).
func (g *ShardGroup) Lookahead() Time { return g.minLa }

// SetLookahead declares that every event from shard src to shard dst is
// delayed at least la (>= the group floor is typical; any positive value
// is accepted and enforced on Send). Wider pair lookaheads let the
// adaptive horizon computation run distant shards further between
// barriers. Must be called before the first RunUntil.
func (g *ShardGroup) SetLookahead(src, dst int, la Time) {
	if g.started {
		panic("sim: SetLookahead after the sharded run started")
	}
	if src == dst {
		panic("sim: SetLookahead within one shard")
	}
	if la <= 0 {
		panic(fmt.Sprintf("sim: lookahead %v must be positive", la))
	}
	g.la[src][dst] = la
	if la < g.minLa {
		g.minLa = la
	}
	g.uniformLa = true
	for i := range g.la {
		for j, v := range g.la[i] {
			if i != j && v != g.minLa {
				g.uniformLa = false
				return
			}
		}
	}
}

// SetParallel is kept for callers that pinned an execution backend.
// Windows always run inline on the coordinator, so false is a no-op;
// true panics, because the parallel worker backend was removed.
func (g *ShardGroup) SetParallel(on bool) {
	if on {
		panic("sim: SetParallel(true): the parallel shard backend was removed; windows always run inline")
	}
}

// EnableBarrierTiming turns on BarrierNs accounting (off by default —
// two clock reads per barrier are measurable at million-barrier scale).
func (g *ShardGroup) EnableBarrierTiming(on bool) { g.timing = on }

// Stats returns the group's execution counters. Call between RunUntil
// invocations or after Close.
func (g *ShardGroup) Stats() ShardStats { return g.stats }

// Shard returns shard i's scheduler. Model components owned by shard i
// schedule their local events through it exactly as in a serial run.
func (g *ShardGroup) Shard(i int) *Scheduler { return g.shards[i] }

// Cross returns the remote reference for events flowing from shard src
// to shard dst (e.g. the forward direction of a cross-shard channel; the
// acknowledge direction uses Cross(dst, src)).
func (g *ShardGroup) Cross(src, dst int) *RemoteRef {
	if src == dst {
		panic("sim: cross-shard reference within one shard")
	}
	return &g.refs[src][dst]
}

// SetReplay registers the barrier-time dispatch observer (see ReplayFunc).
func (g *ShardGroup) SetReplay(fn ReplayFunc) { g.replay = fn }

// Now returns the group's clock: the time below which every event has
// dispatched (deadline once RunUntil returns).
func (g *ShardGroup) Now() Time { return g.now }

// Len returns the number of pending events across all shards and
// mailboxes.
func (g *ShardGroup) Len() int {
	n := 0
	for i, s := range g.shards {
		n += s.Len()
		for j := range g.mail[i] {
			n += g.mail[i][j].q.Len()
		}
	}
	return n
}

// Executed returns the total number of events dispatched so far.
func (g *ShardGroup) Executed() uint64 {
	var n uint64
	for _, s := range g.shards {
		n += s.executed
	}
	return n
}

// Close ends the group: it cannot run again, but its schedulers remain
// readable (diagnostics, collection).
func (g *ShardGroup) Close() { g.closed = true }

// RunUntil dispatches events with timestamps <= deadline across all
// shards in adaptive lookahead windows, then sets every clock to
// deadline — the sharded counterpart of Scheduler.RunUntil.
func (g *ShardGroup) RunUntil(deadline Time) {
	if g.closed {
		panic("sim: RunUntil on a closed ShardGroup")
	}
	g.started = true
	for {
		var t0 time.Time
		if g.timing {
			t0 = time.Now()
		}
		g.stats.Barriers++

		// safeAt: the earliest pending event anywhere — heap heads and
		// queued cross-shard arrivals. Every logged dispatch strictly
		// before it is final and may merge into the global order.
		safeAt := Never
		mailPending := false
		backlog := 0
		for i, s := range g.shards {
			if len(s.heap) > 0 {
				if at := s.slots[s.heap[0]].at; at < safeAt {
					safeAt = at
				}
			}
			backlog += len(s.shard.dlog) - s.shard.merged
			for j := range g.mail[i] {
				box := &g.mail[i][j]
				if box.q.Len() > 0 {
					mailPending = true
					if box.minAt < safeAt {
						safeAt = box.minAt
					}
				}
			}
			g.heldMin[i] = Never
		}
		done := safeAt > deadline
		if done || mailPending || backlog >= flushBacklog {
			g.barrierMerge(safeAt)
		} else if backlog > 0 {
			g.stats.CoalescedReplays++
		}
		if done {
			for _, s := range g.shards {
				if s.now < deadline {
					s.now = deadline
				}
			}
			if g.now < deadline {
				g.now = deadline
			}
			if g.timing {
				g.stats.BarrierNs += time.Since(t0).Nanoseconds()
			}
			return
		}
		if safeAt > g.now {
			g.now = safeAt
		}
		minNext := g.computeHorizons(deadline)

		// classic is the non-adaptive fence minNext+lookahead-1; horizons
		// beyond it are the adaptive extension at work.
		classic := AddSat(minNext, g.minLa) - 1
		active := 0
		for i := range g.shards {
			if g.next[i] <= g.horizon[i] {
				active++
				if g.horizon[i] > classic {
					g.stats.ExtendedWindows++
				}
			} else {
				g.horizon[i] = -1
			}
		}
		g.stats.Windows += uint64(active)
		if g.timing {
			g.stats.BarrierNs += time.Since(t0).Nanoseconds()
		}

		for i, s := range g.shards {
			if h := g.horizon[i]; h >= 0 {
				s.RunUntil(h)
				s.shard.curDispatch = -1
			}
		}
	}
}

// computeHorizons fills g.next (earliest pending per shard, held mail
// included), g.act (the reaction-chain fixpoint), and g.horizon (per-
// shard window end), returning the global minimum next-event time.
//
// act[j] lower-bounds shard j's earliest possible dispatch this round:
// its own queue, or a chain of cross-shard arrivals — an event from
// shard i created at t >= act[i] reaches j no earlier than
// act[i]+la[i][j]. The fixpoint is a shortest-path relaxation over the
// lookahead matrix (<= k-1 rounds; usually 1–2). Shard j may then run
// strictly below every possible arrival, min_{i!=j}(act[i]+la[i][j]),
// clamped to the deadline and below its earliest held (undeliverable)
// mailbox arrival.
func (g *ShardGroup) computeHorizons(deadline Time) Time {
	k := len(g.shards)
	minNext := Never
	for i, s := range g.shards {
		n := Never
		if len(s.heap) > 0 {
			n = s.slots[s.heap[0]].at
		}
		if h := g.heldMin[i]; h < n {
			n = h
		}
		g.next[i] = n
		g.act[i] = n
		if n < minNext {
			minNext = n
		}
	}
	if g.uniformLa {
		// Uniform lookahead collapses the fixpoint: one relaxation from
		// the minimum reaches it — act[i] = min(next[i], minNext+la), so
		// every shard's earliest possible arrival is minNext+la except
		// the argmin shard's, which is min(second, minNext+la)+la. O(k)
		// instead of the O(k^3) worst-case relaxation.
		la := g.minLa
		m2 := Never
		argmin := -1
		for i, n := range g.next {
			if n == minNext && argmin < 0 {
				argmin = i
			} else if n < m2 {
				m2 = n
			}
		}
		fence := AddSat(minNext, la)
		for j := range g.horizon {
			low := minNext
			if j == argmin {
				low = m2
				if fence < low {
					low = fence
				}
			}
			e := AddSat(low, la)
			if e != Never {
				e--
			}
			if e > deadline {
				e = deadline
			}
			if h := g.heldMin[j]; h != Never && e >= h {
				e = h - 1
			}
			g.horizon[j] = e
		}
		return minNext
	}
	for iter := 1; iter < k; iter++ {
		changed := false
		for j := 0; j < k; j++ {
			m := g.act[j]
			row := g.la
			for i := 0; i < k; i++ {
				if i == j {
					continue
				}
				if v := AddSat(g.act[i], row[i][j]); v < m {
					m = v
				}
			}
			if m < g.act[j] {
				g.act[j] = m
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	for j := 0; j < k; j++ {
		e := Never
		for i := 0; i < k; i++ {
			if i == j {
				continue
			}
			if v := AddSat(g.act[i], g.la[i][j]); v < e {
				e = v
			}
		}
		if e != Never {
			e--
		}
		if e > deadline {
			e = deadline
		}
		if h := g.heldMin[j]; h != Never && e >= h {
			e = h - 1
		}
		g.horizon[j] = e
	}
	return minNext
}

// barrierMerge runs one merging barrier: k-way merge every logged
// dispatch strictly below safeAt into the global order (assigning
// ordinals and replaying), resolve provisional references everywhere
// they survive (log tails, pending slots, mailboxes), deliver the
// deliverable mail, and trim the merged prefixes.
func (g *ShardGroup) barrierMerge(safeAt Time) {
	g.mergeTo(safeAt)
	for _, s := range g.shards {
		s.shard.rewriteTail()
		s.resolveFresh()
	}
	g.deliverMail()
	for _, s := range g.shards {
		s.shard.trim()
	}
}

// mergeTo k-way merges the per-shard dispatch logs by (at, seq) — the
// global serial order — up to (excluding) safeAt, assigning dense global
// ordinals and invoking the replay observer. The inner loop stays on the
// winning shard while its next head still precedes the runner-up,
// exploiting the temporal locality of handshake chains (one compare per
// dispatch instead of a k-wide scan).
func (g *ShardGroup) mergeTo(safeAt Time) {
	for _, s := range g.shards {
		s.shard.loadHead()
	}
	rp := g.replay
	ord := g.nextOrd
	for {
		best, second := -1, -1
		var bAt, sAt Time
		var bSeq, sSeq uint64
		for i, s := range g.shards {
			sh := s.shard
			if sh.merged >= len(sh.dlog) {
				continue
			}
			if best < 0 || sh.headAt < bAt || (sh.headAt == bAt && sh.headSeq < bSeq) {
				second, sAt, sSeq = best, bAt, bSeq
				best, bAt, bSeq = i, sh.headAt, sh.headSeq
			} else if second < 0 || sh.headAt < sAt || (sh.headAt == sAt && sh.headSeq < sSeq) {
				second, sAt, sSeq = i, sh.headAt, sh.headSeq
			}
		}
		if best < 0 || bAt >= safeAt {
			break
		}
		// Consume from the winner while its next head still precedes the
		// cached runner-up — handshake chains are temporally local, so
		// this usually merges a run of dispatches per scan. All hot state
		// lives in locals; the shard fields sync at the run's end.
		sh := g.shards[best].shard
		dlog := sh.dlog
		res := sh.resolved
		merged := sh.merged
		base := sh.dlogStart
		hAt, hSeq := sh.headAt, sh.headSeq
		for {
			if ord >= provBase {
				panic("sim: dispatch ordinal overflow")
			}
			res = append(res, ord)
			ord++
			if rp != nil {
				rp(best, int(base)+merged)
			}
			merged++
			if merged >= len(dlog) {
				break
			}
			r := dlog[merged]
			if c := r.seq >> childBits; c >= provBase {
				r.seq = res[c-provBase-base]<<childBits | r.seq&childMask
			}
			hAt, hSeq = r.at, r.seq
			if hAt >= safeAt {
				break
			}
			if second >= 0 && (hAt > sAt || (hAt == sAt && hSeq > sSeq)) {
				break
			}
		}
		g.stats.MergedDispatches += uint64(merged - sh.merged)
		sh.resolved = res
		sh.merged = merged
		sh.headAt, sh.headSeq = hAt, hSeq
	}
	g.nextOrd = ord
}

// resolveFresh rewrites pending provisional sequences whose creators
// merged this barrier to their resolved ordinals, keeping the rest for a
// later barrier. Resolution only decreases keys (provBase exceeds every
// resolved ordinal), so each rewrite is a single decrease-key siftUp.
func (s *Scheduler) resolveFresh() {
	sh := s.shard
	keep := sh.fresh[:0]
	for _, fr := range sh.fresh {
		sl := &s.slots[fr.idx]
		if sl.gen != fr.gen || sl.heapIdx < 0 {
			continue // dispatched or canceled
		}
		c := sl.seq >> childBits
		if c < provBase {
			continue
		}
		local := c - provBase - sh.dlogStart
		if local >= uint64(sh.merged) {
			keep = append(keep, fr)
			continue
		}
		sl.seq = sh.resolved[local]<<childBits | sl.seq&childMask
		s.siftUp(int(sl.heapIdx))
	}
	sh.fresh = keep
}

// deliverMail moves resolvable cross-shard events into their destination
// queues. Entries whose creators have not merged are held (their creator
// positions are nondecreasing within a box, so holding is always a
// prefix/suffix split at the front) and cap the destination's horizon
// via heldMin.
func (g *ShardGroup) deliverMail() {
	for dst := range g.mail {
		row := g.mail[dst]
		held := Never
		for src := range row {
			box := &row[src]
			if box.q.Len() == 0 {
				continue
			}
			sh := g.shards[src].shard
			for box.q.Len() > 0 {
				e := box.q.At(0)
				seq, ok := sh.resolveSeq(e.seq)
				if !ok {
					break
				}
				g.shards[dst].insertAt(e.at, seq, e.h, e.arg)
				box.q.Pop()
				g.stats.MailboxEvents++
			}
			if box.q.Len() == 0 {
				box.minAt = Never
				continue
			}
			g.stats.HeldMail += uint64(box.q.Len())
			m := Never
			for i := 0; i < box.q.Len(); i++ {
				if at := box.q.At(i).at; at < m {
					m = at
				}
			}
			box.minAt = m
			if m < held {
				held = m
			}
		}
		g.heldMin[dst] = held
	}
}

// insertAt enqueues a pre-stamped event (cross-shard arrival): identical
// to At except the sequence is supplied by the origin shard, preserving
// global creation order.
func (s *Scheduler) insertAt(at Time, seq uint64, h Handler, arg int64) {
	if at < s.now {
		panic(fmt.Sprintf("sim: cross-shard arrival at %v before now %v", at, s.now))
	}
	var idx int32
	if n := len(s.free); n > 0 {
		idx = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		s.slots = append(s.slots, slot{gen: 1})
		idx = int32(len(s.slots) - 1)
	}
	sl := &s.slots[idx]
	sl.at, sl.seq, sl.h, sl.arg = at, seq, h, arg
	sl.heapIdx = int32(len(s.heap))
	s.heap = append(s.heap, idx)
	s.siftUp(len(s.heap) - 1)
}

// DispatchIndex returns the absolute per-shard index of the dispatch
// currently executing on this shard (-1 outside a dispatch). The network
// layer tags deferred side effects with it so the barrier replay can
// interleave them in merged order.
func (s *Scheduler) DispatchIndex() int {
	sh := s.shard
	if sh == nil || sh.curDispatch < 0 {
		return -1
	}
	return int(sh.dlogStart) + sh.curDispatch
}

// Sharded reports whether this scheduler is a ShardGroup member.
func (s *Scheduler) Sharded() bool { return s.shard != nil }
