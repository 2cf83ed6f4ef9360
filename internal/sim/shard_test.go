package sim

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// The sharded-execution property: for any model whose cross-shard events
// respect the lookahead, the ShardGroup dispatches the exact serial event
// sequence, and its barrier replay visits every dispatch in that order.
//
// The synthetic model below is a random handler graph: every dispatch
// draws from a per-node deterministic RNG to create 0–2 child events —
// local ones with arbitrary (including zero) delay, cross-shard ones at
// lookahead or more — and occasionally cancels its previous child.
// Because the RNG advances per dispatch, any divergence in dispatch order
// cascades into a completely different event pattern, so equality of the
// logs is a strong check of the ordering machinery.

const testLookahead = Time(50)

// pairLookahead is the non-uniform lookahead floor between shard regions
// a and b used by the pairwise variant: every pair at or above the
// group's base lookahead, most pairs strictly above it. Deterministic in
// (a, b) so the serial reference applies the identical delay floor.
func pairLookahead(a, b int) Time {
	return testLookahead + Time((a*7+b*13)%4)*25
}

// xorshift is a tiny deterministic PRNG so the test does not depend on
// other packages.
type xorshift uint64

func (x *xorshift) next() uint64 {
	v := uint64(*x)
	v ^= v << 13
	v ^= v >> 7
	v ^= v << 17
	*x = xorshift(v)
	return v
}

// dispatchLogEntry records one observed dispatch.
type dispatchLogEntry struct {
	node int
	arg  int64
	at   Time
	dIdx int // window-local dispatch index (sharded mode; -1 serial)
}

// tmodel is the shared harness driving the same logical model in serial
// or sharded mode.
type tmodel struct {
	nodes   []*tnode
	shardOf []int
	pairs   bool // non-uniform per-pair lookahead floors
	// span widens every cross floor by a wheel span and sends a quarter
	// of the local events one to three spans ahead, so mailbox arrivals
	// and resolved provisional events land in wheel buckets and on the
	// far heap alike.
	span bool
	// serial mode: sched set, group nil. Sharded: group set.
	sched *Scheduler
	group *ShardGroup
	cross [][]*RemoteRef // [fromShard][toShard]
	logs  [][]dispatchLogEntry
}

// crossFloor returns the delay floor for a send between two shard
// regions (identical in serial and sharded mode by construction).
func (m *tmodel) crossFloor(a, b int) Time {
	f := testLookahead
	if m.pairs {
		f = pairLookahead(a, b)
	}
	if m.span {
		f += wheelSize
	}
	return f
}

type tnode struct {
	m      *tmodel
	id     int
	r      xorshift
	budget int
	lastID EventID
	lastOK bool
}

func (n *tnode) sched() *Scheduler {
	if n.m.group != nil {
		return n.m.group.Shard(n.m.shardOf[n.id])
	}
	return n.m.sched
}

func (n *tnode) OnEvent(arg int64) {
	m := n.m
	s := n.sched()
	shard := 0
	dIdx := -1
	if m.group != nil {
		shard = m.shardOf[n.id]
		dIdx = s.DispatchIndex()
	}
	m.logs[shard] = append(m.logs[shard], dispatchLogEntry{node: n.id, arg: arg, at: s.Now(), dIdx: dIdx})

	if n.budget <= 0 {
		return
	}
	children := int(n.r.next() % 3)
	for c := 0; c < children && n.budget > 0; c++ {
		n.budget--
		target := m.nodes[n.r.next()%uint64(len(m.nodes))]
		delay := Time(n.r.next() % 40)
		crossShard := m.shardOf[target.id] != m.shardOf[n.id]
		if crossShard {
			delay += m.crossFloor(m.shardOf[n.id], m.shardOf[target.id])
		} else if m.span && n.r.next()%4 == 0 {
			delay += Time(1+n.r.next()%3) * wheelSize
		}
		childArg := int64(n.r.next() % 1000)
		if m.group != nil && crossShard {
			m.cross[m.shardOf[n.id]][m.shardOf[target.id]].Send(delay, target, childArg)
			n.lastOK = false
		} else if crossShard {
			// Serial mode still applies the lookahead floor (done above)
			// so the two modes schedule identical times.
			m.sched.In(delay, target, childArg)
			n.lastOK = false
		} else {
			n.lastID = s.In(delay, target, childArg)
			n.lastOK = true
		}
	}
	if n.lastOK && n.r.next()%8 == 0 {
		n.sched().Cancel(n.lastID)
		n.lastOK = false
	}
}

// buildModel wires nNodes across k shards and arms one genesis event per
// node. The k-way partition shapes the model (cross-partition sends get
// the lookahead delay floor) in both modes; `sharded` selects whether a
// ShardGroup or one serial scheduler executes it, so the two modes run
// the identical logical model. With `pairs` the cross floors are the
// non-uniform pairLookahead matrix, registered on the group via
// SetLookahead, so the adaptive horizon computation takes its general
// fixpoint path instead of the uniform fast path. With `span` the model
// schedules across the wheel span (see tmodel.span).
func buildModel(seed uint64, nNodes, k, budget int, sharded, pairs, span bool) *tmodel {
	m := &tmodel{shardOf: make([]int, nNodes), pairs: pairs, span: span}
	shards := k
	if !sharded {
		shards = 1
		m.sched = NewScheduler()
	} else {
		floor := testLookahead
		if span {
			floor += wheelSize
		}
		m.group = NewShardGroup(k, floor)
		m.cross = make([][]*RemoteRef, k)
		for i := 0; i < k; i++ {
			m.cross[i] = make([]*RemoteRef, k)
			for j := 0; j < k; j++ {
				if i != j {
					m.cross[i][j] = m.group.Cross(i, j)
					if pairs {
						m.group.SetLookahead(i, j, m.crossFloor(i, j))
					}
				}
			}
		}
	}
	m.logs = make([][]dispatchLogEntry, shards)
	for i := 0; i < nNodes; i++ {
		m.shardOf[i] = i * k / nNodes
		n := &tnode{m: m, id: i, r: xorshift(seed*1000003 + uint64(i)*7919 + 1), budget: budget}
		m.nodes = append(m.nodes, n)
	}
	for i, n := range m.nodes {
		n.sched().In(Time(1+i*3), n, int64(i))
	}
	return m
}

// run drives the model to quiescence in `chunks` RunUntil calls.
func (m *tmodel) run(deadline Time, chunks int) {
	step := deadline / Time(chunks)
	for t := step; ; t += step {
		if t > deadline {
			t = deadline
		}
		if m.group != nil {
			m.group.RunUntil(t)
		} else {
			m.sched.RunUntil(t)
		}
		if t >= deadline {
			return
		}
	}
}

// shardedMismatch runs a freshly built sharded model and returns how its
// dispatches, replay order, clock or stats differ from the serial
// reference want, or "" if they match. It reports instead of failing so
// it can run off the test goroutine.
func shardedMismatch(seed uint64, k int, pairs, span bool, deadline Time, chunks int, want []dispatchLogEntry) string {
	m := buildModel(seed, 9, k, 40, true, pairs, span)
	defer m.group.Close()

	// Reconstruct the global order from the replay callback.
	var merged []dispatchLogEntry
	var bad string
	rcur := make([]int, k)
	m.group.SetReplay(func(shard, dIdx int) {
		if bad != "" {
			return
		}
		if rcur[shard] >= len(m.logs[shard]) {
			bad = fmt.Sprintf("replay(%d, %d): shard logged only %d dispatches", shard, dIdx, len(m.logs[shard]))
			return
		}
		e := m.logs[shard][rcur[shard]]
		if e.dIdx != dIdx {
			bad = fmt.Sprintf("replay(%d, %d): log cursor holds dIdx %d", shard, dIdx, e.dIdx)
			return
		}
		rcur[shard]++
		merged = append(merged, e)
	})
	m.run(deadline, chunks)
	if bad != "" {
		return bad
	}

	if got, want := m.group.Executed(), uint64(len(want)); got != want {
		return fmt.Sprintf("executed %d events, serial executed %d", got, want)
	}
	total := 0
	for s := range m.logs {
		total += len(m.logs[s])
		if rcur[s] != len(m.logs[s]) {
			return fmt.Sprintf("shard %d: replay visited %d of %d dispatches", s, rcur[s], len(m.logs[s]))
		}
	}
	if total != len(want) {
		return fmt.Sprintf("sharded dispatched %d events, serial %d", total, len(want))
	}
	for i := range merged {
		g, w := merged[i], want[i]
		if g.node != w.node || g.arg != w.arg || g.at != w.at {
			return fmt.Sprintf("dispatch %d: sharded (node=%d arg=%d at=%v), serial (node=%d arg=%d at=%v)",
				i, g.node, g.arg, g.at, w.node, w.arg, w.at)
		}
	}
	if m.group.Now() != deadline {
		return fmt.Sprintf("group clock %v, want %v", m.group.Now(), deadline)
	}
	st := m.group.Stats()
	if st.Barriers == 0 || st.Windows == 0 {
		return fmt.Sprintf("stats recorded no barriers/windows: %+v", st)
	}
	if st.MergedDispatches != uint64(len(want)) {
		return fmt.Sprintf("stats merged %d dispatches, serial executed %d", st.MergedDispatches, len(want))
	}
	return ""
}

// With par=false the sharded model runs on the test goroutine. With
// par=true two copies run at once on their own goroutines, the way the
// engine runs independent sharded simulations side by side: groups
// share no state but the process-wide totals, so each copy must still
// dispatch the exact serial sequence (`make race` runs this too).
func TestShardedMatchesSerial(t *testing.T) {
	const deadline = Time(1_000_000)
	for _, seed := range []uint64{1, 2, 3, 17, 99} {
		for _, k := range []int{1, 2, 3, 4, 8} {
			for _, pairs := range []bool{false, true} {
				if pairs && k == 1 {
					continue // no cross edges, identical to uniform
				}
				serial := buildModel(seed, 9, k, 40, false, pairs, false)
				serial.run(deadline, 1)
				want := serial.logs[0]
				if len(want) == 0 {
					t.Fatalf("seed %d: serial model dispatched nothing", seed)
				}
				for _, chunks := range []int{1, 3} {
					for _, par := range []bool{false, true} {
						if par && k == 1 {
							continue // a one-shard group has no cross-shard traffic
						}
						name := fmt.Sprintf("seed=%d/shards=%d/chunks=%d/pairs=%v/par=%v",
							seed, k, chunks, pairs, par)
						t.Run(name, func(t *testing.T) {
							if !par {
								if bad := shardedMismatch(seed, k, pairs, false, deadline, chunks, want); bad != "" {
									t.Fatal(bad)
								}
								return
							}
							var wg sync.WaitGroup
							bad := make([]string, 2)
							for i := range bad {
								wg.Add(1)
								go func() {
									defer wg.Done()
									bad[i] = shardedMismatch(seed, k, pairs, false, deadline, chunks, want)
								}()
							}
							wg.Wait()
							for i, b := range bad {
								if b != "" {
									t.Errorf("copy %d: %s", i, b)
								}
							}
						})
					}
				}
			}
		}
	}
}

// The sharded-equals-serial property across the timing wheel's span:
// every cross-shard lookahead exceeds wheelSize and a quarter of the
// local events go one to three spans ahead, so barrier deliveries
// (insertAt) and provisional-sequence rewrites (resolveFresh) hit both
// wheel buckets and the far heap, and each shard's clock jumps and
// migrates far events at window ends.
func TestShardedMatchesSerialAcrossWheelSpan(t *testing.T) {
	const deadline = Time(20_000_000)
	for _, seed := range []uint64{1, 2, 3, 17, 99} {
		for _, k := range []int{2, 3, 4, 8} {
			for _, pairs := range []bool{false, true} {
				serial := buildModel(seed, 9, k, 40, false, pairs, true)
				serial.run(deadline, 1)
				want := serial.logs[0]
				if len(want) == 0 || serial.sched.Len() != 0 {
					t.Fatalf("seed %d: serial model dispatched %d events and left %d pending",
						seed, len(want), serial.sched.Len())
				}
				for _, chunks := range []int{1, 3, 40} {
					name := fmt.Sprintf("seed=%d/shards=%d/chunks=%d/pairs=%v", seed, k, chunks, pairs)
					t.Run(name, func(t *testing.T) {
						if bad := shardedMismatch(seed, k, pairs, true, deadline, chunks, want); bad != "" {
							t.Fatal(bad)
						}
					})
				}
			}
		}
	}
}

func TestShardGroupIdle(t *testing.T) {
	g := NewShardGroup(3, 10)
	defer g.Close()
	g.RunUntil(500)
	if g.Now() != 500 {
		t.Fatalf("idle group clock %v, want 500", g.Now())
	}
	for i := 0; i < 3; i++ {
		if got := g.Shard(i).Now(); got != 500 {
			t.Fatalf("shard %d clock %v, want 500", i, got)
		}
	}
	if g.Len() != 0 || g.Executed() != 0 {
		t.Fatalf("idle group: Len=%d Executed=%d", g.Len(), g.Executed())
	}
}

// TestLastAtShardedFalse pins LastAt to false on a shard's scheduler,
// even for the only event at its time: a mailbox arrival is inserted by
// sequence and can land behind it.
func TestLastAtShardedFalse(t *testing.T) {
	g := NewShardGroup(2, testLookahead)
	defer g.Close()
	s := g.Shard(0)
	var nop nopHandler
	id := s.In(5, &nop, 0)
	if !s.Pending(id) {
		t.Fatal("event not pending")
	}
	if s.LastAt(id, 5) {
		t.Error("LastAt on a sharded scheduler returned true")
	}
	serial := NewScheduler()
	if sid := serial.In(5, &nop, 0); !serial.LastAt(sid, 5) {
		t.Error("LastAt on the same serial schedule returned false")
	}
}

func TestCrossShardLookaheadViolationPanics(t *testing.T) {
	g := NewShardGroup(2, 50)
	defer g.Close()
	ref := g.Cross(0, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("cross-shard send below lookahead did not panic")
		}
	}()
	ref.Send(49, &funcEvent{fn: func() {}}, 0)
}

// relay passes a token round-robin through every shard at exactly the
// lookahead, so each barrier round has one busy shard and k-1 idle ones.
type relay struct {
	refs  []*RemoteRef // refs[i]: shard i -> shard i+1 (mod k)
	hops  atomic.Int64 // read by the test's hang watchdog mid-run
	limit int64
}

func (r *relay) OnEvent(arg int64) {
	if r.hops.Add(1) < r.limit {
		r.refs[arg].Send(testLookahead, r, (arg+1)%int64(len(r.refs)))
	}
}

// The window barrier under many near-empty rounds, with several groups
// running at once on their own goroutines. Every round but one per
// window has idle shards; each round must still advance the clock by
// exactly one window, deliver the token once and end. The watchdog
// fails the test once the relays stop making progress, so a slow run
// (the race detector) passes and a hang fails.
func TestParallelBarrierManyEmptyRounds(t *testing.T) {
	const groups, k, hops = 4, 4, 200000
	relays := make([]*relay, groups)
	done := make(chan struct{}, groups)
	for i := range relays {
		g := NewShardGroup(k, testLookahead)
		r := &relay{refs: make([]*RemoteRef, k), limit: hops}
		for j := range r.refs {
			r.refs[j] = g.Cross(j, (j+1)%k)
		}
		g.Shard(0).In(1, r, 0)
		relays[i] = r
		go func() {
			defer func() { done <- struct{}{} }()
			g.RunUntil(Time(hops+1) * testLookahead)
			g.Close()
		}()
	}
	progress := func() (n int64) {
		for _, r := range relays {
			n += r.hops.Load()
		}
		return n
	}
	tick := time.NewTicker(10 * time.Second)
	defer tick.Stop()
	last := int64(-1)
	for finished := 0; finished < groups; {
		select {
		case <-done:
			finished++
		case <-tick.C:
			n := progress()
			if n == last {
				t.Fatalf("shard groups hung at %d of %d relay hops", n, groups*hops)
			}
			last = n
		}
	}
	for i, r := range relays {
		if n := r.hops.Load(); n != hops {
			t.Errorf("group %d: relay made %d hops, want %d", i, n, hops)
		}
	}
}

// The parallel backend is gone: SetParallel(false) is a no-op, before
// and after the run starts, and SetParallel(true) panics instead of
// being silently ignored.
func TestSetParallel(t *testing.T) {
	g := NewShardGroup(2, testLookahead)
	defer g.Close()
	g.SetParallel(false)
	g.RunUntil(100)
	g.SetParallel(false)
	defer func() {
		if recover() == nil {
			t.Fatal("SetParallel(true) did not panic")
		}
	}()
	g.SetParallel(true)
}
