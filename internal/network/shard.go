// Sharded execution of one chiplet composition (see sim.ShardGroup for
// the kernel-level protocol). Whole dies are assigned to K contiguous
// regions; region i's dies (their trees, sources, sinks and egress
// gateways) run on shard i's scheduler. Every channel joins two nodes of
// one die, so it stays on its die's scheduler; the only events between
// regions are die-to-die flights, which cross through the group's
// mailboxes (sim.ShardGroup.Cross).
//
// Determinism: the sim layer reproduces the serial dispatch order
// exactly, but side effects inside a dispatch — floating-point energy
// accumulation, latency recording, trace emission, packet-pool releases,
// packet ID assignment — are order-sensitive across shards. Each shard
// therefore defers them into its accounting context's effect log during
// the window, and the group's barrier replay applies them in merged
// serial order on the coordinating goroutine. Run results, golden
// tables, and JSONL traces are byte-identical to a serial run.
//
// Packet refcounts are the one effect applied eagerly on the owning
// shard: every increment of a packet's Refs happens on the shard of its
// source tree (materialization and fanout replication both occur inside
// tree Src), while the decrements replay at the barrier. Increments are
// caused by live copies, so the count never reaches zero before its
// final serial release; applying the window's increments before its
// replayed decrements therefore preserves exactly the serial
// zero-crossing, and with it the pool-recycling instant.
package network

import (
	"fmt"

	"asyncnoc/internal/packet"
	"asyncnoc/internal/power"
	"asyncnoc/internal/routing"
	"asyncnoc/internal/sim"
)

// effKind tags one deferred side effect.
type effKind uint8

const (
	effMeterForward effKind = iota
	effMeterAbsorb
	effMeterChannel
	effMeterInterface
	effMeterD2D
	effRecForwarded
	effRecThrottled
	effRecDelivered
	effRecCreated
	effRecHeader
	effTrace
	effRelease
	effAssignID
)

// effect is one deferred side effect, tagged with the window-local
// dispatch that produced it so the barrier replay can interleave the
// shards' logs in merged serial order.
type effect struct {
	dIdx int
	kind effKind
	at   sim.Time
	n    int32 // ports (meter forward), level (rec counters), dest (header)
	area float64
	pkt  *packet.Packet
	ev   TraceEvent
}

// shardRT is one shard's execution runtime: its accounting context plus
// the effect log the barrier replay consumes. The shard's window appends
// to the log and the barrier replay drains it.
type shardRT struct {
	ctx     actx
	effects []effect
	cursor  int
}

// actx is the accounting context through which the model reports its
// side effects. A serial network has exactly one (Network.acct), whose
// methods apply effects directly — the pre-sharding hot path with one
// predictable nil check added. A sharded network has one per shard
// (rt non-nil), deferring every effect into the shard's log.
type actx struct {
	nw    *Network
	sched *sim.Scheduler
	rt    *shardRT // nil on the serial context

	// planBuf/emitPlan are the reusable plan-collection plumbing of
	// Inject, per context so concurrent shard injections never share a
	// buffer.
	planBuf  []routing.Plan
	emitPlan func(routing.Plan)

	// pktFree is this context's packet freelist. Allocation happens on
	// the owning shard during its window; releases replay on the
	// coordinator at the barrier and route back to the freelist of the
	// packet's source tree — the same context that allocates it.
	pktFree []*packet.Packet
}

// init wires the context's self-referential plan collector.
func (a *actx) init(nw *Network, sched *sim.Scheduler, rt *shardRT) {
	a.nw, a.sched, a.rt = nw, sched, rt
	a.emitPlan = func(p routing.Plan) { a.planBuf = append(a.planBuf, p) }
}

// allocPacket takes a packet from the context's freelist (or the heap
// when the list is dry) with every field zeroed.
func (a *actx) allocPacket() *packet.Packet {
	if n := len(a.pktFree); n > 0 {
		p := a.pktFree[n-1]
		a.pktFree = a.pktFree[:n-1]
		*p = packet.Packet{}
		return p
	}
	return &packet.Packet{}
}

// push appends one deferred effect to the shard's log.
func (a *actx) push(e effect) {
	rt := a.rt
	if rt.cursor > 0 {
		if rt.cursor == len(rt.effects) {
			// The log was fully replayed; recycle it.
			rt.effects = rt.effects[:0]
			rt.cursor = 0
		} else if rt.cursor >= 256 && rt.cursor*2 >= len(rt.effects) {
			// Coalesced barriers replay the log in partial stretches, so
			// it may never drain completely — compact the consumed prefix
			// once it dominates, keeping the log bounded by the group's
			// replay backlog instead of growing for the whole run.
			n := copy(rt.effects, rt.effects[rt.cursor:])
			rt.effects = rt.effects[:n]
			rt.cursor = 0
		}
	}
	e.dIdx = a.sched.DispatchIndex()
	if e.dIdx < 0 {
		panic("network: sharded side effect outside a dispatch")
	}
	rt.effects = append(rt.effects, e)
}

func (a *actx) meterForward(area float64, ports int) {
	if a.rt == nil {
		a.nw.Meter.NodeForward(area, ports)
		return
	}
	a.push(effect{kind: effMeterForward, at: a.sched.Now(), n: int32(ports), area: area})
}

func (a *actx) meterAbsorb(area float64) {
	if a.rt == nil {
		a.nw.Meter.NodeAbsorb(area)
		return
	}
	a.push(effect{kind: effMeterAbsorb, at: a.sched.Now(), area: area})
}

func (a *actx) meterChannel() {
	if a.rt == nil {
		a.nw.Meter.Channel()
		return
	}
	a.push(effect{kind: effMeterChannel, at: a.sched.Now()})
}

func (a *actx) meterInterface() {
	if a.rt == nil {
		a.nw.Meter.Interface()
		return
	}
	a.push(effect{kind: effMeterInterface, at: a.sched.Now()})
}

// meterD2D charges one die-to-die link departure: flitHops flit-hop
// crossings costing pj picojoules (area carries the energy, n the hop
// count — the effect struct's spare fields).
func (a *actx) meterD2D(flitHops int, pj float64) {
	if a.rt == nil {
		a.nw.Meter.D2D(flitHops, pj)
		return
	}
	a.push(effect{kind: effMeterD2D, at: a.sched.Now(), n: int32(flitHops), area: pj})
}

func (a *actx) recForwarded(level int, at sim.Time) {
	if a.rt == nil {
		a.nw.Rec.FanoutForwarded(level, at)
		return
	}
	a.push(effect{kind: effRecForwarded, at: at, n: int32(level)})
}

func (a *actx) recThrottled(level int, at sim.Time) {
	if a.rt == nil {
		a.nw.Rec.FanoutThrottled(level, at)
		return
	}
	a.push(effect{kind: effRecThrottled, at: at, n: int32(level)})
}

func (a *actx) recDelivered(at sim.Time, d2d bool) {
	if a.rt == nil {
		a.nw.Rec.FlitDelivered(at, d2d)
		return
	}
	var n int32
	if d2d {
		n = 1
	}
	a.push(effect{kind: effRecDelivered, at: at, n: n})
}

func (a *actx) recCreated(p *packet.Packet, at sim.Time) {
	if a.rt == nil {
		a.nw.Rec.PacketCreated(p, at)
		return
	}
	a.push(effect{kind: effRecCreated, at: at, pkt: p})
}

func (a *actx) recHeader(p *packet.Packet, dest int, at sim.Time) {
	if a.rt == nil {
		a.nw.Rec.HeaderArrived(p, dest, at)
		return
	}
	a.push(effect{kind: effRecHeader, at: at, n: int32(dest), pkt: p})
}

// trace defers one trace event; callers gate on nw.Trace != nil so the
// serial hot path never builds the event value needlessly.
func (a *actx) trace(ev TraceEvent) {
	if a.rt == nil {
		a.nw.Trace(ev)
		return
	}
	a.push(effect{kind: effTrace, ev: ev})
}

// release retires one live copy of p (see Network.releaseCopy). Deferring
// it keeps the pool-recycling instant — and therefore every subsequent
// allocation — in exact serial order, and guarantees no packet is
// recycled while a deferred effect of the same window still reads it.
func (a *actx) release(p *packet.Packet) {
	if a.rt == nil {
		a.nw.releaseCopy(p)
		return
	}
	a.push(effect{kind: effRelease, pkt: p})
}

// assignID stamps the packet with the next global packet ID. Sharded
// runs defer the assignment so IDs count up in merged serial injection
// order; nothing on the window-time path reads the ID (the fault layer
// does, and it is single-die only).
func (a *actx) assignID(p *packet.Packet) {
	if a.rt == nil {
		a.nw.nextID++
		p.ID = a.nw.nextID
		return
	}
	a.push(effect{kind: effAssignID, pkt: p})
}

// freePackets concatenates every context's packet freelist (serial
// networks have one, sharded networks one per shard) — conservation
// tests and diagnostics.
func (nw *Network) freePackets() []*packet.Packet {
	if nw.shardOf == nil {
		return nw.acct.pktFree
	}
	var out []*packet.Packet
	for _, rt := range nw.rts {
		out = append(out, rt.ctx.pktFree...)
	}
	return out
}

// actxFor returns the accounting context owning tree t.
func (nw *Network) actxFor(t int) *actx {
	if nw.shardOf == nil {
		return &nw.acct
	}
	return &nw.rts[nw.shardOf[t/nw.Spec.N]].ctx
}

// Group returns the shard group driving this network, or nil when it is
// serial. Callers drive sharded networks with Group().RunUntil and must
// Close the group when done.
func (nw *Network) Group() *sim.ShardGroup { return nw.group }

// SchedFor returns the scheduler driving tree t's components: the
// network's only scheduler when serial, tree t's shard otherwise.
// Injection processes for source t must arm themselves here.
func (nw *Network) SchedFor(t int) *sim.Scheduler { return nw.actxFor(t).sched }

// applyDispatch is the group's sim.ReplayFunc: it applies the identified
// dispatch's deferred effects in their original program order. The merge
// calls it in global serial dispatch order, so the concatenation of all
// applications is exactly the serial side-effect sequence.
func (nw *Network) applyDispatch(shard, dIdx int) {
	rt := nw.rts[shard]
	for rt.cursor < len(rt.effects) {
		e := &rt.effects[rt.cursor]
		if e.dIdx != dIdx {
			if e.dIdx < dIdx {
				panic("network: sharded effect log out of step with replay")
			}
			break
		}
		rt.cursor++
		nw.applyEffect(e)
	}
}

func (nw *Network) applyEffect(e *effect) {
	switch e.kind {
	case effMeterForward:
		nw.replayAt = e.at
		nw.Meter.NodeForward(e.area, int(e.n))
	case effMeterAbsorb:
		nw.replayAt = e.at
		nw.Meter.NodeAbsorb(e.area)
	case effMeterChannel:
		nw.replayAt = e.at
		nw.Meter.Channel()
	case effMeterInterface:
		nw.replayAt = e.at
		nw.Meter.Interface()
	case effMeterD2D:
		nw.replayAt = e.at
		nw.Meter.D2D(int(e.n), e.area)
	case effRecForwarded:
		nw.Rec.FanoutForwarded(int(e.n), e.at)
	case effRecThrottled:
		nw.Rec.FanoutThrottled(int(e.n), e.at)
	case effRecDelivered:
		nw.Rec.FlitDelivered(e.at, e.n != 0)
	case effRecCreated:
		nw.Rec.PacketCreated(e.pkt, e.at)
	case effRecHeader:
		nw.Rec.HeaderArrived(e.pkt, int(e.n), e.at)
	case effTrace:
		nw.Trace(e.ev)
	case effRelease:
		nw.releaseCopy(e.pkt)
	case effAssignID:
		nw.nextID++
		e.pkt.ID = nw.nextID
	}
}

// NewSharded builds a chiplet composition partitioned into k regions,
// each driven by its own scheduler shard under conservative lookahead.
// Whole dies are assigned contiguously, die d to region d*k/Dies, so
// every channel stays inside its region and the only cross-region events
// are die-to-die flights: the lookahead is the D2D hop time. Requires a
// chiplet composition and 2 <= k <= spec.Dies(); internal/core clamps k
// to Dies() and rejects Shards > 1 on a single die with a *ConfigError.
// Compositions never enable the fault layer (Spec.Validate).
//
// Drive the result with Group().RunUntil — Sched is nil — and Close the
// group when done. Results, goldens, and traces are byte-identical to
// New(spec) driven to the same deadline.
func NewSharded(spec Spec, k int) (*Network, error) {
	cp := spec.Chiplet
	if cp == nil {
		return nil, fmt.Errorf("network %s: sharded execution needs a chiplet composition", spec.Name)
	}
	dies := spec.Dies()
	if k < 2 || k > dies {
		return nil, fmt.Errorf("network %s: shard count %d outside [2, %d]", spec.Name, k, dies)
	}
	nw := new(Network)
	if err := nw.base(spec); err != nil {
		return nil, err
	}
	group := sim.NewShardGroup(k, cp.HopPs)
	nw.group = group
	nw.Meter = power.NewMeter(func() sim.Time { return nw.replayAt })
	nw.shardOf = make([]int, dies)
	for d := range nw.shardOf {
		nw.shardOf[d] = d * k / dies
	}
	// Widen the pair lookaheads to the interposer distance: every event
	// between shard regions a and b is a D2D flight of at least
	// minHops(a,b) hops, so the adaptive horizon computation can run
	// distant regions minHops*HopPs apart between barriers.
	minHops := make([]sim.Time, k*k)
	for d1 := 0; d1 < dies; d1++ {
		r1 := nw.shardOf[d1]
		for d2 := 0; d2 < dies; d2++ {
			r2 := nw.shardOf[d2]
			if r1 == r2 {
				continue
			}
			h := sim.Time(cp.Hops(d1, d2))
			if cur := minHops[r1*k+r2]; cur == 0 || h < cur {
				minHops[r1*k+r2] = h
			}
		}
	}
	for a := 0; a < k; a++ {
		for b := 0; b < k; b++ {
			if h := minHops[a*k+b]; h > 1 {
				group.SetLookahead(a, b, h*cp.HopPs)
			}
		}
	}
	nw.rts = make([]*shardRT, k)
	for i := range nw.rts {
		rt := &shardRT{}
		rt.ctx.init(nw, group.Shard(i), rt)
		rt.effects = make([]effect, 0, 1024)
		nw.rts[i] = rt
	}
	nw.build()
	group.SetReplay(nw.applyDispatch)
	nw.applySyncBackground()
	return nw, nil
}

// Ensure the replay signature stays in sync with the kernel's contract.
var _ sim.ReplayFunc = (*Network)(nil).applyDispatch
