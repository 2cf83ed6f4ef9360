// Package metrics implements the measurement methodology of Section 5.1:
// long warmup and measurement phases, per-packet network latency measured
// from injection up to the arrival of ALL headers at their destinations,
// and accepted throughput counted as flit deliveries at the destination
// interfaces.
package metrics

import (
	"math"
	"slices"

	"asyncnoc/internal/fault"
	"asyncnoc/internal/packet"
	"asyncnoc/internal/pool"
	"asyncnoc/internal/sim"
	"asyncnoc/internal/stats"
)

// pktStat tracks one logical packet's delivery progress. It is pure value
// state — it holds no reference to the packet itself, so delivery tracking
// never keeps a pooled packet alive or reads one after it recycles.
type pktStat struct {
	arrived packet.DestSet
	// created is the creation time of a packet injected inside the
	// measurement window, and unmeasured for every other packet.
	created sim.Time
}

// unmeasured marks a tracked packet created outside the window.
const unmeasured sim.Time = -1

func (st *pktStat) measured() bool { return st.created != unmeasured }

// Recorder accumulates the measurements of one simulation run.
//
// Only packets created inside the measurement window [WindowStart,
// WindowEnd) contribute latency samples and completion accounting; flit
// deliveries are likewise counted only when they land inside the window.
type Recorder struct {
	WindowStart, WindowEnd sim.Time

	// pktSlab holds live delivery-tracking records; pktIdx maps packet ID
	// to slab handle. Both recycle completed packets' storage, so a long
	// run's tracking state costs only its in-flight high-water mark.
	pktSlab     pool.Slab[pktStat]
	pktIdx      pool.IDMap
	latenciesNs []float64

	// summary caches the sort-once latency summary; it is invalidated
	// whenever a new sample lands (summaryN trails len(latenciesNs)).
	summary  *stats.Summary
	summaryN int

	// Verdict's scratch, untouched by runs that never ask for one: the
	// running sum of the first verdictN latency samples, and the
	// creation times of the pending measured packets.
	verdictSum     float64
	verdictN       int
	verdictPending []sim.Time

	// lossTolerant accepts header arrivals of unregistered packets:
	// with the fault layer's retry budget, a packet can be written off
	// (PacketLost) while its final attempt's flits are still in flight,
	// so a late header is a legitimate straggler rather than a protocol
	// violation. Off by default — fault-free networks keep the strict
	// unregistered-delivery panic.
	lossTolerant bool
	lateHeaders  int

	// closed ignores every later header arrival (see Close).
	closed bool

	deliveredFlits  int64
	measuredCreated int
	measuredDone    int
	lostPackets     int
	measuredLost    int

	// hierarchy arms the intra-die vs die-to-die breakout on chiplet
	// compositions: bit i of d2dMarks is set when latency sample i
	// belongs to a packet that crossed a die-to-die link (by
	// Packet.D2DHops), and D2D flit deliveries are counted separately.
	hierarchy       bool
	d2dMarks        []uint64
	d2dFlits        int64
	measuredDoneD2D int

	// levelForwards/levelThrottles count fanout activity per tree level
	// inside the measurement window (root level first).
	levelForwards  []int64
	levelThrottles []int64
}

// NewRecorder returns a Recorder with an open-ended window; call
// SetWindow before the measurement phase.
func NewRecorder() *Recorder {
	return &Recorder{WindowEnd: sim.Never}
}

// Reset returns the recorder to the state NewRecorder returns, keeping
// the capacity of its buffers and pools for the next run.
func (r *Recorder) Reset() {
	slab, idx := r.pktSlab, r.pktIdx
	slab.Reset()
	idx.Reset()
	*r = Recorder{
		WindowEnd:      sim.Never,
		pktSlab:        slab,
		pktIdx:         idx,
		latenciesNs:    r.latenciesNs[:0],
		verdictPending: r.verdictPending[:0],
		d2dMarks:       r.d2dMarks[:0],
		levelForwards:  r.levelForwards[:0],
		levelThrottles: r.levelThrottles[:0],
	}
}

// Reserve sizes the latency sample buffer (and, in hierarchy mode, its
// D2D marks) for a run expected to complete `measured` packets created
// inside the measurement window, so a run matching its injection
// schedule never regrows it. The per-packet tracking pools are not
// pre-sized: each completed or lost packet's slot recycles, so they
// grow only to the run's in-flight high-water mark. Underestimates are
// safe — the buffers grow on demand.
func (r *Recorder) Reserve(measured int) {
	if measured <= 0 {
		return
	}
	r.latenciesNs = reserve(r.latenciesNs, measured)
	if r.hierarchy {
		r.d2dMarks = reserve(r.d2dMarks, (measured+63)/64)
	}
}

// reserve returns s with capacity for at least n elements.
func reserve[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s
	}
	grown := make([]T, len(s), n)
	copy(grown, s)
	return grown
}

// SetWindow fixes the measurement window.
func (r *Recorder) SetWindow(start, end sim.Time) {
	r.WindowStart, r.WindowEnd = start, end
}

// Close ends the run's recording: header arrivals after it change no
// measurement. The run watchdog closes a finished run's recorder before
// draining its fabric for a deadlock diagnosis. Reset reopens it.
func (r *Recorder) Close() { r.closed = true }

// SetLossTolerant arms fault-mode accounting: header arrivals of packets
// already written off by PacketLost are counted as late stragglers
// instead of panicking.
func (r *Recorder) SetLossTolerant(on bool) { r.lossTolerant = on }

// SetHierarchy arms the intra-die vs die-to-die measurement breakout
// (chiplet compositions).
func (r *Recorder) SetHierarchy(on bool) { r.hierarchy = on }

// SetLevels sizes the per-level fanout utilization counters for a
// network with `levels` fanout tree levels.
func (r *Recorder) SetLevels(levels int) {
	r.levelForwards = zeroed(r.levelForwards, levels)
	r.levelThrottles = zeroed(r.levelThrottles, levels)
}

// zeroed returns n zero counters, on s's storage when it is large
// enough.
func zeroed(s []int64, n int) []int64 {
	if cap(s) < n {
		return make([]int64, n)
	}
	s = s[:n]
	clear(s)
	return s
}

func (r *Recorder) inWindow(t sim.Time) bool {
	return t >= r.WindowStart && t < r.WindowEnd
}

// PacketCreated registers a logical packet at its creation time. Serial
// multicast clones must NOT be registered — only their parent.
func (r *Recorder) PacketCreated(p *packet.Packet, now sim.Time) {
	if _, dup := r.pktIdx.Get(p.ID); dup {
		panic(fault.Violationf("metrics", "packet %d registered twice", p.ID))
	}
	h, st := r.pktSlab.Alloc()
	st.created = unmeasured
	if r.inWindow(now) {
		st.created = now
		r.measuredCreated++
	}
	r.pktIdx.Put(p.ID, h)
}

// logicalOf resolves a serial clone to its registered parent packet.
func logicalOf(p *packet.Packet) *packet.Packet {
	if p.Parent != nil {
		return p.Parent
	}
	return p
}

// HeaderArrived records the arrival of a header flit of packet p (or of a
// serial clone of p) at destination dest. Duplicate deliveries indicate a
// throttling failure and panic.
func (r *Recorder) HeaderArrived(p *packet.Packet, dest int, now sim.Time) {
	if r.closed {
		return
	}
	logical := logicalOf(p)
	h, ok := r.pktIdx.Get(logical.ID)
	if !ok {
		if r.lossTolerant {
			// A header of a packet already written off by the retry
			// budget: the final attempt's flits were still in flight at
			// write-off time.
			r.lateHeaders++
			return
		}
		panic(fault.Violationf("metrics", "header of unregistered packet %d", logical.ID))
	}
	st := r.pktSlab.Get(h)
	if st.arrived.Has(dest) {
		panic(fault.Violationf("metrics", "duplicate header delivery of packet %d to dest %d", logical.ID, dest))
	}
	if !logical.Dests.Has(dest) {
		panic(fault.Violationf("metrics", "packet %d delivered to non-destination %d (dests %v)",
			logical.ID, dest, logical.Dests))
	}
	st.arrived = st.arrived.Add(dest)
	if st.arrived == logical.Dests {
		if st.measured() {
			r.measuredDone++
			lat := sim.Time(int64(now) - logical.CreatedAt).Nanoseconds()
			i := len(r.latenciesNs)
			r.latenciesNs = append(r.latenciesNs, lat)
			if r.hierarchy {
				if i%64 == 0 {
					r.d2dMarks = append(r.d2dMarks, 0)
				}
				if logical.D2DHops > 0 {
					r.measuredDoneD2D++
					r.d2dMarks[i/64] |= 1 << (i % 64)
				}
			}
		}
		// Completed packets no longer need tracking: the slot recycles.
		r.pktIdx.Delete(logical.ID)
		r.pktSlab.Free(h)
	}
}

// PacketLost removes a packet (or serial clone) written off by the
// network interface's retransmission budget from delivery tracking, so
// long fault runs do not accumulate per-packet state for packets that can
// never complete. Losing an already-completed or already-lost packet is a
// no-op.
func (r *Recorder) PacketLost(p *packet.Packet, now sim.Time) {
	logical := logicalOf(p)
	h, ok := r.pktIdx.Get(logical.ID)
	if !ok {
		return // already complete, or a sibling clone was lost first
	}
	measured := r.pktSlab.Get(h).measured()
	r.pktIdx.Delete(logical.ID)
	r.pktSlab.Free(h)
	r.lostPackets++
	if measured {
		r.measuredLost++
	}
}

// FlitDelivered counts one flit landing at a destination interface; d2d
// marks flits that crossed a die-to-die link (always false on
// single-die networks and meshes).
func (r *Recorder) FlitDelivered(now sim.Time, d2d bool) {
	if r.inWindow(now) {
		r.deliveredFlits++
		if d2d {
			r.d2dFlits++
		}
	}
}

// FanoutForwarded counts one flit committed to output ports by a fanout
// node at the given tree level (root = 0).
func (r *Recorder) FanoutForwarded(level int, now sim.Time) {
	if len(r.levelForwards) != 0 && r.inWindow(now) {
		r.levelForwards[level]++
	}
}

// FanoutThrottled counts one redundant (speculative) flit absorbed by a
// fanout node at the given tree level.
func (r *Recorder) FanoutThrottled(level int, now sim.Time) {
	if len(r.levelThrottles) != 0 && r.inWindow(now) {
		r.levelThrottles[level]++
	}
}

// ForwardsPerLevel returns the window-scoped per-level fanout forward
// counts (nil when SetLevels was never called). The slice is a copy.
func (r *Recorder) ForwardsPerLevel() []int64 {
	return append([]int64(nil), r.levelForwards...)
}

// ThrottlesPerLevel returns the window-scoped per-level throttle counts.
func (r *Recorder) ThrottlesPerLevel() []int64 {
	return append([]int64(nil), r.levelThrottles...)
}

// RedundantFraction returns throttled flits as a fraction of all fanout
// flit movements inside the window — the network-wide speculation waste.
func (r *Recorder) RedundantFraction() float64 {
	var fwd, thr int64
	for i := range r.levelForwards {
		fwd += r.levelForwards[i]
		thr += r.levelThrottles[i]
	}
	if fwd+thr == 0 {
		return 0
	}
	return float64(thr) / float64(fwd+thr)
}

// LatencySummary returns the sort-once summary of the completed measured
// packets' latencies. The summary is cached and rebuilt only after new
// samples arrive, so querying several percentiles costs one sort total.
func (r *Recorder) LatencySummary() *stats.Summary {
	if r.summary == nil || r.summaryN != len(r.latenciesNs) {
		r.summary = stats.NewSummary(r.latenciesNs)
		r.summaryN = len(r.latenciesNs)
	}
	return r.summary
}

// AvgLatencyNs returns the mean network latency of completed measured
// packets, and false when no packet completed.
func (r *Recorder) AvgLatencyNs() (float64, bool) {
	if len(r.latenciesNs) == 0 {
		return 0, false
	}
	return r.LatencySummary().Mean(), true
}

// P95LatencyNs returns the 95th-percentile latency of measured packets.
func (r *Recorder) P95LatencyNs() (float64, bool) {
	if len(r.latenciesNs) == 0 {
		return 0, false
	}
	return r.LatencySummary().P95(), true
}

// LatenciesNs exposes the raw samples (for tests and histograms).
func (r *Recorder) LatenciesNs() []float64 { return r.latenciesNs }

// ThroughputGFs returns the accepted throughput in gigaflits per second
// per source: flit deliveries inside the window divided by window length
// and source count.
func (r *Recorder) ThroughputGFs(sources int) float64 {
	window := r.WindowEnd - r.WindowStart
	if window <= 0 || sources <= 0 {
		return 0
	}
	return float64(r.deliveredFlits) / window.Nanoseconds() / float64(sources)
}

// D2DThroughputGFs returns the die-to-die share of the accepted
// throughput (flits that crossed a D2D link, in GF/s per source).
func (r *Recorder) D2DThroughputGFs(sources int) float64 {
	window := r.WindowEnd - r.WindowStart
	if window <= 0 || sources <= 0 {
		return 0
	}
	return float64(r.d2dFlits) / window.Nanoseconds() / float64(sources)
}

// hierSummary summarizes the latency samples of one hierarchy class
// (d2d or intra-die) from one exact-size copy taken in completion order,
// so the mean adds the class's samples in the order they landed.
func (r *Recorder) hierSummary(d2d bool) (avg, p95 float64, ok bool) {
	n := r.measuredDoneD2D
	if !d2d {
		n = len(r.latenciesNs) - n
	}
	if !r.hierarchy || n == 0 {
		return 0, 0, false
	}
	samples := make([]float64, 0, n)
	for i, lat := range r.latenciesNs {
		if (r.d2dMarks[i/64]>>(i%64)&1 == 1) == d2d {
			samples = append(samples, lat)
		}
	}
	s := stats.NewSummaryOwned(samples)
	return s.Mean(), s.P95(), true
}

// IntraLatency returns the mean and P95 latency of completed measured
// packets that stayed inside their source die (hierarchy mode only).
func (r *Recorder) IntraLatency() (avg, p95 float64, ok bool) { return r.hierSummary(false) }

// D2DLatency returns the mean and P95 latency of completed measured
// packets that crossed at least one die-to-die link.
func (r *Recorder) D2DLatency() (avg, p95 float64, ok bool) { return r.hierSummary(true) }

// MeasuredCompletedD2D returns how many completed measured packets
// crossed a die-to-die link.
func (r *Recorder) MeasuredCompletedD2D() int { return r.measuredDoneD2D }

// MeasuredCreated returns how many logical packets were injected inside
// the measurement window.
func (r *Recorder) MeasuredCreated() int { return r.measuredCreated }

// MeasuredCompleted returns how many of them have fully completed.
func (r *Recorder) MeasuredCompleted() int { return r.measuredDone }

// MeasuredLost returns how many measured-window packets were written off
// by the retransmission budget (PacketLost).
func (r *Recorder) MeasuredLost() int { return r.measuredLost }

// LostPackets returns the total packets written off across the whole run.
func (r *Recorder) LostPackets() int { return r.lostPackets }

// LateHeaders returns how many header arrivals landed after their packet
// was written off (loss-tolerant mode only).
func (r *Recorder) LateHeaders() int { return r.lateHeaders }

// TrackedPackets returns the number of packets currently held in the
// delivery-tracking pool (tests: soak runs must not grow this without
// bound).
func (r *Recorder) TrackedPackets() int { return r.pktSlab.Live() }

// CompletionRate returns the fraction of measured packets that completed
// (1 when nothing was measured — an idle network is not congested).
func (r *Recorder) CompletionRate() float64 {
	if r.measuredCreated == 0 {
		return 1
	}
	return float64(r.measuredDone) / float64(r.measuredCreated)
}

// SatCriterion is the saturation test of one offered load: the run
// saturates when fewer than MinCompletion of its measured packets
// complete, or when their mean latency exceeds MaxLatencyNs (the search
// sets it to LatencyFactor times the zero-load latency).
type SatCriterion struct {
	MaxLatencyNs  float64
	MinCompletion float64
}

// Saturated applies the criterion to a finished run's completion rate
// (CompletionRate) and mean latency (0 when nothing completed).
func (c SatCriterion) Saturated(completion, avgLatencyNs float64) bool {
	return completion < c.MinCompletion || avgLatencyNs > c.MaxLatencyNs
}

// Verdict is what a SatCriterion will say about a run that has not
// finished yet.
type Verdict uint8

const (
	// Undecided: some way the run could still end goes either way.
	Undecided Verdict = iota
	// Stable: every way the run could end passes the criterion.
	Stable
	// SaturatedVerdict: every way the run could end fails it.
	SaturatedVerdict
)

func (v Verdict) String() string {
	switch v {
	case Stable:
		return "stable"
	case SaturatedVerdict:
		return "saturated"
	}
	return "undecided"
}

// verdictMargin is the relative margin a latency bound must clear the
// threshold by: the bounds add samples in another order than the final
// mean does, so a bound within rounding of the threshold decides nothing.
const verdictMargin = 1e-9

// Verdict bounds the criterion's verdict on this run, observed at time
// now, for a run whose last dispatch is at end. It decides only after
// the window has closed (now >= WindowEnd): from then on no packet joins
// the measured set, so the final completion rate and mean latency
// depend only on which of the still-pending measured packets complete
// and when. Each pending packet created at c (the time PacketCreated
// was given, from which its latency counts) either never completes or
// completes with a latency in [now - c, end - c]. The verdict is
// Stable or SaturatedVerdict only if it holds for every such outcome;
// completion is compared exactly as CompletionRate computes it, latency
// with the relative margin verdictMargin.
//
// The caller guarantees that every measured packet is registered by
// now (on a chiplet composition a die-to-die leg registers when it
// reaches its target die, so this does not hold there).
//
// The query walks the pending packets, so it costs O(p log p) for p
// pending; a run that never calls it pays nothing for it.
func (r *Recorder) Verdict(c SatCriterion, now, end sim.Time) Verdict {
	if now < r.WindowEnd {
		return Undecided
	}
	for _, lat := range r.latenciesNs[r.verdictN:] {
		r.verdictSum += lat
	}
	r.verdictN = len(r.latenciesNs)
	pend := r.verdictPending[:0]
	r.pktSlab.Each(func(st *pktStat) {
		if st.measured() {
			pend = append(pend, st.created)
		}
	})
	slices.Sort(pend) // oldest first
	r.verdictPending = pend

	created, done, m := r.measuredCreated, r.measuredDone, len(pend)
	completion := func(k int) float64 {
		if created == 0 {
			return 1
		}
		return float64(done+k) / float64(created)
	}
	mean := func(sum float64, k int) float64 {
		if done+k == 0 {
			return 0
		}
		return sum / float64(done+k)
	}
	margin := verdictMargin * math.Abs(c.MaxLatencyNs)

	// Saturated if, for every count k of further completions, too few
	// complete or even the k fastest possible (the newest packets, each
	// completing right now) leave the mean above the threshold.
	saturated := true
	sum := r.verdictSum
	for k := 0; k <= m && saturated; k++ {
		if k > 0 {
			sum += (now - pend[m-k]).Nanoseconds()
		}
		if completion(k) >= c.MinCompletion && !(mean(sum, k) > c.MaxLatencyNs+margin) {
			saturated = false
		}
	}
	if saturated {
		return SaturatedVerdict
	}
	// Stable if enough have completed already and even the k slowest
	// possible (the oldest packets, each completing at the end) keep
	// the mean at or under the threshold, for every k.
	if completion(0) < c.MinCompletion {
		return Undecided
	}
	sum = r.verdictSum
	for k := 0; k <= m; k++ {
		if k > 0 {
			sum += (end - pend[k-1]).Nanoseconds()
		}
		if !(mean(sum, k) <= c.MaxLatencyNs-margin) {
			return Undecided
		}
	}
	return Stable
}
