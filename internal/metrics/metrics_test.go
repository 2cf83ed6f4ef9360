package metrics

import (
	"testing"
	"unsafe"

	"asyncnoc/internal/packet"
	"asyncnoc/internal/sim"
	"asyncnoc/internal/stats"
)

func mkPkt(id uint64, dests packet.DestSet, created sim.Time) *packet.Packet {
	return &packet.Packet{ID: id, Dests: dests, Length: 5, CreatedAt: int64(created)}
}

func TestLatencyMeasuredToLastHeader(t *testing.T) {
	r := NewRecorder()
	r.SetWindow(0, 1000)
	p := mkPkt(1, packet.Dests(2, 5), 100)
	r.PacketCreated(p, 100)
	r.HeaderArrived(p, 2, 400)
	if _, ok := r.AvgLatencyNs(); ok {
		t.Fatal("latency reported before all headers arrived")
	}
	r.HeaderArrived(p, 5, 700)
	lat, ok := r.AvgLatencyNs()
	if !ok || lat != 0.6 {
		t.Errorf("latency = %v ns, want 0.6 (100ps -> 700ps)", lat)
	}
	if r.MeasuredCompleted() != 1 || r.MeasuredCreated() != 1 {
		t.Error("completion accounting wrong")
	}
}

func TestSerialClonesResolveToParent(t *testing.T) {
	r := NewRecorder()
	r.SetWindow(0, 1000)
	parent := mkPkt(1, packet.Dests(0, 3), 50)
	r.PacketCreated(parent, 50)
	clone0 := &packet.Packet{ID: 2, Dests: packet.Dest(0), Parent: parent}
	clone3 := &packet.Packet{ID: 3, Dests: packet.Dest(3), Parent: parent}
	r.HeaderArrived(clone0, 0, 300)
	r.HeaderArrived(clone3, 3, 850)
	lat, ok := r.AvgLatencyNs()
	if !ok || lat != 0.8 {
		t.Errorf("latency = %v ns, want 0.8 (serial completion at last clone)", lat)
	}
}

func TestPacketsOutsideWindowNotMeasured(t *testing.T) {
	r := NewRecorder()
	r.SetWindow(100, 200)
	early := mkPkt(1, packet.Dest(0), 50)
	late := mkPkt(2, packet.Dest(1), 250)
	in := mkPkt(3, packet.Dest(2), 150)
	r.PacketCreated(early, 50)
	r.PacketCreated(late, 250)
	r.PacketCreated(in, 150)
	r.HeaderArrived(early, 0, 60)
	r.HeaderArrived(late, 1, 260)
	r.HeaderArrived(in, 2, 190)
	if r.MeasuredCreated() != 1 || r.MeasuredCompleted() != 1 {
		t.Errorf("measured %d/%d, want 1/1", r.MeasuredCompleted(), r.MeasuredCreated())
	}
	if len(r.LatenciesNs()) != 1 {
		t.Errorf("latency samples %d, want 1", len(r.LatenciesNs()))
	}
}

func TestThroughputCountsWindowOnly(t *testing.T) {
	r := NewRecorder()
	r.SetWindow(100, 1100)     // 1 ns window
	r.FlitDelivered(50, false) // before
	for i := 0; i < 8; i++ {
		r.FlitDelivered(sim.Time(200+i), false)
	}
	r.FlitDelivered(1100, false) // at end boundary: excluded
	if got := r.ThroughputGFs(4); got != 2.0 {
		t.Errorf("throughput = %v GF/s per source, want 2.0", got)
	}
}

func TestThroughputDegenerate(t *testing.T) {
	r := NewRecorder()
	r.SetWindow(100, 100)
	if r.ThroughputGFs(4) != 0 {
		t.Error("zero window should yield 0")
	}
	r.SetWindow(0, 100)
	if r.ThroughputGFs(0) != 0 {
		t.Error("zero sources should yield 0")
	}
}

func TestCompletionRate(t *testing.T) {
	r := NewRecorder()
	r.SetWindow(0, 1000)
	if r.CompletionRate() != 1 {
		t.Error("empty recorder completion != 1")
	}
	a := mkPkt(1, packet.Dest(0), 10)
	b := mkPkt(2, packet.Dest(1), 20)
	r.PacketCreated(a, 10)
	r.PacketCreated(b, 20)
	r.HeaderArrived(a, 0, 500)
	if r.CompletionRate() != 0.5 {
		t.Errorf("completion = %v, want 0.5", r.CompletionRate())
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	r := NewRecorder()
	p := mkPkt(1, packet.Dest(0), 0)
	r.PacketCreated(p, 0)
	defer func() {
		if recover() == nil {
			t.Error("duplicate registration did not panic")
		}
	}()
	r.PacketCreated(p, 0)
}

func TestDuplicateDeliveryPanics(t *testing.T) {
	r := NewRecorder()
	p := mkPkt(1, packet.Dests(0, 1), 0)
	r.PacketCreated(p, 0)
	r.HeaderArrived(p, 0, 10)
	defer func() {
		if recover() == nil {
			t.Error("duplicate delivery did not panic (throttling failure)")
		}
	}()
	r.HeaderArrived(p, 0, 20)
}

func TestMisdeliveryPanics(t *testing.T) {
	r := NewRecorder()
	p := mkPkt(1, packet.Dest(0), 0)
	r.PacketCreated(p, 0)
	defer func() {
		if recover() == nil {
			t.Error("delivery to non-destination did not panic")
		}
	}()
	r.HeaderArrived(p, 5, 10)
}

func TestUnregisteredDeliveryPanics(t *testing.T) {
	r := NewRecorder()
	defer func() {
		if recover() == nil {
			t.Error("unregistered delivery did not panic")
		}
	}()
	r.HeaderArrived(mkPkt(9, packet.Dest(0), 0), 0, 10)
}

// Window boundaries are half-open [WindowStart, WindowEnd): a packet
// created exactly at WindowEnd is NOT measured, one created exactly at
// WindowStart is.
func TestPacketCreatedAtWindowBoundaries(t *testing.T) {
	r := NewRecorder()
	r.SetWindow(100, 200)
	atStart := mkPkt(1, packet.Dest(0), 100)
	atEnd := mkPkt(2, packet.Dest(1), 200)
	r.PacketCreated(atStart, 100)
	r.PacketCreated(atEnd, 200)
	if r.MeasuredCreated() != 1 {
		t.Errorf("measured %d, want 1 (WindowEnd is exclusive, WindowStart inclusive)", r.MeasuredCreated())
	}
	r.HeaderArrived(atStart, 0, 150)
	r.HeaderArrived(atEnd, 1, 250)
	if r.MeasuredCompleted() != 1 || len(r.LatenciesNs()) != 1 {
		t.Errorf("completed %d samples %d, want 1/1", r.MeasuredCompleted(), len(r.LatenciesNs()))
	}
}

// A flit delivery exactly at WindowStart counts; exactly at WindowEnd
// does not (the window is half-open on both metrics).
func TestFlitDeliveredAtWindowBoundaries(t *testing.T) {
	r := NewRecorder()
	r.SetWindow(100, 1100)       // 1 ns window
	r.FlitDelivered(100, false)  // at start: included
	r.FlitDelivered(1099, false) // last included instant
	r.FlitDelivered(1100, false) // at end: excluded
	if got := r.ThroughputGFs(1); got != 2.0 {
		t.Errorf("throughput = %v GF/s, want 2.0 (2 flits in 1 ns)", got)
	}
}

// A header arriving exactly at WindowStart completes a pre-window packet
// without contributing a latency sample (measurement keys off creation
// time, not arrival time).
func TestHeaderAtWindowStartOfUnmeasuredPacket(t *testing.T) {
	r := NewRecorder()
	r.SetWindow(100, 200)
	p := mkPkt(1, packet.Dest(0), 50)
	r.PacketCreated(p, 50)
	r.HeaderArrived(p, 0, 100)
	if r.MeasuredCreated() != 0 || r.MeasuredCompleted() != 0 || len(r.LatenciesNs()) != 0 {
		t.Error("pre-window packet leaked into measurement accounting")
	}
	if r.TrackedPackets() != 0 {
		t.Error("completed packet still tracked")
	}
}

func TestThroughputZeroLengthWindow(t *testing.T) {
	r := NewRecorder()
	r.SetWindow(100, 100)
	r.FlitDelivered(100, false) // boundary of a zero-length window: excluded
	if r.ThroughputGFs(4) != 0 {
		t.Error("zero-length window must yield 0 throughput, not a division blow-up")
	}
	r.SetWindow(200, 100) // inverted window
	if r.ThroughputGFs(4) != 0 {
		t.Error("negative-length window must yield 0")
	}
}

func TestPacketLost(t *testing.T) {
	r := NewRecorder()
	r.SetWindow(100, 200)
	pre := mkPkt(1, packet.Dest(0), 50)
	in := mkPkt(2, packet.Dest(1), 150)
	r.PacketCreated(pre, 50)
	r.PacketCreated(in, 150)
	r.PacketLost(pre, 400)
	r.PacketLost(in, 500)
	if r.TrackedPackets() != 0 {
		t.Errorf("tracked %d after losses, want 0", r.TrackedPackets())
	}
	if r.LostPackets() != 2 || r.MeasuredLost() != 1 {
		t.Errorf("lost %d measured-lost %d, want 2/1", r.LostPackets(), r.MeasuredLost())
	}
	// Losing again (a retransmission timer racing the write-off) is a
	// no-op, not a double count.
	r.PacketLost(in, 600)
	if r.LostPackets() != 2 {
		t.Error("double loss double-counted")
	}
	if r.CompletionRate() != 0 {
		t.Errorf("completion = %v, want 0 (the one measured packet was lost)", r.CompletionRate())
	}
}

func TestPacketLostAfterCompletionIsNoop(t *testing.T) {
	r := NewRecorder()
	r.SetWindow(0, 1000)
	p := mkPkt(1, packet.Dest(0), 10)
	r.PacketCreated(p, 10)
	r.HeaderArrived(p, 0, 500)
	r.PacketLost(p, 600)
	if r.LostPackets() != 0 || r.MeasuredCompleted() != 1 {
		t.Error("loss after completion must not be counted")
	}
}

func TestPacketLostResolvesSerialClones(t *testing.T) {
	r := NewRecorder()
	r.SetWindow(0, 1000)
	parent := mkPkt(1, packet.Dests(0, 3), 50)
	r.PacketCreated(parent, 50)
	clone := &packet.Packet{ID: 2, Dests: packet.Dest(0), Parent: parent}
	r.PacketLost(clone, 400)
	if r.LostPackets() != 1 || r.MeasuredLost() != 1 || r.TrackedPackets() != 0 {
		t.Error("clone loss did not write off the logical parent")
	}
}

// Loss-tolerant mode: a header of a written-off packet still in flight is
// a counted straggler, not a panic. Strict mode keeps the panic.
func TestLateHeaderAfterLoss(t *testing.T) {
	r := NewRecorder()
	r.SetLossTolerant(true)
	r.SetWindow(0, 1000)
	p := mkPkt(1, packet.Dests(0, 1), 10)
	r.PacketCreated(p, 10)
	r.PacketLost(p, 300)
	r.HeaderArrived(p, 0, 400) // must not panic
	if r.LateHeaders() != 1 {
		t.Errorf("late headers %d, want 1", r.LateHeaders())
	}
	if r.MeasuredCompleted() != 0 {
		t.Error("straggler counted as completion")
	}
}

// Soak-style regression: the tracking map must not grow with packets that
// are dropped by the fault layer and never complete. Before the
// PacketLost hook, every such packet leaked a pktStat forever.
func TestRecorderMemoryBoundedUnderLosses(t *testing.T) {
	r := NewRecorder()
	r.SetLossTolerant(true)
	r.SetWindow(0, sim.Never)
	const packets = 100_000
	high := 0
	for i := 1; i <= packets; i++ {
		p := mkPkt(uint64(i), packet.Dests(0, 1), sim.Time(i))
		r.PacketCreated(p, sim.Time(i))
		r.HeaderArrived(p, 0, sim.Time(i+1)) // partial delivery
		r.PacketLost(p, sim.Time(i+2))       // then written off
		if r.TrackedPackets() > high {
			high = r.TrackedPackets()
		}
	}
	if r.TrackedPackets() != 0 {
		t.Errorf("%d packets still tracked after all were lost", r.TrackedPackets())
	}
	if high > 1 {
		t.Errorf("tracking high-water mark %d, want <= 1 (memory grows with losses)", high)
	}
	if r.LostPackets() != packets {
		t.Errorf("lost %d, want %d", r.LostPackets(), packets)
	}
}

func TestLatencySummaryCachesSingleSort(t *testing.T) {
	r := NewRecorder()
	r.SetWindow(0, sim.Never)
	for i := 1; i <= 100; i++ {
		p := mkPkt(uint64(i), packet.Dest(0), 0)
		r.PacketCreated(p, 0)
		r.HeaderArrived(p, 0, sim.Time(i*1000))
	}
	s1 := r.LatencySummary()
	if s2 := r.LatencySummary(); s2 != s1 {
		t.Error("summary not cached across queries")
	}
	avg, _ := r.AvgLatencyNs()
	p95, _ := r.P95LatencyNs()
	if avg != s1.Mean() || p95 != s1.P95() {
		t.Error("legacy accessors disagree with the summary")
	}
	// A new sample invalidates the cache.
	p := mkPkt(1000, packet.Dest(0), 0)
	r.PacketCreated(p, 0)
	r.HeaderArrived(p, 0, 500_000)
	if s3 := r.LatencySummary(); s3 == s1 || s3.Count() != 101 {
		t.Error("summary not rebuilt after a new sample")
	}
}

func TestFanoutLevelCounters(t *testing.T) {
	r := NewRecorder()
	r.SetWindow(100, 200)
	r.SetLevels(3)
	r.FanoutForwarded(0, 50) // before window: ignored
	r.FanoutForwarded(0, 150)
	r.FanoutForwarded(2, 199)
	r.FanoutThrottled(1, 150)
	r.FanoutThrottled(1, 200) // at WindowEnd: ignored
	if f := r.ForwardsPerLevel(); f[0] != 1 || f[1] != 0 || f[2] != 1 {
		t.Errorf("forwards %v", f)
	}
	if th := r.ThrottlesPerLevel(); th[1] != 1 || th[0] != 0 || th[2] != 0 {
		t.Errorf("throttles %v", th)
	}
	if got := r.RedundantFraction(); got != 1.0/3 {
		t.Errorf("redundant fraction %v, want 1/3", got)
	}
	// The returned slices are copies.
	r.ForwardsPerLevel()[0] = 99
	if r.ForwardsPerLevel()[0] != 1 {
		t.Error("ForwardsPerLevel aliases internal state")
	}
}

func TestP95(t *testing.T) {
	r := NewRecorder()
	r.SetWindow(0, sim.Never)
	for i := 1; i <= 100; i++ {
		p := mkPkt(uint64(i), packet.Dest(0), 0)
		r.PacketCreated(p, 0)
		r.HeaderArrived(p, 0, sim.Time(i*1000))
	}
	p95, ok := r.P95LatencyNs()
	if !ok || p95 < 95 || p95 > 96 {
		t.Errorf("P95 = %v, want ~95", p95)
	}
}

// TestVerdictBounds walks one recorder through the verdict's cases:
// nothing decided before the window closes, a pending packet's latency
// bounded by [now - created, end - created], and completion compared
// exactly.
func TestVerdictBounds(t *testing.T) {
	// Window [0, 1000) ps; the run ends at 3000 ps.
	const end = 3000
	mk := func() (*Recorder, *packet.Packet) {
		r := NewRecorder()
		r.SetWindow(0, 1000)
		done := mkPkt(1, packet.Dest(0), 0)
		r.PacketCreated(done, 0)
		r.HeaderArrived(done, 0, 1000) // 1 ns
		pending := mkPkt(2, packet.Dest(1), 500)
		r.PacketCreated(pending, 500)
		return r, pending
	}
	cases := []struct {
		name string
		crit SatCriterion
		now  sim.Time
		want Verdict
	}{
		{"window open", SatCriterion{MaxLatencyNs: 100, MinCompletion: 0.5}, 999, Undecided},
		// Pending latency in [0.5, 2.5] ns: the mean stays in [0.75, 1.75].
		{"stable below any outcome", SatCriterion{MaxLatencyNs: 1.76, MinCompletion: 0.5}, 1000, Stable},
		{"bound within the margin", SatCriterion{MaxLatencyNs: 1.75, MinCompletion: 0.5}, 1000, Undecided},
		{"stable needs the end bound", SatCriterion{MaxLatencyNs: 1.7, MinCompletion: 0.5}, 1000, Undecided},
		{"saturated above any outcome", SatCriterion{MaxLatencyNs: 0.74, MinCompletion: 0.5}, 1000, SaturatedVerdict},
		// With completion 1/2 failing, the pending packet must complete:
		// by now = 2000 its latency is at least 1.5 ns (mean >= 1.25).
		{"lower bound grows with now", SatCriterion{MaxLatencyNs: 1.2, MinCompletion: 0.6}, 2000, SaturatedVerdict},
		{"lower bound not yet past", SatCriterion{MaxLatencyNs: 1.2, MinCompletion: 0.6}, 1800, Undecided},
		{"never completing passes", SatCriterion{MaxLatencyNs: 1.2, MinCompletion: 0.5}, 2000, Undecided},
		// Completion 1/2 now, 2/2 if the pending packet completes.
		{"completion may still pass", SatCriterion{MaxLatencyNs: 100, MinCompletion: 1}, 1000, Undecided},
		{"completion already fails every way", SatCriterion{MaxLatencyNs: 100, MinCompletion: 1.5}, 1000, SaturatedVerdict},
	}
	for _, c := range cases {
		r, _ := mk()
		if got := r.Verdict(c.crit, c.now, end); got != c.want {
			t.Errorf("%s: verdict %v, want %v", c.name, got, c.want)
		}
	}
	// Once the pending packet completes, the verdict is the criterion on
	// the final figures, up to the latency margin.
	r, p := mk()
	r.HeaderArrived(p, 1, 2500) // 2 ns: mean 1.5 ns, completion 1
	for _, c := range []struct {
		crit SatCriterion
		want Verdict
	}{
		{SatCriterion{MaxLatencyNs: 1.5 * (1 + 1e-8), MinCompletion: 1}, Stable},
		{SatCriterion{MaxLatencyNs: 1.5 * (1 - 1e-12), MinCompletion: 1}, Undecided},
		{SatCriterion{MaxLatencyNs: 1.4, MinCompletion: 1}, SaturatedVerdict},
	} {
		if got := r.Verdict(c.crit, 2600, end); got != c.want {
			t.Errorf("completed run, %+v: verdict %v, want %v", c.crit, got, c.want)
		}
		if c.want != Undecided && (c.want == SaturatedVerdict) != c.crit.Saturated(r.CompletionRate(), mustAvg(t, r)) {
			t.Errorf("completed run, %+v: verdict disagrees with the criterion", c.crit)
		}
	}
}

// TestPktStatSize: the creation time the verdict reads lives in the slot
// that held the measured flag, so runs that never ask for a verdict keep
// 16-byte tracking records.
func TestPktStatSize(t *testing.T) {
	if n := unsafe.Sizeof(pktStat{}); n != 16 {
		t.Fatalf("pktStat is %d bytes, want 16", n)
	}
}

func mustAvg(t *testing.T, r *Recorder) float64 {
	t.Helper()
	avg, ok := r.AvgLatencyNs()
	if !ok {
		t.Fatal("no latency samples")
	}
	return avg
}

// TestHierarchyClassSummaries: the intra-die and die-to-die summaries
// read the one latency buffer through its D2D marks and equal summaries
// of each class's samples kept in completion order, bit for bit; a
// Reset recorder starts with no marks.
func TestHierarchyClassSummaries(t *testing.T) {
	r := NewRecorder()
	for round := 0; round < 2; round++ {
		r.Reset()
		r.SetHierarchy(true)
		r.SetWindow(0, sim.Never)
		r.Reserve(50)
		var intra, d2d []float64
		for i := 1; i <= 300; i++ {
			p := mkPkt(uint64(i), packet.Dest(0), sim.Time(i*7))
			if i%3 == round {
				p.D2DHops = uint8(1 + i%2)
			}
			r.PacketCreated(p, sim.Time(i*7))
			at := sim.Time(i*7 + 1000 + (i*7919)%613)
			r.HeaderArrived(p, 0, at)
			lat := sim.Time(int64(at) - p.CreatedAt).Nanoseconds()
			if p.D2DHops > 0 {
				d2d = append(d2d, lat)
			} else {
				intra = append(intra, lat)
			}
		}
		if got := r.MeasuredCompletedD2D(); got != len(d2d) {
			t.Fatalf("round %d: %d D2D completions, want %d", round, got, len(d2d))
		}
		for _, c := range []struct {
			name    string
			get     func() (float64, float64, bool)
			samples []float64
		}{{"intra", r.IntraLatency, intra}, {"d2d", r.D2DLatency, d2d}} {
			avg, p95, ok := c.get()
			want := stats.NewSummary(c.samples)
			if !ok || avg != want.Mean() || p95 != want.P95() {
				t.Errorf("round %d %s: (%v, %v, %v), want (%v, %v, true)", round, c.name, avg, p95, ok, want.Mean(), want.P95())
			}
		}
	}
	r.Reset()
	if _, _, ok := r.D2DLatency(); ok {
		t.Error("D2DLatency reports samples after Reset")
	}
}
