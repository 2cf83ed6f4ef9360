package core

import (
	"context"
	"encoding/json"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"asyncnoc/internal/fault"
	"asyncnoc/internal/mesh"
	"asyncnoc/internal/network"
	"asyncnoc/internal/packet"
	"asyncnoc/internal/rng"
	"asyncnoc/internal/sim"
	"asyncnoc/internal/traffic"
)

// faultTestJobs builds a small job grid with the fault layer enabled in
// several configurations (corrupt+drop, jitter, mixed) and two traffic
// seeds each.
func faultTestJobs(t *testing.T) []Job {
	t.Helper()
	var jobs []Job
	for _, fc := range []fault.Config{
		{Seed: 11, CorruptRate: 1e-3, DropRate: 1e-3},
		{Seed: 12, JitterRate: 5e-3},
		{Seed: 13, CorruptRate: 2e-3, DropRate: 1e-3, JitterRate: 1e-3},
	} {
		for _, name := range []string{NameBasicHybridSpec, NameBaseline} {
			spec, err := SpecByName(8, name)
			if err != nil {
				t.Fatal(err)
			}
			spec.Faults = fc
			for _, seed := range []uint64{1, 2} {
				jobs = append(jobs, Job{Spec: spec, Cfg: RunConfig{
					Bench: traffic.Multicast{N: 8, Frac: 0.10}, LoadGFs: 0.3, Seed: seed,
					Warmup: 40 * sim.Nanosecond, Measure: 160 * sim.Nanosecond,
					Drain: 2000 * sim.Nanosecond,
				}})
			}
		}
	}
	return jobs
}

// TestFaultRunsDeterministicAcrossPoolSizes is the fault-layer half of
// the determinism contract: with a fixed fault schedule the results are
// bit-identical at any worker count and across repeated executions.
func TestFaultRunsDeterministicAcrossPoolSizes(t *testing.T) {
	jobs := faultTestJobs(t)
	var want []byte
	for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		e := NewEngine(workers)
		results, err := e.RunJobs(jobs)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		got, err := json.Marshal(results)
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = got
		} else if string(got) != string(want) {
			t.Fatalf("workers=%d: fault-run results differ:\n%s\nvs\n%s", workers, got, want)
		}
	}
}

// TestFaultSeedChangesSchedule is the converse: a different fault seed
// must produce a different fault schedule (otherwise the seed is dead).
func TestFaultSeedChangesSchedule(t *testing.T) {
	spec := BasicHybridSpeculative(8)
	spec.Faults = fault.Config{Seed: 1, CorruptRate: 5e-3, DropRate: 5e-3}
	cfg := RunConfig{
		Bench: traffic.Multicast{N: 8, Frac: 0.10}, LoadGFs: 0.3, Seed: 1,
		Warmup: 40 * sim.Nanosecond, Measure: 160 * sim.Nanosecond, Drain: 2000 * sim.Nanosecond,
	}
	a, err := Run(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	spec.Faults.Seed = 2
	b, err := Run(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.FaultsInjected == 0 || b.FaultsInjected == 0 {
		t.Fatalf("no faults injected (a=%d, b=%d): rate or windows too small", a.FaultsInjected, b.FaultsInjected)
	}
	if a == b {
		t.Error("changing the fault seed left the run bit-identical")
	}
}

// wedgeBench drives source 0 with broadcasts (guaranteeing traffic
// through both root fanout ports of tree 0) while every other source
// sends light unicast, keeping the rest of the network far from
// saturation so the only unrecoverable traffic is the wedged tree's.
type wedgeBench struct{ n int }

func (b wedgeBench) Name() string { return "WedgeProbe" }
func (b wedgeBench) NextDests(src int, _ *rng.Source) packet.DestSet {
	if src == 0 {
		return packet.Range(0, b.n)
	}
	return packet.Dest((src + 1) % b.n)
}

// TestWatchdogDetectsWedge wedges the root fanout's top output channel of
// tree 0 and requires the run to abort with a structured *DeadlockError
// naming the held flits, once the retransmission protocol has given up
// and the event queue has drained.
func TestWatchdogDetectsWedge(t *testing.T) {
	spec := BasicHybridSpeculative(8)
	spec.Faults = fault.Config{Stuck: []fault.Stuck{{Tree: 0, Heap: 1, Port: 0, After: 2}}}
	cfg := RunConfig{
		Bench: wedgeBench{n: 8}, LoadGFs: 0.1, Seed: 1,
		// The drain must outlast the full give-up ladder of every packet
		// wedged behind the dead channel.
		Warmup: 20 * sim.Nanosecond, Measure: 200 * sim.Nanosecond, Drain: 3000 * sim.Nanosecond,
	}
	_, err := Run(spec, cfg)
	var dl *DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("wedged network returned %v, want *DeadlockError", err)
	}
	if len(dl.Stuck) == 0 {
		t.Fatal("deadlock diagnostic lists no stuck flits")
	}
	for _, st := range dl.Stuck {
		if st.Where == "" || st.Flit == "" {
			t.Errorf("stuck entry missing location or flit: %+v", st)
		}
	}
	if msg := err.Error(); !strings.Contains(msg, "deadlock") || !strings.Contains(msg, "stuck") {
		t.Errorf("diagnostic %q does not read like a deadlock report", msg)
	}
	if res, err := Run(spec, cfg); err == nil {
		t.Errorf("second run of the wedged spec succeeded: %+v", res)
	}
}

// blackHole is a link receiver that takes a flit and never acknowledges
// it: the link holds the flit for good.
type blackHole struct{}

func (blackHole) OnFlit(int, packet.Flit) {}

// TestMeshDeadlockDiagnosed wedges one mesh link under a broadcast
// burst: once the event queue has drained with flits still held, the
// run fails with a *DeadlockError listing router and link locations, as
// a wedged MoT die's does.
func TestMeshDeadlockDiagnosed(t *testing.T) {
	spec := MeshTree(4, 4)
	h, err := newHarness(spec, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	h.nw.Router(5).OutputChannel(mesh.East).Dst = blackHole{}
	end := 2 * sim.Microsecond
	h.nw.Rec.SetWindow(0, end)
	for src := 0; src < 16; src++ {
		if _, err := h.nw.Inject(src, packet.Range(0, 16)); err != nil {
			t.Fatal(err)
		}
	}
	g := h.guard(end, 0)
	_, err = g.run(context.Background(), nil)
	var dl *DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("wedged mesh returned %v, want *DeadlockError", err)
	}
	if dl.Network != spec.Name || dl.At != end {
		t.Errorf("deadlock of %s at %v, want %s at %v", dl.Network, dl.At, spec.Name, end)
	}
	where := make(map[string]bool)
	for _, st := range dl.Stuck {
		where[strings.SplitN(st.Where, " ", 2)[0]] = true
		if st.Where == "channel router 5.E" {
			where["wedged link"] = true
		}
	}
	for _, w := range []string{"router", "channel", "wedged link"} {
		if !where[w] {
			t.Errorf("diagnostic lists no %s location: %v", w, dl.Stuck)
		}
	}
}

// wedgeLink is an instrument that wedges the east link of one mesh
// router: its receiver takes a flit and never acknowledges it.
type wedgeLink struct{ tile int }

func (w wedgeLink) Attach(nw *network.Network) error {
	nw.Router(w.tile).OutputChannel(mesh.East).Dst = blackHole{}
	return nil
}

func (wedgeLink) Finish() error { return nil }

// TestPoissonMeshDeadlockDiagnosed wedges one link of a 4x4 mesh under
// Poisson traffic through Run: no injector event outlives the drain
// window, so once the rest of the fabric has drained the event queue is
// empty and the run fails with a *DeadlockError naming the link, instead
// of returning a result with measured packets missing.
func TestPoissonMeshDeadlockDiagnosed(t *testing.T) {
	cfg := RunConfig{Bench: traffic.UniformRandom{N: 16}, LoadGFs: 0.3, Seed: 2016,
		Warmup: 200 * sim.Nanosecond, Measure: 1000 * sim.Nanosecond, Drain: 3 * sim.Microsecond,
		Instruments: []Instrument{wedgeLink{tile: 5}}}
	res, err := Run(MeshTree(4, 4), cfg)
	var dl *DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("wedged mesh returned %v (completion %v), want *DeadlockError", err, res.Completion)
	}
	named := false
	for _, st := range dl.Stuck {
		named = named || st.Where == "channel router 5.E"
	}
	if !named {
		t.Errorf("diagnostic does not name the wedged link: %v", dl.Stuck)
	}
}

// TestStuckFlitsOfDrainedRunAllocatesNothing: every run whose event
// queue empties ends with a StuckFlits walk, which on a healthy, drained
// network finds nothing and allocates nothing.
func TestStuckFlitsOfDrainedRunAllocatesNothing(t *testing.T) {
	for _, spec := range []network.Spec{OptHybridSpeculative(8), MeshTree(4, 4)} {
		nw, err := network.New(spec)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := nw.Inject(0, packet.Range(0, spec.N)); err != nil {
			t.Fatal(err)
		}
		nw.Sched.Run()
		if allocs := testing.AllocsPerRun(10, func() {
			if len(nw.StuckFlits()) != 0 {
				t.Fatalf("%s: a drained network holds flits", spec.Name)
			}
		}); allocs != 0 {
			t.Errorf("%s: StuckFlits allocated %v times per walk", spec.Name, allocs)
		}
	}
}

// TestLivelockBudget arms a tiny explicit event budget on a healthy run
// and requires a *LivelockError once it is exceeded.
func TestLivelockBudget(t *testing.T) {
	spec := BasicHybridSpeculative(8)
	cfg := RunConfig{
		Bench: traffic.UniformRandom{N: 8}, LoadGFs: 0.4, Seed: 1,
		Warmup: 40 * sim.Nanosecond, Measure: 160 * sim.Nanosecond, Drain: 80 * sim.Nanosecond,
		MaxEvents: 200,
	}
	_, err := Run(spec, cfg)
	var ll *LivelockError
	if !errors.As(err, &ll) {
		t.Fatalf("budgeted run returned %v, want *LivelockError", err)
	}
	if ll.Events <= cfg.MaxEvents {
		t.Errorf("livelock reported %d events, not above the %d budget", ll.Events, cfg.MaxEvents)
	}
}

// panicBench panics (a plain panic, not a protocol violation) on the
// first destination draw.
type panicBench struct{}

func (panicBench) Name() string { return "PanicBench" }
func (panicBench) NextDests(_ int, _ *rng.Source) packet.DestSet {
	panic("bench exploded")
}

// TestEngineRecoversWorkerPanic poisons one job of a batch with a
// panicking benchmark: the batch must report a *PanicError for it while
// the sibling job still computes a result, and the pool must survive for
// further use.
func TestEngineRecoversWorkerPanic(t *testing.T) {
	good := Job{Spec: BasicHybridSpeculative(8), Cfg: RunConfig{
		Bench: traffic.UniformRandom{N: 8}, LoadGFs: 0.2, Seed: 1,
		Warmup: 20 * sim.Nanosecond, Measure: 80 * sim.Nanosecond, Drain: 40 * sim.Nanosecond,
	}}
	bad := good
	bad.Cfg.Bench = panicBench{}
	e := NewEngine(2)
	results, err := e.RunJobs([]Job{good, bad})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("poisoned batch returned %v, want *PanicError", err)
	}
	if pe.Value != "bench exploded" {
		t.Errorf("recovered value %v, want the panic payload", pe.Value)
	}
	if len(pe.Stack) == 0 {
		t.Error("panic error carries no stack trace")
	}
	if results[0].Network != good.Spec.Name || results[0].MeasuredPackets == 0 {
		t.Errorf("sibling job lost its result: %+v", results[0])
	}
	// The pool is not poisoned: the good job still runs (memo hit or not).
	if _, err := e.Run(good.Spec, good.Cfg); err != nil {
		t.Errorf("engine unusable after recovered panic: %v", err)
	}
}

// emptyDestBench violates the injection contract (never-empty dests).
type emptyDestBench struct{}

func (emptyDestBench) Name() string { return "EmptyDests" }
func (emptyDestBench) NextDests(_ int, _ *rng.Source) packet.DestSet {
	return 0
}

// TestProtocolViolationIsTypedError requires contract violations inside
// a run to surface as *ProtocolError instead of crashing the process.
func TestProtocolViolationIsTypedError(t *testing.T) {
	spec := BasicHybridSpeculative(8)
	cfg := RunConfig{
		Bench: emptyDestBench{}, LoadGFs: 0.2, Seed: 1,
		Warmup: 20 * sim.Nanosecond, Measure: 80 * sim.Nanosecond, Drain: 40 * sim.Nanosecond,
	}
	_, err := Run(spec, cfg)
	var pe *ProtocolError
	if !errors.As(err, &pe) {
		t.Fatalf("contract violation returned %v, want *ProtocolError", err)
	}
	if !strings.Contains(err.Error(), "empty destination set") {
		t.Errorf("error %q does not name the violated rule", err)
	}
	var v fault.Violation
	if !errors.As(err, &v) {
		t.Error("ProtocolError does not unwrap to the fault.Violation")
	}
}

// TestRunContextCancellation checks both the direct and the engine run
// paths abort on an already-cancelled context.
func TestRunContextCancellation(t *testing.T) {
	spec := BasicHybridSpeculative(8)
	cfg := RunConfig{
		Bench: traffic.UniformRandom{N: 8}, LoadGFs: 0.2, Seed: 1,
		Warmup: 20 * sim.Nanosecond, Measure: 80 * sim.Nanosecond, Drain: 40 * sim.Nanosecond,
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunContext(ctx, spec, cfg); !errors.Is(err, context.Canceled) {
		t.Errorf("RunContext on cancelled ctx returned %v", err)
	}
	if _, err := NewEngine(2).RunContext(ctx, spec, cfg); !errors.Is(err, context.Canceled) {
		t.Errorf("engine RunContext on cancelled ctx returned %v", err)
	}
}

// The watchdog bounds wall time, not just simulated time: a run whose
// span is absurdly long still honours its deadline and its event budget
// promptly instead of simulating a 1/64th chunk of the span unchecked.
func TestWatchdogBoundsHugeSpan(t *testing.T) {
	spec := BasicHybridSpeculative(8)
	cfg := RunConfig{
		Bench: traffic.UniformRandom{N: 8}, LoadGFs: 0.2, Seed: 1,
		Warmup: 20 * sim.Nanosecond, Measure: 1 << 50, Drain: 40 * sim.Nanosecond,
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := RunContext(ctx, spec, cfg); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("deadline-bound run returned %v", err)
	}
	cfg.MaxEvents = 10_000
	var ll *LivelockError
	if _, err := Run(spec, cfg); !errors.As(err, &ll) || ll.Events > 4*stepEvents {
		t.Errorf("budgeted run returned %v, want a *LivelockError within a few steps of the budget", err)
	}
}

// TestDeliveryWithinRetryBudget is the headline robustness property: at a
// fault rate the retry budget absorbs, the hybrid speculative network
// still delivers 100% of measured packets, with the recovery visible in
// the counters.
func TestDeliveryWithinRetryBudget(t *testing.T) {
	spec := BasicHybridSpeculative(8)
	spec.Faults = fault.Config{Seed: 7, CorruptRate: 1e-3, DropRate: 1e-3}
	cfg := RunConfig{
		Bench: traffic.Multicast{N: 8, Frac: 0.10}, LoadGFs: 0.3, Seed: 1,
		Warmup: 40 * sim.Nanosecond, Measure: 320 * sim.Nanosecond, Drain: 2000 * sim.Nanosecond,
	}
	res, err := Run(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.FaultsInjected == 0 {
		t.Fatal("no faults injected: the sweep exercises nothing")
	}
	if res.Retries == 0 || res.RecoveredFlits == 0 {
		t.Errorf("faults injected (%d) but no recovery recorded (retries=%d, recovered=%d)",
			res.FaultsInjected, res.Retries, res.RecoveredFlits)
	}
	if res.LostFlits != 0 || res.LostPackets != 0 {
		t.Errorf("lost %d flits / %d packets within the retry budget", res.LostFlits, res.LostPackets)
	}
	if res.Completion != 1.0 {
		t.Errorf("completion %.4f, want 1.0 (all %d measured packets delivered)",
			res.Completion, res.MeasuredPackets)
	}
}

// TestFaultsDisabledLeavesCountersZero pins the invariant that a spec
// with a zero fault config reports all-zero fault counters.
func TestFaultsDisabledLeavesCountersZero(t *testing.T) {
	res, err := Run(BasicHybridSpeculative(8), RunConfig{
		Bench: traffic.UniformRandom{N: 8}, LoadGFs: 0.2, Seed: 1,
		Warmup: 20 * sim.Nanosecond, Measure: 80 * sim.Nanosecond, Drain: 40 * sim.Nanosecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.FaultsInjected != 0 || res.Retries != 0 || res.RecoveredFlits != 0 ||
		res.LostFlits != 0 || res.LostPackets != 0 {
		t.Errorf("fault counters nonzero with faults disabled: %+v", res)
	}
}

// Fault specs are single-die, so they run on one scheduler: Shards > 1
// on one is a *ConfigError naming the field on every entry path.
func TestFaultSpecRejectsShards(t *testing.T) {
	job := faultTestJobs(t)[0]
	checkRejectsShards(t, job.Spec, job.Cfg)
}
