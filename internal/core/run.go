package core

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"strings"

	"asyncnoc/internal/fault"
	"asyncnoc/internal/metrics"
	"asyncnoc/internal/network"
	"asyncnoc/internal/packet"
	"asyncnoc/internal/rng"
	"asyncnoc/internal/sim"
	"asyncnoc/internal/traffic"
)

// RunConfig parameterizes one simulation run. Packet injection at every
// source is an open-loop Poisson process whose rate realizes LoadGFs
// offered flits per nanosecond per source.
type RunConfig struct {
	// Bench generates destination sets.
	Bench traffic.Benchmark
	// LoadGFs is the offered load in gigaflits/s (== flits/ns) per source.
	LoadGFs float64
	// Seed drives all randomness; equal seeds reproduce runs exactly.
	Seed uint64
	// Warmup precedes the measurement window (Section 5.1 uses long
	// warmup phases).
	Warmup sim.Time
	// Measure is the measurement window length.
	Measure sim.Time
	// Drain is extra simulated time after the window during which
	// injection continues (holding the network at load) so measured
	// packets can complete under steady-state conditions.
	Drain sim.Time
	// MaxEvents is the watchdog's event budget: a run dispatching more
	// events aborts with a LivelockError. Zero selects no explicit
	// budget; runs with faults enabled then get a generous automatic
	// backstop (see Run). A run whose result became final before the
	// budget ran out stops there and returns that result (see
	// RunContext), so a budget a full-span run would exceed only in its
	// drain does not fail the run.
	MaxEvents uint64
	// Shards partitions a chiplet composition into this many regions of
	// whole dies, each driven by its own scheduler shard under
	// conservative lookahead (see network.NewSharded). Results, goldens,
	// and traces are byte-identical at any shard count, so the engine's
	// memo keys deliberately ignore it. Values <= 1 select the serial
	// engine; counts above spec.Dies() clamp to it. A single die
	// (fault-enabled specs included) and a mesh run on one scheduler
	// only, so Shards > 1 on them is a *ConfigError on every entry path,
	// even when the engine holds a serial result of the same job key. No
	// command-line tool sets it: sharding is slower than serial on every
	// measured case and survives only for the determinism gates and the
	// benchmark.
	Shards int
	// Instruments are attached to the built network before the run and
	// finished (flushed) after it; see Instrument. Instrumented runs are
	// executed fresh, never served from the engine's memo.
	Instruments []Instrument
}

// FieldError names one invalid RunConfig field and why it is invalid.
type FieldError struct {
	Field  string
	Reason string
}

func (e FieldError) String() string { return e.Field + ": " + e.Reason }

// ConfigError reports every invalid field of a RunConfig or SatConfig at
// once, so a caller building a configuration from flags or a file sees
// the full repair list in one round trip instead of one field per
// attempt.
type ConfigError struct {
	Fields []FieldError
	// config names the validated type; empty means RunConfig.
	config string
}

func (e *ConfigError) Error() string {
	var b strings.Builder
	b.WriteString("core: invalid " + cmp.Or(e.config, "RunConfig") + ": ")
	for i, f := range e.Fields {
		if i > 0 {
			b.WriteString("; ")
		}
		b.WriteString(f.String())
	}
	return b.String()
}

// Validate checks the configuration, aggregating every invalid field
// into a single *ConfigError.
func (c RunConfig) Validate() error {
	var fields []FieldError
	add := func(field, format string, args ...any) {
		fields = append(fields, FieldError{Field: field, Reason: fmt.Sprintf(format, args...)})
	}
	if c.Bench == nil {
		add("Bench", "needs a benchmark")
	}
	if c.LoadGFs <= 0 {
		add("LoadGFs", "offered load %v must be positive", c.LoadGFs)
	}
	if c.Warmup < 0 {
		add("Warmup", "warmup %v must not be negative", c.Warmup)
	}
	if c.Measure <= 0 {
		add("Measure", "measurement window %v must be positive", c.Measure)
	}
	if c.Drain < 0 {
		add("Drain", "drain %v must not be negative", c.Drain)
	}
	for i, ins := range c.Instruments {
		if ins == nil {
			add("Instruments", "instrument %d is nil", i)
		}
	}
	if c.Shards < 0 {
		add("Shards", "shard count %d must not be negative", c.Shards)
	}
	if len(fields) > 0 {
		return &ConfigError{Fields: fields}
	}
	return nil
}

// The paper's standard measurement windows (Section 5.1) and offered
// load, used by DefaultRunConfig.
const (
	DefaultWarmup  = 320 * sim.Nanosecond
	DefaultMeasure = 3200 * sim.Nanosecond
	DefaultDrain   = 800 * sim.Nanosecond
	DefaultLoadGFs = 0.4
)

// DefaultRunConfig returns the paper's standard setup for an n-terminal
// network: uniform random traffic at 0.4 GFs per source with the
// Section 5.1 warmup/measure/drain windows and seed 1. Callers override
// individual fields before running.
func DefaultRunConfig(n int) RunConfig {
	return RunConfig{
		Bench:   traffic.UniformRandom{N: n},
		LoadGFs: DefaultLoadGFs,
		Seed:    1,
		Warmup:  DefaultWarmup,
		Measure: DefaultMeasure,
		Drain:   DefaultDrain,
	}
}

// MaxLevels is the deepest fanout tree the topology supports (N ≤ 64 ⇒
// log2(N) ≤ 6); RunResult's per-level counters are sized to it so the
// struct stays comparable.
const MaxLevels = 6

// RunResult summarizes one run.
type RunResult struct {
	Network   string
	Benchmark string
	// LoadGFs echoes the offered per-source load.
	LoadGFs float64
	// AvgLatencyNs is the mean network latency (injection to arrival of
	// all headers) of packets injected inside the measurement window.
	AvgLatencyNs float64
	// P50LatencyNs is the median latency.
	P50LatencyNs float64
	// P95LatencyNs is the 95th-percentile latency.
	P95LatencyNs float64
	// P99LatencyNs is the 99th-percentile latency.
	P99LatencyNs float64
	// ThroughputGFs is the accepted throughput: flit deliveries in the
	// window per nanosecond per source.
	ThroughputGFs float64
	// PowerMW is the total network power over the window.
	PowerMW float64
	// Completion is the fraction of measured packets fully delivered by
	// the end of the run (1.0 in any uncongested network).
	Completion float64
	// MeasuredPackets is the number of packets injected in the window.
	MeasuredPackets int
	// LostMeasuredPackets is how many measured-window packets the fault
	// layer wrote off after the retry budget (0 without faults).
	LostMeasuredPackets int

	// Levels is the fanout tree depth; only the first Levels entries of
	// the per-level counters below are meaningful.
	Levels int
	// ForwardsPerLevel and ThrottlesPerLevel count fanout flit movements
	// per tree level (root first, fixed-size so RunResult stays
	// comparable and memo-safe) inside the measurement window: forwards
	// are flits committed to output ports, throttles are redundant
	// speculative copies absorbed. Together they quantify the paper's
	// locality claim — speculation waste dying one level below each
	// speculative node.
	ForwardsPerLevel  [MaxLevels]int64
	ThrottlesPerLevel [MaxLevels]int64
	// RedundantFraction is throttled flits over all fanout movements in
	// the window.
	RedundantFraction float64

	// Hierarchy-level breakout, all zero on single-die networks: a
	// chiplet composition splits the measured packets into the intra-die
	// class (source and destinations on the same die) and the D2D class
	// (legs that crossed the interposer).
	//
	// D2DMeasuredPackets counts completed measured packets/legs that
	// crossed at least one die-to-die hop.
	D2DMeasuredPackets int
	// AvgIntraLatencyNs / P95IntraLatencyNs summarize the intra-die
	// class's latency.
	AvgIntraLatencyNs float64
	P95IntraLatencyNs float64
	// AvgD2DLatencyNs / P95D2DLatencyNs summarize the D2D class's
	// latency (serialization + interposer hops + ingress-die fanout).
	AvgD2DLatencyNs float64
	P95D2DLatencyNs float64
	// D2DThroughputGFs is the D2D share of the accepted throughput.
	D2DThroughputGFs float64
	// D2DPowerMW is the interposer-link share of PowerMW.
	D2DPowerMW float64
	// D2DFlitHops counts flit-hop interposer crossings in the window.
	D2DFlitHops int64

	// Fault-layer counters, all zero when the spec's fault config is
	// disabled (see fault.Stats for the precise semantics).
	FaultsInjected int
	Retries        int
	RecoveredFlits int
	LostFlits      int
	LostPackets    int
}

// Run executes one simulation of any topology (a MoT die, a chiplet
// composition or a 2D mesh) and returns its measurements. Protocol
// violations inside the model surface as *ProtocolError; a wedged or
// runaway simulation aborts with *DeadlockError or *LivelockError.
func Run(spec network.Spec, cfg RunConfig) (RunResult, error) {
	return RunContext(context.Background(), spec, cfg)
}

// RunContext is Run with cancellation: the simulation is checked against
// ctx between event batches and aborts with ctx.Err() once it is done.
//
// The run stops at the first watchdog chunk boundary where its result is
// final (the window has closed and every measured packet has arrived):
// from there on no RunResult field can change, so the result equals the
// full-span run's. An event-budget, deadlock or context error that the
// full span would raise only after that point therefore no longer fails
// the run. Instrumented runs, fault-enabled specs and chiplet
// compositions run their full span (see simRun.finalStop).
func RunContext(ctx context.Context, spec network.Spec, cfg RunConfig) (RunResult, error) {
	res, _, err := runContext(ctx, spec, cfg, nil)
	return res, err
}

// runContext is RunContext that also reports whether the run stopped at
// a final result short of its span. nets, when non-nil, supplies the
// network's storage and takes it back after a clean run (see
// simRun.close).
func runContext(ctx context.Context, spec network.Spec, cfg RunConfig, nets *netCache) (res RunResult, cut bool, err error) {
	defer RecoverViolations(spec.Name, &err)
	r, err := startRun(spec, cfg, nets)
	if err != nil {
		return RunResult{}, false, err
	}
	// Only a run that returns its result hands its network on: a panic
	// or an error leaves clean false.
	clean := false
	defer func() { r.close(clean) }()
	if err := attachInstruments(r.nw, cfg.Instruments); err != nil {
		return RunResult{}, false, err
	}
	if cut, err = r.run(ctx, r.finalStop()); err != nil {
		_ = finishInstruments(cfg.Instruments) // best effort on an aborted run
		return RunResult{}, false, err
	}
	res = Collect(r.nw, cfg)
	if err := finishInstruments(cfg.Instruments); err != nil {
		return res, cut, err
	}
	clean = true
	return res, cut, nil
}

// simRun is one built fabric — a MoT die, a chiplet composition or a 2D
// mesh — from its build to its collect, with the watchdog loop that
// drives its clock to the end of the span under the event budget, the
// context and (on fault-enabled networks) the wedged-link watch. The
// loop keeps its position between calls, so a run stopped at a chunk
// boundary (a saturation probe at its verdict) resumes exactly where it
// left off.
type simRun struct {
	cfg   RunConfig
	nw    *network.Network
	clock clock
	// nets takes the network back when the run closes cleanly; nil when
	// it is never reused.
	nets *netCache

	total     sim.Time
	maxEvents uint64
	// t is the last chunk boundary reached (0 before the first call);
	// step is advance's adaptive step, and streaks the wedged-link
	// watch's per-channel hold counts.
	t, chunk, step sim.Time
	watchHolds     bool
	streaks        map[int]holdStreak
}

// startRun validates cfg against spec and returns the run built and
// armed for it (simRun.start).
func startRun(spec network.Spec, cfg RunConfig, nets *netCache) (*simRun, error) {
	r := new(simRun)
	if err := r.start(spec, cfg, nets); err != nil {
		return nil, err
	}
	return r, nil
}

// start validates cfg against spec, builds r for it (simRun.build) and
// arms it: one Poisson injector per terminal (see arm).
func (r *simRun) start(spec network.Spec, cfg RunConfig, nets *netCache) error {
	if err := checkRun(spec, cfg); err != nil {
		return err
	}
	if err := r.build(spec, cfg, nets); err != nil {
		return err
	}
	return r.arm()
}

// build builds the network of spec into r with cfg's measurement
// windows set but no traffic, and sets r's watchdog loop to drive it
// over cfg's span (runSpan). Every run is built here; start then arms
// Poisson injectors on the network and RunSchedule its replayer. The
// network is serial, or, for cfg.Shards > 1, partitioned into at most
// spec.Dies() shards of whole dies (callers reject Shards > 1 on a
// single scheduler first, see checkSpec). A serial, uninstrumented run
// builds on the storage of a network nets holds, if any, and returns its
// network there when it closes cleanly; nets may be nil.
func (r *simRun) build(spec network.Spec, cfg RunConfig, nets *netCache) error {
	*r = simRun{cfg: cfg, total: runSpan(cfg), maxEvents: cfg.MaxEvents}
	var prev *network.Network
	if nets != nil && cfg.Shards <= 1 && len(cfg.Instruments) == 0 {
		r.nets = nets
		prev = nets.take()
	}
	var err error
	switch {
	case cfg.Shards > 1:
		r.nw, err = network.NewSharded(spec, min(cfg.Shards, spec.Dies()))
	case prev != nil:
		r.nw, err = network.Rebuild(prev, spec)
	default:
		r.nw, err = network.New(spec)
	}
	if err != nil {
		return err
	}
	r.clock = r.nw.Sched
	if g := r.nw.Group(); g != nil {
		r.clock = g
	}
	windowEnd := sim.AddSat(cfg.Warmup, cfg.Measure)
	r.nw.Rec.SetWindow(cfg.Warmup, windowEnd)
	r.nw.Meter.SetWindow(cfg.Warmup, windowEnd)
	if r.maxEvents == 0 && spec.Faults.Enabled() {
		// Automatic backstop for fault runs: generous enough that any
		// legitimate simulation fits with orders of magnitude to spare,
		// tight enough to stop a retransmission storm. Saturate rather
		// than wrap for absurdly long spans.
		r.maxEvents = uint64(r.total)
		if mul := uint64(spec.N) * 64; r.maxEvents > math.MaxUint64/mul {
			r.maxEvents = math.MaxUint64
		} else {
			r.maxEvents *= mul
		}
	}
	r.chunk = max(r.total/watchdogChunks, 1)
	r.step = min(r.chunk, sim.Nanosecond)
	// With faults enabled, watch for wedged links: injection runs for
	// the whole span, so a stuck channel never quiesces the event queue
	// — instead it pins one flit in one channel forever. Fault specs
	// are single-die and never shard, so this only ever runs on one
	// scheduler.
	r.watchHolds = r.nw.FaultStats() != nil
	return nil
}

// verdict is c's verdict on the run so far (metrics.Recorder.Verdict).
// It is sound only where every measured packet registers at its
// creation, so not on a chiplet composition (see Engine.probe).
func (r *simRun) verdict(c metrics.SatCriterion) metrics.Verdict {
	return r.nw.Rec.Verdict(c, r.clock.Now(), r.total)
}

// finalStop is the stop rule of a full run (simRun.final), or nil for a
// run that must cover its whole span: an instrumented run (its traces,
// waveforms and counters see every event), a fault-enabled spec (its
// FaultStats count over the whole span) and a chiplet composition (a
// die-to-die leg registers only when it reaches its target die, so the
// measured set is not final when the window closes).
func (r *simRun) finalStop() func() bool {
	if len(r.cfg.Instruments) > 0 || r.nw.Spec.Faults.Enabled() || r.nw.Spec.Chiplet != nil {
		return nil
	}
	return r.final
}

// close ends the run: a sharded run's group closes, and the network of
// a clean run (one that returned its result, or a probe that stopped at
// its verdict) goes back to nets for the next run. Nothing of the run
// survives in it: the next build rewrites every component
// (network.Rebuild). The run must not be used afterwards.
func (r *simRun) close(clean bool) {
	if g := r.nw.Group(); g != nil {
		g.Close()
	} else if clean && r.nets != nil {
		r.nets.put(r.nw)
	}
	r.nw, r.clock = nil, nil
}

// runSpan is a run's simulated length: injection continues through the
// drain window, so the run ends when it closes.
func runSpan(cfg RunConfig) sim.Time {
	return sim.AddSat(sim.AddSat(cfg.Warmup, cfg.Measure), cfg.Drain)
}

// clock is what the guarded loop advances: *sim.Scheduler drives a
// serial network, *sim.ShardGroup a sharded one. The serial engine is
// just the one-shard driver of the same loop.
type clock interface {
	RunUntil(sim.Time)
	Now() sim.Time
	Len() int
	Executed() uint64
}

// maxReserve caps the recorder's latency-buffer pre-sizing in packets,
// well above the largest paper-scale measurement window.
const maxReserve = 1 << 20

// watchdogChunks is the granularity of the guarded run loop: the budget
// and the context are consulted this many times over the simulated span.
const watchdogChunks = 64

// stepEvents is the watchdog's wall-time granularity in dispatched
// events (see simRun.advance).
const stepEvents = 1 << 16

// heldBoundaries is the wedge threshold: a flit occupying the same
// channel at this many consecutive chunk boundaries (i.e. for at least
// heldBoundaries-1 chunks, ~3% of the simulated span per chunk) is
// diagnosed as a deadlock. Legitimate channel holds last nanoseconds in
// the below-saturation regimes fault runs use; a wedged link holds its
// flit forever.
const heldBoundaries = 3

// holdStreak tracks how many consecutive boundaries one channel has held
// the same flit.
type holdStreak struct {
	hold  network.ChannelHold
	count int
}

// final reports that the run's RunResult can no longer change: the
// measurement window has closed, so no packet joins the measured set and
// no flit delivery, fanout movement or energy is counted any more
// (Recorder and Meter count only inside the window), and every measured
// packet has completed, so no latency sample is pending. The rest of the
// drain cannot move the result. The caller guarantees that every
// measured packet registers at its creation (not so on a chiplet
// composition) and that nothing it reports counts past the window (not
// so for the fault layer's counters).
func (r *simRun) final() bool {
	rec := r.nw.Rec
	return r.clock.Now() >= rec.WindowEnd && rec.MeasuredCompleted() == rec.MeasuredCreated()
}

// run drives the clock on toward the end of the span. Without a context
// deadline, event budget or stop rule it is one plain RunUntil; with any
// of them, the same event sequence is dispatched in watchdogChunks
// chunks so the run can abort between batches. stop, when non-nil, is
// consulted at every chunk boundary short of the end: when it returns
// true, run returns stopped=true with the run suspended at that
// boundary, and a later call continues it. In both modes, quiescence at
// the end with flits still held in the fabric is diagnosed as a
// deadlock; a run that ends with events pending drains first (see
// drain).
func (r *simRun) run(ctx context.Context, stop func() bool) (stopped bool, err error) {
	clk := r.clock
	if r.t == 0 && ctx.Done() == nil && r.maxEvents == 0 && stop == nil {
		clk.RunUntil(r.total)
	} else {
		for {
			r.t = min(sim.AddSat(r.t, r.chunk), r.total)
			if err := r.advance(ctx, r.t); err != nil {
				return false, err
			}
			if r.watchHolds {
				if err := r.watch(); err != nil {
					return false, err
				}
			}
			if r.t >= r.total || clk.Len() == 0 {
				break
			}
			if stop != nil && stop() {
				return true, nil
			}
		}
		if clk.Now() < r.total {
			clk.RunUntil(r.total) // advance the clock past an early quiescence
		}
	}
	if clk.Len() > 0 {
		r.drain()
	}
	if clk.Len() == 0 {
		if stuck := r.nw.StuckFlits(); len(stuck) > 0 {
			return false, &DeadlockError{Network: r.nw.Spec.Name, At: clk.Now(), Stuck: stuck}
		}
	}
	return false, nil
}

// drain runs a finished run's fabric on, with no new traffic (no
// injector event outlives the span), for at most one more chunk: a
// wedge whose fabric still carried healthy traffic at the end then
// quiesces and is diagnosed, while a saturated fabric keeps its backlog
// and is left alone. The recorder closes and the trace is muted first,
// so nothing the drain does reaches the run's result or its observers.
// A fault-enabled network is not drained (its fault counters count to
// the end, and watch finds its wedged links while it runs), nor is a
// chiplet composition (its serial and sharded runs dispatch the same
// events).
func (r *simRun) drain() {
	nw := r.nw
	if r.watchHolds || nw.Spec.Chiplet != nil {
		return
	}
	nw.Rec.Close()
	trace := nw.Trace
	nw.Trace = nil
	r.clock.RunUntil(sim.AddSat(r.total, r.chunk))
	nw.Trace = trace
}

// watch updates the wedged-link streaks at a chunk boundary and reports
// a flit held by one channel for heldBoundaries boundaries as a deadlock.
func (r *simRun) watch() error {
	next := make(map[int]holdStreak)
	for _, hold := range r.nw.ChannelHolds() {
		s := r.streaks[hold.Chan]
		if s.hold == hold {
			s.count++
		} else {
			s = holdStreak{hold: hold, count: 1}
		}
		if s.count >= heldBoundaries {
			return &DeadlockError{Network: r.nw.Spec.Name, At: r.clock.Now(), Stuck: r.nw.StuckFlits()}
		}
		next[hold.Chan] = s
	}
	r.streaks = next
	return nil
}

// advance runs the clock to t in steps, checking ctx and the event
// budget after each. The step is re-sized from the observed event rate so
// that one step dispatches about stepEvents events: a chunk of a huge
// simulated span then still returns control every few milliseconds.
// Splitting RunUntil does not change the dispatch sequence.
func (r *simRun) advance(ctx context.Context, t sim.Time) error {
	clk := r.clock
	for {
		before := clk.Executed()
		clk.RunUntil(min(sim.AddSat(clk.Now(), r.step), t))
		if err := ctx.Err(); err != nil {
			return err
		}
		if r.maxEvents > 0 && clk.Executed() > r.maxEvents {
			return &LivelockError{Network: r.nw.Spec.Name, Events: clk.Executed(), At: clk.Now()}
		}
		if clk.Now() >= t {
			return nil
		}
		switch n := clk.Executed() - before; {
		case n < stepEvents/2:
			r.step = sim.AddSat(r.step, r.step)
		case n > 2*stepEvents:
			r.step = max(r.step/2, 1)
		}
	}
}

// checkSpec validates spec, then rejects Shards > 1 on a run that
// executes on one scheduler: a single die (fault-enabled specs are
// always single-die, see network.Spec.Validate) or a mesh. A sharded run
// partitions a chiplet composition by die; running serial instead would
// hide that the requested partition never happened. Engine lookups call
// it before the memo: a mesh's job key leaves out the fields its spec
// must not set, so an invalid mesh spec shares a valid one's key.
func checkSpec(spec network.Spec, cfg RunConfig) error {
	if err := spec.Validate(); err != nil {
		return err
	}
	if spec.Chiplet != nil || cfg.Shards <= 1 {
		return nil
	}
	what := "single-die spec"
	if spec.Mesh != nil {
		what = "mesh"
	}
	return &ConfigError{Fields: []FieldError{{Field: "Shards",
		Reason: fmt.Sprintf("%d shards requested, but %s %s runs on one scheduler", cfg.Shards, what, spec.Name)}}}
}

// checkRun validates cfg, then checks it against spec (checkSpec).
func checkRun(spec network.Spec, cfg RunConfig) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	return checkSpec(spec, cfg)
}

// Build constructs the network with injection processes armed and
// measurement windows set, but does not run it. Callers that need custom
// instrumentation (tracing, stepping) use Build + Collect directly.
// With cfg.Shards > 1 a chiplet composition comes back sharded (see
// network.NewSharded): drive it with Group().RunUntil and Close the
// group when done — RunContext does both.
func Build(spec network.Spec, cfg RunConfig) (*network.Network, error) {
	var r simRun // only the network outlives Build, so r stays off the heap
	if err := r.start(spec, cfg, nil); err != nil {
		return nil, err
	}
	return r.nw, nil
}

// arm pre-sizes the recorder and starts one open-loop Poisson injector
// per terminal. On a chiplet composition of dies the benchmark must be a
// traffic.WideBenchmark, which drives hierarchical injection.
func (r *simRun) arm() error {
	nw, cfg := r.nw, r.cfg
	spec := &nw.Spec
	var wide traffic.WideBenchmark
	if spec.Chiplet != nil {
		w, ok := cfg.Bench.(traffic.WideBenchmark)
		if !ok {
			return fmt.Errorf("core: benchmark %s cannot address chiplet composition %s (needs traffic.WideBenchmark)",
				cfg.Bench.Name(), spec.Name)
		}
		wide = w
	}
	terms := spec.Terminals()
	// Mean packet inter-arrival in ps: PacketLen flits at LoadGFs
	// flits/ns per source.
	meanGapPs := float64(spec.PacketLen) / cfg.LoadGFs * 1000
	// Size the latency buffer from the injection schedule: open-loop
	// Poisson processes create window/meanGap measured packets each in
	// expectation. The 9/8 headroom absorbs ordinary Poisson
	// fluctuation; an underestimate only costs amortized growth, so
	// maxReserve caps what an absurd window (any span a service request
	// names) allocates up front.
	expected := float64(nw.Rec.WindowEnd-nw.Rec.WindowStart) / meanGapPs * float64(terms)
	nw.Rec.Reserve(int(min(expected*9/8, maxReserve)) + terms)
	root := rng.New(cfg.Seed)
	for s := 0; s < terms; s++ {
		inj := &injector{
			nw: nw, sched: nw.SchedFor(s), bench: cfg.Bench, src: s, r: root.Split(),
			meanGapPs: meanGapPs, injectUntil: r.total,
		}
		if wide != nil {
			// Per-injector destination buffer: injectors on different
			// shards run concurrently, so the scratch space cannot be
			// shared.
			inj.wide, inj.byDie = wide, make([]packet.DestSet, spec.Dies())
		}
		inj.next()
	}
	return nil
}

// injector drives one source's open-loop Poisson process: each event
// injects a packet and re-arms itself after an exponential gap, as long
// as the next event lands before the drain window closes. It runs on its
// source's scheduler — the source die's shard in a sharded run.
type injector struct {
	nw          *network.Network
	sched       *sim.Scheduler
	bench       traffic.Benchmark
	src         int
	r           *rng.Source
	meanGapPs   float64
	injectUntil sim.Time

	// wide/byDie drive hierarchical injection on chiplet compositions:
	// the benchmark fills one local destination mask per die into the
	// injector-owned scratch buffer and the packet enters via
	// InjectWide.
	wide  traffic.WideBenchmark
	byDie []packet.DestSet
}

// OnEvent implements sim.Handler.
func (in *injector) OnEvent(int64) {
	if in.wide != nil {
		in.wide.NextWideDests(in.src, in.byDie, in.r)
		if err := in.nw.InjectWide(in.src, in.byDie); err != nil {
			panic(fault.Violationf(fmt.Sprintf("benchmark %s", in.bench.Name()), "%v", err))
		}
	} else if _, err := in.nw.Inject(in.src, in.bench.NextDests(in.src, in.r)); err != nil {
		// A benchmark producing an invalid destination set is a
		// protocol-level modeling bug; surface it as one.
		panic(fault.Violationf(fmt.Sprintf("benchmark %s", in.bench.Name()), "%v", err))
	}
	in.next()
}

// next draws the gap to the injector's next event and arms it, unless it
// would land at or past injectUntil: no injector event outlives the
// span, so a run whose fabric has drained quiesces at its end and a
// wedged one is diagnosed there (simRun.run).
func (in *injector) next() {
	if g := gap(in.r, in.meanGapPs); g < in.injectUntil-in.sched.Now() {
		in.sched.In(g, in, 0)
	}
}

// gap draws an exponential inter-arrival time of at least 1 ps.
func gap(r *rng.Source, meanPs float64) sim.Time {
	g := sim.Time(r.Exp(meanPs))
	if g < 1 {
		g = 1
	}
	return g
}

// Collect extracts the run's measurements from a finished network.
func Collect(nw *network.Network, cfg RunConfig) RunResult {
	return collect(nw, cfg.Bench.Name(), cfg.LoadGFs)
}

// collect extracts a finished run's measurements; bench and load label
// the result.
func collect(nw *network.Network, bench string, load float64) RunResult {
	res := RunResult{
		Network:         nw.Spec.Name,
		Benchmark:       bench,
		LoadGFs:         load,
		ThroughputGFs:   nw.Rec.ThroughputGFs(nw.Spec.Terminals()),
		PowerMW:         nw.Meter.PowerMW(),
		Completion:      nw.Rec.CompletionRate(),
		MeasuredPackets: nw.Rec.MeasuredCreated(),
	}
	if sum := nw.Rec.LatencySummary(); sum.Count() > 0 {
		// Sort-once summary: one sort serves all four latency figures.
		res.AvgLatencyNs = sum.Mean()
		res.P50LatencyNs = sum.P50()
		res.P95LatencyNs = sum.P95()
		res.P99LatencyNs = sum.P99()
	}
	res.LostMeasuredPackets = nw.Rec.MeasuredLost()
	copy(res.ForwardsPerLevel[:], nw.Rec.ForwardsPerLevel())
	copy(res.ThrottlesPerLevel[:], nw.Rec.ThrottlesPerLevel())
	res.RedundantFraction = nw.Rec.RedundantFraction()
	if nw.MoT != nil {
		res.Levels = nw.MoT.Levels
	}
	if nw.Spec.Chiplet != nil {
		res.D2DMeasuredPackets = nw.Rec.MeasuredCompletedD2D()
		if avg, p95, ok := nw.Rec.IntraLatency(); ok {
			res.AvgIntraLatencyNs, res.P95IntraLatencyNs = avg, p95
		}
		if avg, p95, ok := nw.Rec.D2DLatency(); ok {
			res.AvgD2DLatencyNs, res.P95D2DLatencyNs = avg, p95
		}
		res.D2DThroughputGFs = nw.Rec.D2DThroughputGFs(nw.Spec.Terminals())
		res.D2DPowerMW = nw.Meter.D2DPowerMW()
		res.D2DFlitHops = nw.Meter.D2DFlitHops()
	}
	if fs := nw.FaultStats(); fs != nil {
		res.FaultsInjected = fs.Injected
		res.Retries = fs.Retries
		res.RecoveredFlits = fs.RecoveredFlits
		res.LostFlits = fs.LostFlits
		res.LostPackets = fs.LostPackets
	}
	return res
}
