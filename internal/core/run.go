package core

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"strings"

	"asyncnoc/internal/fault"
	"asyncnoc/internal/mesh"
	"asyncnoc/internal/metrics"
	"asyncnoc/internal/network"
	"asyncnoc/internal/packet"
	"asyncnoc/internal/power"
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
	// backstop (see Run).
	MaxEvents uint64
	// Shards partitions the network into this many regions, each driven
	// by its own scheduler shard under conservative lookahead (see
	// network.NewSharded). Results, goldens, and traces are byte-identical
	// at any shard count, so the engine's memo keys deliberately ignore
	// it. Values <= 1 select the serial engine; counts above N clamp to
	// N; fault-enabled specs silently fall back to serial (the fault
	// stream is global mutable state on the hot path).
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

// Run executes one simulation and returns its measurements. Protocol
// violations inside the model surface as *ProtocolError; a wedged or
// runaway simulation aborts with *DeadlockError or *LivelockError.
func Run(spec network.Spec, cfg RunConfig) (RunResult, error) {
	return RunContext(context.Background(), spec, cfg)
}

// RunContext is Run with cancellation: the simulation is checked against
// ctx between event batches and aborts with ctx.Err() once it is done.
func RunContext(ctx context.Context, spec network.Spec, cfg RunConfig) (res RunResult, err error) {
	defer RecoverViolations(spec.Name, &err)
	nw, err := Build(spec, cfg)
	if err != nil {
		return RunResult{}, err
	}
	if g := nw.Group(); g != nil {
		defer g.Close()
	}
	if err := attachInstruments(nw, cfg.Instruments); err != nil {
		return RunResult{}, err
	}
	total := runSpan(cfg)
	maxEvents := cfg.MaxEvents
	if maxEvents == 0 && spec.Faults.Enabled() {
		// Automatic backstop for fault runs: generous enough that any
		// legitimate simulation fits with orders of magnitude to spare,
		// tight enough to stop a retransmission storm. Saturate rather
		// than wrap for absurdly long spans.
		maxEvents = uint64(total)
		if mul := uint64(spec.N) * 64; maxEvents > math.MaxUint64/mul {
			maxEvents = math.MaxUint64
		} else {
			maxEvents *= mul
		}
	}
	h := motHarness(nw)
	if err := h.runGuarded(ctx, total, maxEvents); err != nil {
		_ = finishInstruments(cfg.Instruments) // best effort on an aborted run
		return RunResult{}, err
	}
	res = h.collect(cfg.Bench.Name(), cfg.LoadGFs)
	if err := finishInstruments(cfg.Instruments); err != nil {
		return res, err
	}
	return res, nil
}

// RunMesh executes one 2D-mesh simulation through the same path as
// RunContext: injectors, windows, the guarded loop and the collector are
// shared, so MaxEvents and ctx bound a mesh run exactly like a MoT run.
// The benchmark's destination space must equal the tile count. The mesh
// runs on one scheduler (mesh.Spec.MaxShards is 1), so cfg.Shards never
// changes anything, and it has no observer surface for Instruments yet.
func RunMesh(ctx context.Context, spec mesh.Spec, cfg RunConfig) (res RunResult, err error) {
	defer RecoverViolations(spec.Name, &err)
	if err := cfg.Validate(); err != nil {
		return RunResult{}, err
	}
	if len(cfg.Instruments) > 0 {
		return RunResult{}, fmt.Errorf("mesh %s: RunConfig.Instruments is not supported on the mesh topology", spec.Name)
	}
	m, err := mesh.New(spec)
	if err != nil {
		return RunResult{}, err
	}
	h := harness{
		fab: meshFabric{m}, name: spec.Name, terms: spec.Tiles(), packetLen: spec.PacketLen,
		clock: m.Sched, rec: m.Rec, meter: m.Meter,
	}
	h.arm(cfg, nil)
	if err := h.runGuarded(ctx, runSpan(cfg), cfg.MaxEvents); err != nil {
		return RunResult{}, err
	}
	return h.collect(cfg.Bench.Name(), cfg.LoadGFs), nil
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

// fabric is the injection surface of one node/link network.
// *network.Network (a MoT die or a chiplet composition) implements it
// directly and meshFabric adapts the 2D mesh, so every topology shares
// one injector.
type fabric interface {
	// SchedFor returns the scheduler source src's injector arms on.
	SchedFor(src int) *sim.Scheduler
	// Inject creates one packet from src at the current simulated time.
	Inject(src int, dests packet.DestSet) (*packet.Packet, error)
}

// meshFabric adapts the mesh, whose tiles all share one scheduler.
type meshFabric struct{ *mesh.Mesh }

// SchedFor implements fabric.
func (m meshFabric) SchedFor(int) *sim.Scheduler { return m.Sched }

// harness is one built fabric as the run path sees it: the single
// build/run/collect loop reads nothing else.
type harness struct {
	fab       fabric
	name      string
	terms     int
	packetLen int
	clock     clock
	rec       *metrics.Recorder
	meter     *power.Meter
	// nw is the MoT network behind fab, nil on a mesh: only the MoT has
	// a fault layer, stuck-flit diagnostics, per-level fanout counters
	// and die-to-die links.
	nw *network.Network
}

// motHarness wraps a built MoT network, serial or sharded.
func motHarness(nw *network.Network) harness {
	h := harness{
		fab: nw, name: nw.Spec.Name, terms: nw.Spec.Terminals(), packetLen: nw.Spec.PacketLen,
		clock: nw.Sched, rec: nw.Rec, meter: nw.Meter, nw: nw,
	}
	if g := nw.Group(); g != nil {
		h.clock = g
	}
	return h
}

// watchdogChunks is the granularity of the guarded run loop: the budget
// and the context are consulted this many times over the simulated span.
const watchdogChunks = 64

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

// runGuarded drives the clock to `total` simulated picoseconds under
// the watchdog. Without a context deadline or event budget it is the
// plain single RunUntil of the original harness (bit-identical); with
// either, the same event sequence is dispatched in bounded chunks so the
// run can abort between batches. In both modes quiescence with flits
// still held in the fabric is diagnosed as a deadlock.
func (h *harness) runGuarded(ctx context.Context, total sim.Time, maxEvents uint64) error {
	clk := h.clock
	if ctx.Done() == nil && maxEvents == 0 {
		clk.RunUntil(total)
	} else {
		chunk := total / watchdogChunks
		if chunk < 1 {
			chunk = 1
		}
		// With faults enabled, watch for wedged links: injection runs for
		// the whole span, so a stuck channel never quiesces the event
		// queue — instead it pins one flit in one channel forever. Fault
		// specs never shard, so this only ever runs on one scheduler.
		watchHolds := h.nw != nil && h.nw.FaultStats() != nil
		streaks := make(map[int]holdStreak)
		for t := chunk; ; t = sim.AddSat(t, chunk) {
			if t > total {
				t = total
			}
			clk.RunUntil(t)
			if err := ctx.Err(); err != nil {
				return err
			}
			if maxEvents > 0 && clk.Executed() > maxEvents {
				return &LivelockError{Network: h.name, Events: clk.Executed(), At: clk.Now()}
			}
			if watchHolds {
				next := make(map[int]holdStreak)
				for _, hold := range h.nw.ChannelHolds() {
					s := streaks[hold.Chan]
					if s.hold == hold {
						s.count++
					} else {
						s = holdStreak{hold: hold, count: 1}
					}
					if s.count >= heldBoundaries {
						return &DeadlockError{Network: h.name, At: clk.Now(), Stuck: h.nw.StuckFlits()}
					}
					next[hold.Chan] = s
				}
				streaks = next
			}
			if t >= total || clk.Len() == 0 {
				break
			}
		}
		if clk.Now() < total {
			clk.RunUntil(total) // advance the clock past an early quiescence
		}
	}
	if clk.Len() == 0 && h.nw != nil {
		if stuck := h.nw.StuckFlits(); len(stuck) > 0 {
			return &DeadlockError{Network: h.name, At: clk.Now(), Stuck: stuck}
		}
	}
	return nil
}

// resolveShards decides the effective shard count for a run: <= 1 keeps
// the serial engine, fault-enabled specs silently fall back to it, and
// counts above spec.MaxShards() clamp to it (one tree per shard on a
// single die, one die per shard on a chiplet composition — the finest
// useful partitions).
func resolveShards(spec network.Spec, k int) int {
	if k <= 1 || spec.Faults.Enabled() {
		return 1
	}
	if mk := spec.MaxShards(); k > mk {
		k = mk
	}
	return k
}

// newNetwork builds spec serial or partitioned into the resolved number
// of shards.
func newNetwork(spec network.Spec, shards int) (*network.Network, error) {
	k := resolveShards(spec, shards)
	if k <= 1 {
		return network.New(spec)
	}
	return network.NewSharded(spec, k)
}

// Build constructs the network with injection processes armed and
// measurement windows set, but does not run it. Callers that need custom
// instrumentation (tracing, stepping) use Build + Collect directly.
// With cfg.Shards > 1 the network comes back sharded (see
// network.NewSharded): drive it with Group().RunUntil and Close the
// group when done — RunContext does both.
func Build(spec network.Spec, cfg RunConfig) (*network.Network, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	var wide traffic.WideBenchmark
	if spec.Chiplet != nil {
		w, ok := cfg.Bench.(traffic.WideBenchmark)
		if !ok {
			return nil, fmt.Errorf("core: benchmark %s cannot address chiplet composition %s (needs traffic.WideBenchmark)",
				cfg.Bench.Name(), spec.Name)
		}
		wide = w
	}
	nw, err := newNetwork(spec, cfg.Shards)
	if err != nil {
		return nil, err
	}
	h := motHarness(nw)
	h.arm(cfg, wide)
	return nw, nil
}

// arm sets the measurement windows, pre-sizes the recorder, and starts
// one open-loop Poisson injector per terminal. A non-nil wide benchmark
// drives hierarchical injection over a chiplet composition of dies.
func (h *harness) arm(cfg RunConfig, wide traffic.WideBenchmark) {
	windowEnd := sim.AddSat(cfg.Warmup, cfg.Measure)
	h.rec.SetWindow(cfg.Warmup, windowEnd)
	h.meter.SetWindow(cfg.Warmup, windowEnd)
	injectUntil := sim.AddSat(windowEnd, cfg.Drain)
	// Mean packet inter-arrival in ps: PacketLen flits at LoadGFs
	// flits/ns per source.
	meanGapPs := float64(h.packetLen) / cfg.LoadGFs * 1000
	// Pre-size the recorder from the injection schedule: open-loop
	// Poisson processes inject span/meanGap packets each in expectation.
	// The 9/8 headroom absorbs ordinary Poisson fluctuation; an
	// underestimate only costs amortized growth.
	expected := float64(injectUntil) / meanGapPs * float64(h.terms)
	h.rec.Reserve(int(expected*9/8) + h.terms)
	root := rng.New(cfg.Seed)
	for s := 0; s < h.terms; s++ {
		inj := &injector{
			fab: h.fab, sched: h.fab.SchedFor(s), bench: cfg.Bench, src: s, r: root.Split(),
			meanGapPs: meanGapPs, injectUntil: injectUntil,
		}
		if wide != nil {
			// Per-injector destination buffer: injectors on different
			// shards run concurrently, so the scratch space cannot be
			// shared.
			inj.wide, inj.byDie = wide, make([]packet.DestSet, h.nw.Spec.Dies())
		}
		inj.sched.In(gap(inj.r, meanGapPs), inj, 0)
	}
}

// injector drives one source's open-loop Poisson process: each event
// injects a packet and re-arms itself after an exponential gap, stopping
// once the drain window closes. It runs on its source's scheduler —
// the source tree's shard in a sharded run.
type injector struct {
	fab         fabric
	sched       *sim.Scheduler
	bench       traffic.Benchmark
	src         int
	r           *rng.Source
	meanGapPs   float64
	injectUntil sim.Time

	// wide/byDie drive hierarchical injection on chiplet compositions
	// (always a *network.Network): the benchmark fills one local
	// destination mask per die into the injector-owned scratch buffer
	// and the packet enters via InjectWide.
	wide  traffic.WideBenchmark
	byDie []packet.DestSet
}

// OnEvent implements sim.Handler.
func (in *injector) OnEvent(int64) {
	if in.sched.Now() >= in.injectUntil {
		return
	}
	if in.wide != nil {
		in.wide.NextWideDests(in.src, in.byDie, in.r)
		if err := in.fab.(*network.Network).InjectWide(in.src, in.byDie); err != nil {
			panic(fault.Violationf(fmt.Sprintf("benchmark %s", in.bench.Name()), "%v", err))
		}
	} else if _, err := in.fab.Inject(in.src, in.bench.NextDests(in.src, in.r)); err != nil {
		// A benchmark producing an invalid destination set is a
		// protocol-level modeling bug; surface it as one.
		panic(fault.Violationf(fmt.Sprintf("benchmark %s", in.bench.Name()), "%v", err))
	}
	in.sched.In(gap(in.r, in.meanGapPs), in, 0)
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
	h := motHarness(nw)
	return h.collect(cfg.Bench.Name(), cfg.LoadGFs)
}

// collect extracts a finished run's measurements; bench and load label
// the result.
func (h *harness) collect(bench string, load float64) RunResult {
	res := RunResult{
		Network:         h.name,
		Benchmark:       bench,
		LoadGFs:         load,
		ThroughputGFs:   h.rec.ThroughputGFs(h.terms),
		PowerMW:         h.meter.PowerMW(),
		Completion:      h.rec.CompletionRate(),
		MeasuredPackets: h.rec.MeasuredCreated(),
	}
	if sum := h.rec.LatencySummary(); sum.Count() > 0 {
		// Sort-once summary: one sort serves all four latency figures.
		res.AvgLatencyNs = sum.Mean()
		res.P50LatencyNs = sum.P50()
		res.P95LatencyNs = sum.P95()
		res.P99LatencyNs = sum.P99()
	}
	res.LostMeasuredPackets = h.rec.MeasuredLost()
	copy(res.ForwardsPerLevel[:], h.rec.ForwardsPerLevel())
	copy(res.ThrottlesPerLevel[:], h.rec.ThrottlesPerLevel())
	res.RedundantFraction = h.rec.RedundantFraction()
	nw := h.nw
	if nw == nil {
		return res
	}
	res.Levels = nw.MoT.Levels
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
