// Package asyncnoc is a simulation and analysis library for lightweight
// multicast in asynchronous Networks-on-Chip using local speculation,
// reproducing Bhardwaj & Nowick, DAC 2016.
//
// The library models an n x n variant Mesh-of-Trees (MoT) asynchronous
// NoC with two-phase bundled-data handshaking at flit granularity. Six
// network architectures are provided:
//
//   - Baseline: the unicast-only network of Horak et al. [21]; multicast
//     is expanded into serial unicasts.
//   - BasicNonSpeculative: simple tree-based parallel multicast.
//   - BasicHybridSpeculative: local speculation — a speculative root
//     level that always broadcasts, surrounded by non-speculative nodes
//     that throttle redundant copies.
//   - OptHybridSpeculative: the hybrid with power-optimized speculative
//     nodes and performance-optimized (channel pre-allocating)
//     non-speculative nodes.
//   - OptNonSpeculative / OptAllSpeculative: the zero- and maximum-
//     speculation extremes of the design space.
//
// Node timing and area come from gate-level netlists of all six switch
// designs (see internal/netlist), analyzed against a 45 nm-calibrated
// cell library; the energy model charges every handshake event to
// regenerate the paper's total network power.
//
// Quick start:
//
//	spec := asyncnoc.OptHybridSpeculative(8)
//	res, err := asyncnoc.Run(spec, asyncnoc.RunConfig{
//	        Bench:   asyncnoc.UniformRandom(8),
//	        LoadGFs: 0.4,
//	        Seed:    1,
//	        Warmup:  320 * asyncnoc.Nanosecond,
//	        Measure: 3200 * asyncnoc.Nanosecond,
//	        Drain:   800 * asyncnoc.Nanosecond,
//	})
//
// All randomness is seeded; equal configurations reproduce results
// exactly.
package asyncnoc

import (
	"context"
	"fmt"
	"io"

	"asyncnoc/internal/chiplet"
	"asyncnoc/internal/core"
	"asyncnoc/internal/fault"
	"asyncnoc/internal/netlist"
	"asyncnoc/internal/network"
	"asyncnoc/internal/obs"
	"asyncnoc/internal/packet"
	"asyncnoc/internal/rng"
	"asyncnoc/internal/routing"
	"asyncnoc/internal/service"
	"asyncnoc/internal/sim"
	"asyncnoc/internal/stats"
	"asyncnoc/internal/store"
	"asyncnoc/internal/timing"
	"asyncnoc/internal/topology"
	"asyncnoc/internal/traffic"
)

// Time re-exports the picosecond simulation timestamp.
type Time = sim.Time

// Time units for configuring windows.
const (
	Picosecond  = sim.Picosecond
	Nanosecond  = sim.Nanosecond
	Microsecond = sim.Microsecond
)

// NetworkSpec describes one network instance of any topology: a MoT
// die, a chiplet composition of dies (its Chiplet field, see
// WithChiplet) or a 2D mesh (its Mesh field, see MeshTree). Every run
// entry, search and Engine job takes one.
type NetworkSpec = network.Spec

// Network is a built simulation instance (exposed for instrumented runs).
type Network = network.Network

// TraceEvent is an observable simulation event (inject, forward,
// throttle, deliver) for instrumented runs.
type TraceEvent = network.TraceEvent

// Trace event kinds.
const (
	TraceInject     = network.TraceInject
	TraceForward    = network.TraceForward
	TraceThrottle   = network.TraceThrottle
	TraceDeliver    = network.TraceDeliver
	TraceRetransmit = network.TraceRetransmit
	TraceDrop       = network.TraceDrop
)

// RunConfig parameterizes one simulation run.
type RunConfig = core.RunConfig

// DefaultRunConfig returns the paper's standard setup for an n-terminal
// network: uniform random traffic at 0.4 GFs per source with the
// Section 5.1 windows (320 ns warmup, 3200 ns measure, 800 ns drain)
// and seed 1. Override individual fields before running.
func DefaultRunConfig(n int) RunConfig { return core.DefaultRunConfig(n) }

// ConfigError reports every invalid RunConfig field at once; its Fields
// list one entry per problem, so callers assembling configurations from
// flags or files see the whole repair list in one round trip.
type ConfigError = core.ConfigError

// FieldError names one invalid RunConfig field and the reason.
type FieldError = core.FieldError

// Instrument observes one simulation run: Attach hooks it onto the built
// network before any event runs, Finish flushes it after the run.
// Instruments ride along in RunConfig.Instruments through every run entry
// point (Run, RunContext, Engine runs, RunSeeds, ...). Instrumented runs
// are always executed fresh — never served from the engine's result memo —
// so the instruments observe a real simulation. Each instrument instance
// should be used for a single run.
type Instrument = core.Instrument

// VCDInstrument dumps handshake activity as an IEEE 1364 Value Change
// Dump into Out; after the run its Rec field holds the recorder.
type VCDInstrument = network.VCDInstrument

// TraceInstrument streams flit-lifecycle events as deterministic JSONL
// into Out; after the run its Sink field exposes the event count.
type TraceInstrument = obs.TraceInstrument

// ShardStatsInstrument captures the shard group's window/barrier
// counters from one sharded chiplet run (RunConfig.Shards > 1); after
// the run its Stats method returns them.
type ShardStatsInstrument = core.ShardStatsInstrument

// ShardStats holds a sharded run's window/barrier diagnostics.
type ShardStats = sim.ShardStats

// RunResult carries one run's measurements.
type RunResult = core.RunResult

// SatConfig parameterizes a saturation-throughput search.
type SatConfig = core.SatConfig

// SatResult carries a saturation search outcome.
type SatResult = core.SatResult

// Benchmark generates destination sets for injected packets.
type Benchmark = traffic.Benchmark

// DestSet is a destination bitmask (bit d == destination d addressed).
type DestSet = packet.DestSet

// Dests builds a destination set from indices.
func Dests(ds ...int) DestSet { return packet.Dests(ds...) }

// ParseDests parses and validates a comma-separated destination list
// ("0,3,5") against an n-terminal network: entries must be integers in
// [0, n) with no duplicates, and the set must not be empty.
func ParseDests(s string, n int) (DestSet, error) { return packet.ParseDestSet(s, n) }

// FixedDests returns a benchmark that sends every packet to one fixed
// destination set (the motsim -dests workload).
func FixedDests(n int, set DestSet) Benchmark { return traffic.Fixed{N: n, Set: set} }

// StrategyNames lists the registered multicast routing strategies in
// reporting order.
func StrategyNames() []string { return routing.StrategyNames() }

// WithStrategy rebuilds a spec to plan injections under the named
// routing strategy (see StrategyNames); the reporting name gains a
// "+strategy" suffix. An empty name keeps the architecture's default.
func WithStrategy(s NetworkSpec, strategy string) NetworkSpec {
	return core.WithStrategy(s, strategy)
}

// Rand is the deterministic random source handed to Benchmark
// implementations; custom traffic patterns implement Benchmark with it.
type Rand = rng.Source

// CustomHybrid returns a hybrid network with an explicit per-level
// speculation vector (root level first; the last level must be
// non-speculative), using the optimized node designs. This opens the
// wider design space the paper describes for larger MoTs (Fig. 3(d)).
func CustomHybrid(n int, specLevels []bool) NetworkSpec {
	s := core.OptHybridSpeculative(n)
	s.Name = fmt.Sprintf("Custom[%s]", levelString(specLevels))
	s.SpecLevels = append([]bool(nil), specLevels...)
	return s
}

func levelString(levels []bool) string {
	out := make([]byte, len(levels))
	for i, s := range levels {
		if s {
			out[i] = 'S'
		} else {
			out[i] = 'N'
		}
	}
	return string(out)
}

// Network constructors (Section 5.1 of the paper). n is the MoT radix
// (a power of two in [2, 64]; the paper evaluates 8).
var (
	// Baseline is the serial-multicast unicast network [21].
	Baseline = core.Baseline
	// BasicNonSpeculative is simple tree-based parallel multicast.
	BasicNonSpeculative = core.BasicNonSpeculative
	// BasicHybridSpeculative applies local speculation with
	// unoptimized nodes.
	BasicHybridSpeculative = core.BasicHybridSpeculative
	// OptHybridSpeculative adds the protocol optimizations.
	OptHybridSpeculative = core.OptHybridSpeculative
	// OptNonSpeculative is the optimized zero-speculation design point.
	OptNonSpeculative = core.OptNonSpeculative
	// OptAllSpeculative is the almost fully speculative extreme.
	OptAllSpeculative = core.OptAllSpeculative
)

// AllNetworks returns the six architectures in reporting order.
func AllNetworks(n int) []NetworkSpec { return core.AllSpecs(n) }

// WithFourPhase returns the spec rebuilt on four-phase (RZ) handshaking
// instead of the paper's two-phase (NRZ) signaling — the protocol
// alternative Section 2 argues against. Useful for ablations.
func WithFourPhase(s NetworkSpec) NetworkSpec {
	s.Protocol = timing.FourPhase
	s.Name += "(4-phase)"
	return s
}

// WithSynchronous derives the clocked comparison point of an
// architecture: same topology and nodes, quantized to a worst-case-path
// clock with clock-tree power charged — the paper's async-vs-sync
// motivation made measurable.
func WithSynchronous(s NetworkSpec) NetworkSpec { return core.Synchronous(s) }

// NetworkByName resolves a reporting name (e.g. "OptHybridSpeculative").
func NetworkByName(n int, name string) (NetworkSpec, error) { return core.SpecByName(n, name) }

// Benchmark constructors (Section 5.1).
func UniformRandom(n int) Benchmark { return traffic.UniformRandom{N: n} }

// Shuffle returns the bit-permutation benchmark.
func Shuffle(n int) Benchmark { return traffic.Shuffle{N: n} }

// Hotspot returns the single-hot-destination benchmark.
func Hotspot(n, hot int) Benchmark { return traffic.Hotspot{N: n, Hot: hot} }

// MulticastFraction returns a mixed benchmark injecting multicast packets
// (random destination subsets) at the given rate; 0.05 and 0.10 are the
// paper's Multicast5 and Multicast10.
func MulticastFraction(n int, frac float64) Benchmark { return traffic.Multicast{N: n, Frac: frac} }

// MulticastStatic returns the benchmark where the first `sources` sources
// send only multicast and the rest uniform random unicast.
func MulticastStatic(n, sources int) Benchmark {
	return traffic.MulticastStatic{N: n, Sources: sources}
}

// Benchmarks returns the paper's six benchmarks in reporting order.
func Benchmarks(n int) []Benchmark { return traffic.StandardSuite(n) }

// BenchmarkByName resolves a benchmark reporting name.
func BenchmarkByName(n int, name string) (Benchmark, error) { return traffic.ByName(n, name) }

// Run executes one simulation of any topology (a MoT die, a chiplet
// composition or a 2D mesh) and returns its measurements.
// Protocol violations inside the model surface as *ProtocolError; a
// wedged or runaway simulation aborts with *DeadlockError or
// *LivelockError.
func Run(spec NetworkSpec, cfg RunConfig) (RunResult, error) { return core.Run(spec, cfg) }

// RunContext is Run with cancellation: the simulation checks ctx between
// event batches and aborts with ctx.Err() once it is done.
func RunContext(ctx context.Context, spec NetworkSpec, cfg RunConfig) (RunResult, error) {
	return core.RunContext(ctx, spec, cfg)
}

// FaultConfig attaches a deterministic fault schedule (transient payload
// corruption, body-flit drops, stuck channels, handshake jitter) and the
// end-to-end recovery protocol's parameters to a NetworkSpec via its
// Faults field. The zero value disables the fault layer entirely; with
// any fault source enabled, the network interfaces run a CRC-checked
// retransmission protocol with capped exponential backoff. All fault
// randomness flows from FaultConfig.Seed, so runs stay bit-reproducible.
type FaultConfig = fault.Config

// StuckChannel wedges one fanout output channel permanently after a
// configured number of delivered flits (FaultConfig.Stuck entries).
type StuckChannel = fault.Stuck

// FaultStats carries a run's fault-injection and recovery counters.
type FaultStats = fault.Stats

// StuckFlit locates one flit wedged in the network fabric (the deadlock
// watchdog's diagnostic unit).
type StuckFlit = network.StuckFlit

// ProtocolError reports an asynchronous-protocol violation recovered at
// the run boundary (a model inconsistency, not a workload failure).
type ProtocolError = core.ProtocolError

// DeadlockError reports a run that quiesced with flits still wedged in
// the fabric; its Stuck field locates every one of them.
type DeadlockError = core.DeadlockError

// LivelockError reports a run that exceeded its event budget
// (RunConfig.MaxEvents) before reaching the end of simulated time.
type LivelockError = core.LivelockError

// PanicError reports a panic recovered from an engine worker; the
// poisoned job fails alone without killing the pool.
type PanicError = core.PanicError

// Engine is the parallel experiment engine: a bounded worker pool with a
// keyed LRU result memo. Every simulation is a pure function of
// (spec, config), so the engine fans independent runs out across
// workers, deduplicates equal runs, and always returns results in job
// order — outputs are bit-identical to serial execution. Saturation,
// LoadSweep, and RunSeeds have Engine methods of the same shapes; the
// package-level functions use a shared default engine sized by the
// ASYNCNOC_WORKERS environment variable (default GOMAXPROCS).
type Engine = core.Engine

// Job is one engine work unit: a single simulation run of any topology.
type Job = core.Job

// NewEngine returns an engine with the given worker-pool size;
// workers <= 0 selects DefaultWorkers().
func NewEngine(workers int) *Engine { return core.NewEngine(workers) }

// DefaultWorkers resolves the default pool size: ASYNCNOC_WORKERS if set
// to a positive integer, otherwise GOMAXPROCS.
func DefaultWorkers() int { return core.DefaultWorkers() }

// JobKey returns the canonical hash of a (spec, config) pair; equal keys
// identify runs that are deterministic replays of each other.
func JobKey(spec NetworkSpec, cfg RunConfig) string { return core.JobKey(spec, cfg) }

// Build constructs an instrumentable network with injection processes
// armed and windows set; drive it with nw.Sched and extract measurements
// with Collect.
func Build(spec NetworkSpec, cfg RunConfig) (*Network, error) { return core.Build(spec, cfg) }

// NewNetwork constructs a bare network instance with no traffic
// processes: inject packets explicitly with nw.Inject and drive the
// simulation with nw.Sched (single-packet walk-throughs, custom
// harnesses).
func NewNetwork(spec NetworkSpec) (*Network, error) { return network.New(spec) }

// VCDRecorder dumps handshake activity as an IEEE 1364 Value Change Dump.
type VCDRecorder = network.VCDRecorder

// Collect extracts measurements from a finished instrumented run.
func Collect(nw *Network, cfg RunConfig) RunResult { return core.Collect(nw, cfg) }

// Saturation searches for the saturation throughput of one network of
// any topology under one benchmark (Table 1).
func Saturation(spec NetworkSpec, cfg SatConfig) (SatResult, error) {
	return core.Saturation(spec, cfg)
}

// MeshSpec is the NetworkSpec of a 2D mesh, the paper's future-work
// topology; it remains as a name for existing callers.
type MeshSpec = NetworkSpec

// MeshTree returns a w x h mesh with XY tree-based multicast, and
// MeshSerial one expanding multicast into serial XY unicasts (the
// baseline scheme on the alternative topology).
var (
	MeshTree   = core.MeshTree
	MeshSerial = core.MeshSerial
)

// RunMesh is Run on a mesh, kept for existing callers; the benchmark's
// destination space must equal w*h.
func RunMesh(spec NetworkSpec, cfg RunConfig) (RunResult, error) { return Run(spec, cfg) }

// ChipletParams describes the interposer of a mesh-of-MoT-chiplets
// composition: W x H dies on a NoI mesh, with die-to-die channels
// either serial (SerialFactor beats per flit) or flit-parallel, and
// their own per-beat delay and energy constants.
type ChipletParams = chiplet.Params

// ChipletSerial returns a w x h interposer with serialized (narrow)
// die-to-die channels — the default off-chip assumption.
func ChipletSerial(w, h int) *ChipletParams { return chiplet.Default(w, h) }

// ChipletParallel returns a w x h interposer with full-width die-to-die
// channels (one beat per flit).
func ChipletParallel(w, h int) *ChipletParams { return chiplet.Parallel(w, h) }

// WithChiplet composes a single-die architecture into a mesh of
// identical dies behind the given interposer; the reporting name gains
// an "@WxHofN" suffix. A nil p returns the spec unchanged.
func WithChiplet(s NetworkSpec, p *ChipletParams) NetworkSpec { return core.WithChiplet(s, p) }

// ChipletBenchmarkByName resolves a hierarchical benchmark (one local
// destination mask per die) by reporting name: UniformRandom,
// Multicast5, or Multicast10 over the composed destination space.
func ChipletBenchmarkByName(p *ChipletParams, dieN int, name string) (Benchmark, error) {
	return chiplet.ByName(p, dieN, name)
}

// Injection is one entry of an explicit traffic schedule.
type Injection = core.Injection

// Schedule is a time-ordered workload for replay runs.
type Schedule = core.Schedule

// ParseSchedule reads a CSV workload (time_ns,src,dest[,dest...] per
// line) for an n-terminal network; name labels error messages.
func ParseSchedule(r io.Reader, name string, n int) (Schedule, error) {
	return core.ParseSchedule(r, name, n)
}

// RunSchedule replays an explicit workload through a MoT die or a 2D
// mesh and measures every injected packet; a chiplet composition is
// rejected (a schedule's flat destination mask cannot address it).
func RunSchedule(spec NetworkSpec, sched Schedule, drain Time) (RunResult, error) {
	return core.RunSchedule(spec, sched, drain)
}

// Replicated aggregates one configuration over several seeds.
type Replicated = core.Replicated

// RunSeeds executes the configuration once per seed on a network of any
// topology and aggregates mean and standard deviation of the reported
// metrics.
func RunSeeds(spec NetworkSpec, cfg RunConfig, seeds []uint64) (Replicated, error) {
	return core.RunSeeds(spec, cfg, seeds)
}

// TraceSink streams a network's flit-lifecycle events as deterministic
// JSON Lines (one object per event, fixed field order); for a fixed
// (spec, config) the byte stream is identical across runs and across
// engine worker-pool sizes.
type TraceSink = obs.TraceSink

// ValidateTrace schema-checks a JSONL trace stream and returns the number
// of events validated.
func ValidateTrace(r io.Reader) (int, error) { return obs.ValidateTrace(r) }

// LatencySummary is a sort-once descriptive summary (mean, stddev,
// percentiles, histogram) of a sample set.
type LatencySummary = stats.Summary

// NewLatencySummary builds a summary of the samples (typically
// latencies in ns); the input is copied, not retained.
func NewLatencySummary(samples []float64) *LatencySummary { return stats.NewSummary(samples) }

// Monitor is a live observability endpoint (expvar counters at
// /debug/vars, pprof at /debug/pprof/) for long sweeps.
type Monitor = obs.Monitor

// SweepProgress tracks job completion and extrapolates an ETA for the
// monitoring endpoint and CLI progress lines.
type SweepProgress = obs.Progress

// NewSweepProgress starts tracking a sweep of total jobs.
func NewSweepProgress(total int) *SweepProgress { return obs.NewProgress(total) }

// StartMonitor serves the monitoring endpoint on addr (":0" picks a free
// port; see Monitor.Addr). engine and progress may be nil.
func StartMonitor(addr string, engine *Engine, progress *SweepProgress) (*Monitor, error) {
	return obs.StartMonitor(addr, engine, progress)
}

// EngineSnapshot is one sample of an engine's live progress counters.
type EngineSnapshot = core.EngineSnapshot

// StartCPUProfile begins a CPU profile into path; call the returned stop
// function when done.
func StartCPUProfile(path string) (stop func() error, err error) {
	return obs.StartCPUProfile(path)
}

// WriteHeapProfile snapshots the heap into path (after a GC).
func WriteHeapProfile(path string) error { return obs.WriteHeapProfile(path) }

// ResultStore is the persistent layer an Engine consults behind its
// in-memory memo: a durable, checksum-verified map from job key to
// RunResult shared across processes.
type ResultStore = core.ResultStore

// StoreStats carries a persistent store's health counters (hits,
// misses, corrupt entries healed, writes, write errors).
type StoreStats = core.StoreStats

// Store is the file-backed ResultStore: one file per SHA-256 job key,
// written atomically (temp + fsync + rename) with a CRC-32C frame, so
// a crash mid-write can never corrupt a served result — a torn or
// bit-rotted entry is detected on read, deleted, and recomputed.
type Store = store.Store

// OpenStore opens (creating if needed) a persistent result store rooted
// at dir and sweeps any temp files a crashed writer left behind. Attach
// it with Engine.SetStore; Close flushes pending write-behind commits.
func OpenStore(dir string) (*Store, error) { return store.Open(dir) }

// Client wraps the asyncnocd simulation-service API with capped
// exponential backoff + jitter on 429/5xx/transport errors — the NI
// retransmission policy, lifted to the service layer.
type Client = service.Client

// NewServiceClient returns a Client for the asyncnocd server at
// baseURL (e.g. "http://localhost:8080") with the default retry policy.
func NewServiceClient(baseURL string) *Client { return service.NewClient(baseURL) }

// RunRequest / RunResponse and SweepRequest / SweepResponse are the
// wire shapes of POST /v1/run and POST /v1/sweep.
type (
	RunRequest    = service.RunRequest
	RunResponse   = service.RunResponse
	SweepRequest  = service.SweepRequest
	SweepResponse = service.SweepResponse
)

// CanceledError reports a multi-run search (saturation bisection, load
// sweep) abandoned by its context between iterations; it unwraps to the
// context's error.
type CanceledError = core.CanceledError

// SweepPoint is one point of a latency-versus-offered-load curve.
type SweepPoint = core.SweepPoint

// LoadSweep measures the latency-throughput curve of one network of any
// topology under one benchmark on a grid of load fractions up to
// maxFraction of the network's saturation.
func LoadSweep(spec NetworkSpec, base RunConfig, points int, maxFraction float64) ([]SweepPoint, error) {
	return core.LoadSweep(spec, base, points, maxFraction)
}

// NodeCost is one row of the paper's node-level results (Section 5.2(a)),
// regenerated from the gate-level netlists.
type NodeCost struct {
	// Name is the node design name.
	Name string
	// AreaUm2 is the pre-layout standard-cell area.
	AreaUm2 float64
	// ForwardPs is the request-in to request-out critical path.
	ForwardPs int
	// BodyForwardPs is the body-flit forward path (differs only on
	// designs with a fast-forward mechanism).
	BodyForwardPs int
	// Cells is the placed instance count.
	Cells int
}

// NodeCosts analyzes every node netlist and returns the node-level table.
func NodeCosts() ([]NodeCost, error) {
	var out []NodeCost
	for _, name := range netlist.AllNodeNames() {
		nl, err := netlist.Build(name)
		if err != nil {
			return nil, err
		}
		fwd := nl.MustPath(netlist.NetReqIn, netlist.NetReqOut0)
		body := fwd
		if nl.Net(netlist.NetReqOutFast) != nil {
			body = nl.MustPath(netlist.NetReqIn, netlist.NetReqOutFast)
		}
		out = append(out, NodeCost{
			Name:          name,
			AreaUm2:       nl.Area(),
			ForwardPs:     fwd,
			BodyForwardPs: body,
			Cells:         nl.CellCount(),
		})
	}
	return out, nil
}

// FormatLatencyHistogram renders latency samples (ns) as an ASCII
// histogram with `bins` buckets and bars up to barWidth characters.
func FormatLatencyHistogram(samplesNs []float64, bins, barWidth int) string {
	return stats.FormatHistogram(stats.Histogram(samplesNs, bins), barWidth)
}

// DrawPlacement renders the spec's fanout-tree speculation placement as
// ASCII art (speculative nodes marked [S#], addressable ones (N#:f#)).
// A mesh has no fanout trees and is an error.
func DrawPlacement(spec NetworkSpec) (string, error) {
	pl, err := spec.Placement()
	if err != nil {
		return "", err
	}
	return topology.Draw(pl), nil
}

// AddressSizes reports the source-route header widths of every
// architecture for an n x n MoT (Section 5.2(d)).
type AddressSizes = routing.AddressSizes

// AddressSizesFor computes the Section 5.2(d) row for an n x n MoT.
func AddressSizesFor(n int) (AddressSizes, error) { return routing.SizesFor(n) }
