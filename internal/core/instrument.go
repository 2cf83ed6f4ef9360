package core

import (
	"fmt"

	"asyncnoc/internal/network"
	"asyncnoc/internal/sim"
)

// Instrument observes one simulation run. Attach hooks the instrument
// onto the built network before any event runs (chaining the network's
// Trace callback, adding meters, opening output streams); Finish runs
// after the simulation completes and flushes whatever the instrument
// buffered.
//
// Instruments ride along in RunConfig.Instruments, so every run entry
// point (Run, RunContext, Engine.Run, RunSeeds, ...) can produce VCD
// waveforms or JSONL traces without the caller dropping down to
// Build/Collect. Concrete implementations live next to what they
// observe: network.VCDInstrument, obs.TraceInstrument. Per-level fanout
// counters need no instrument: every RunResult carries them.
//
// An instrumented run is never memoized: the engine executes it fresh so
// the instrument observes a real simulation rather than a cached result.
type Instrument interface {
	// Attach hooks the instrument onto the built network before the run.
	Attach(nw *network.Network) error
	// Finish completes the instrument after the run (flush, close).
	Finish() error
}

// ShardStatsInstrument captures the shard group's window/barrier
// counters from one run (see sim.ShardStats): attach it via
// RunConfig.Instruments, read Stats after the run completes. On a
// serial run every counter stays zero and Shards reports 1. The
// counters are diagnostics only — results stay byte-identical whether
// or not the instrument rides along (though, like every instrument, it
// bypasses the engine memo).
type ShardStatsInstrument struct {
	// Timing enables barrier wall-time accounting (ShardStats.BarrierNs),
	// off by default: two clock reads per barrier are measurable at
	// million-barrier scale.
	Timing bool

	nw     *network.Network
	stats  sim.ShardStats
	shards int
}

// Attach implements Instrument.
func (i *ShardStatsInstrument) Attach(nw *network.Network) error {
	i.nw = nw
	i.shards = 1
	if g := nw.Group(); g != nil && i.Timing {
		g.EnableBarrierTiming(true)
	}
	return nil
}

// Finish implements Instrument: it snapshots the group's counters
// (Finish runs after the simulation but before the group closes).
func (i *ShardStatsInstrument) Finish() error {
	if g := i.nw.Group(); g != nil {
		i.stats = g.Stats()
		i.shards = g.Shards()
	}
	return nil
}

// Stats returns the captured counters and the shard count. parallel is
// always false, because windows always run inline on the coordinator;
// it is kept so existing callers still compile.
func (i *ShardStatsInstrument) Stats() (stats sim.ShardStats, shards int, parallel bool) {
	return i.stats, i.shards, false
}

// attachInstruments hooks every instrument onto the network, in order.
func attachInstruments(nw *network.Network, ins []Instrument) error {
	for _, i := range ins {
		if err := i.Attach(nw); err != nil {
			return fmt.Errorf("core: attach instrument %T: %w", i, err)
		}
	}
	return nil
}

// finishInstruments completes every instrument, in order, returning the
// first error but finishing all of them regardless.
func finishInstruments(ins []Instrument) error {
	var first error
	for _, i := range ins {
		if err := i.Finish(); err != nil && first == nil {
			first = fmt.Errorf("core: finish instrument %T: %w", i, err)
		}
	}
	return first
}
