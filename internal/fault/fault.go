// Package fault implements the deterministic fault-injection model and
// the typed protocol-violation values used by the fault-tolerance layer.
//
// The model is schedule-based and fully seeded: a network instance owns
// one Injector, every channel draws its per-traversal fault decisions
// from its own stream (derived from the injector seed in channel build
// order), and all retransmission behavior is driven by simulation events.
// A run with faults enabled therefore remains a pure function of
// (network spec, run configuration) — results are bit-identical across
// worker-pool sizes and across repeated executions.
//
// Fault taxonomy (DESIGN.md §8):
//
//   - transient payload corruption: one payload bit of a flit flips in
//     flight; the routing and handshake fields are conservatively assumed
//     protected, so the flit still routes normally but fails the
//     destination interface's CRC check;
//   - transient flit drop: a body flit's payload bundle is lost on the
//     wire while the handshake completes (the self-timed link regenerates
//     the acknowledge), so the destination sees a gap in the packet.
//     Header and tail (control) flits never drop — a lost control edge
//     wedges the handshake and is modeled as a stuck fault instead;
//   - stuck channel: the link wedges permanently after a configured
//     number of flits — the request edge neither arrives nor is
//     acknowledged, stalling the upstream stage forever (detected by the
//     deadlock watchdog);
//   - handshake jitter: a bounded extra forward-wire delay models
//     marginal timing (metastability resolution, crosstalk slowdown).
package fault

import (
	"fmt"
	"math"

	"asyncnoc/internal/rng"
)

// Violation is the panic value raised by the node, channel, and metrics
// state machines on an asynchronous-protocol violation (send while a flit
// is in flight, acknowledge without a pending flit, duplicate delivery).
// The run boundary recovers values of this type into a typed error so a
// poisoned simulation reports instead of crashing the process.
type Violation struct {
	// Where locates the violating component, e.g. "fanin 3/2".
	Where string
	// Detail describes the violated protocol rule.
	Detail string
}

// Error makes a Violation usable as an error after recovery.
func (v Violation) Error() string { return v.Where + ": " + v.Detail }

// Violationf builds a Violation with a formatted detail message.
func Violationf(where, format string, args ...any) Violation {
	return Violation{Where: where, Detail: fmt.Sprintf(format, args...)}
}

// Retransmission protocol defaults (see Config).
const (
	// DefaultMaxRetries is the per-packet retransmission budget.
	DefaultMaxRetries = 3
	// DefaultRetryTimeoutPs is the base per-attempt timeout (120 ns): it
	// comfortably exceeds the round trip of a congested 8x8 MoT.
	DefaultRetryTimeoutPs = 120_000
	// DefaultMaxBackoffPs caps the exponential backoff (500 ns).
	DefaultMaxBackoffPs = 500_000
	// DefaultAckDelayPs is the modeled flight time of the out-of-band
	// end-to-end delivery acknowledgment (2 ns).
	DefaultAckDelayPs = 2_000
	// DefaultJitterMaxPs bounds handshake jitter when unset (200 ps).
	DefaultJitterMaxPs = 200
)

// Stuck wedges one fanout output channel permanently after `After`
// successfully delivered flits (After=0 kills the channel outright).
type Stuck struct {
	// Tree/Heap identify the fanout node; Port is the output port
	// (0=top, 1=bottom).
	Tree, Heap, Port int
	// After is the number of flits delivered before the wedge.
	After int
}

// Config attaches a deterministic fault schedule and the recovery
// protocol's parameters to a network spec. The zero value disables the
// entire fault layer: networks build and run exactly as without it.
type Config struct {
	// Seed drives all fault randomness, independent of the traffic seed.
	Seed uint64
	// CorruptRate is the per-traversal probability of a payload bit flip.
	CorruptRate float64
	// DropRate is the per-traversal probability that a body flit's
	// payload is lost on the wire (control flits never drop).
	DropRate float64
	// JitterRate is the per-traversal probability of extra forward delay.
	JitterRate float64
	// JitterMaxPs bounds the extra delay (default DefaultJitterMaxPs).
	JitterMaxPs int64
	// Stuck lists channels that wedge permanently.
	Stuck []Stuck

	// MaxRetries is the per-packet retransmission budget before the
	// packet is written off as lost (default DefaultMaxRetries).
	MaxRetries int
	// RetryTimeoutPs is the base per-attempt timeout; attempt k waits
	// RetryTimeoutPs << k, capped at MaxBackoffPs (defaults above).
	RetryTimeoutPs int64
	// MaxBackoffPs caps the exponential backoff.
	MaxBackoffPs int64
	// AckDelayPs is the end-to-end delivery-acknowledge flight time.
	AckDelayPs int64
}

// Enabled reports whether any fault source is configured.
func (c Config) Enabled() bool {
	return c.CorruptRate > 0 || c.DropRate > 0 || c.JitterRate > 0 || len(c.Stuck) > 0
}

// Validate checks rates and schedule entries against a network of n
// terminals per side.
func (c Config) Validate(n int) error {
	for _, r := range []struct {
		name string
		v    float64
	}{{"corrupt", c.CorruptRate}, {"drop", c.DropRate}, {"jitter", c.JitterRate}} {
		if r.v < 0 || r.v > 1 {
			return fmt.Errorf("fault: %s rate %v outside [0,1]", r.name, r.v)
		}
	}
	if c.JitterMaxPs < 0 || c.RetryTimeoutPs < 0 || c.MaxBackoffPs < 0 || c.AckDelayPs < 0 || c.MaxRetries < 0 {
		return fmt.Errorf("fault: negative protocol parameter")
	}
	if c.MaxRetries > math.MaxInt32 {
		return fmt.Errorf("fault: retry budget %d exceeds %d (a flit carries its attempt number as an int32)",
			c.MaxRetries, math.MaxInt32)
	}
	for i, s := range c.Stuck {
		if s.Tree < 0 || s.Tree >= n {
			return fmt.Errorf("fault: stuck[%d] tree %d out of [0,%d)", i, s.Tree, n)
		}
		if s.Heap < 1 || s.Heap >= n {
			return fmt.Errorf("fault: stuck[%d] heap %d out of [1,%d)", i, s.Heap, n)
		}
		if s.Port != 0 && s.Port != 1 {
			return fmt.Errorf("fault: stuck[%d] port %d not 0 or 1", i, s.Port)
		}
		if s.After < 0 {
			return fmt.Errorf("fault: stuck[%d] negative trigger %d", i, s.After)
		}
	}
	return nil
}

// Norm returns the config with protocol defaults filled in.
func (c Config) Norm() Config {
	if c.MaxRetries == 0 {
		c.MaxRetries = DefaultMaxRetries
	}
	if c.RetryTimeoutPs == 0 {
		c.RetryTimeoutPs = DefaultRetryTimeoutPs
	}
	if c.MaxBackoffPs == 0 {
		c.MaxBackoffPs = DefaultMaxBackoffPs
	}
	if c.AckDelayPs == 0 {
		c.AckDelayPs = DefaultAckDelayPs
	}
	if c.JitterMaxPs == 0 {
		c.JitterMaxPs = DefaultJitterMaxPs
	}
	return c
}

// BackoffPs returns the timeout of retransmission attempt k (1-based for
// the first retry): RetryTimeoutPs << (k-1), capped at MaxBackoffPs.
func (c Config) BackoffPs(attempt int) int64 {
	d := c.RetryTimeoutPs
	for i := 1; i < attempt; i++ {
		d *= 2
		if d >= c.MaxBackoffPs {
			return c.MaxBackoffPs
		}
	}
	if d > c.MaxBackoffPs {
		d = c.MaxBackoffPs
	}
	return d
}

// Stats accumulates one run's fault and recovery counters.
type Stats struct {
	// Injected is the total number of link-level fault events.
	Injected int
	// Dropped/Corrupted/Jittered/Swallowed break Injected down by kind
	// (Swallowed counts flits eaten by stuck channels).
	Dropped, Corrupted, Jittered, Swallowed int
	// Retries counts packet retransmission attempts.
	Retries int
	// RecoveredFlits counts flits delivered clean only by a retransmission.
	RecoveredFlits int
	// LostFlits counts flits written off after the retry budget; a lost
	// k-destination multicast charges Length flits per undelivered
	// destination.
	LostFlits int
	// LostPackets counts packets with at least one undelivered destination
	// after the retry budget.
	LostPackets int
}

// Injector owns a run's fault schedule: a root generator from which every
// channel derives its own stream in build order.
type Injector struct {
	cfg  Config
	root *rng.Source
	// Stats accumulates the run's fault counters.
	Stats Stats
}

// NewInjector builds an injector for one network instance. The config is
// normalized (protocol defaults filled in).
func NewInjector(cfg Config) *Injector {
	return &Injector{cfg: cfg.Norm(), root: rng.New(cfg.Seed ^ 0xfa017_1a7e5)}
}

// Config returns the normalized configuration.
func (in *Injector) Config() Config { return in.cfg }

// Channel derives the next channel's fault stream. Channels are built in
// a deterministic order, so stream assignment is reproducible.
func (in *Injector) Channel() *ChannelFaults {
	return &ChannelFaults{in: in, r: in.root.Split(), stuckAfter: -1}
}

// Decision is the fault outcome for one channel traversal.
type Decision struct {
	// Stuck wedges the channel: the flit neither arrives nor is acked.
	Stuck bool
	// Drop loses the payload bundle while the handshake completes.
	Drop bool
	// CorruptBit is the payload bit to flip, or -1 for none.
	CorruptBit int
	// JitterPs is extra forward-wire delay in picoseconds.
	JitterPs int64
}

// ChannelFaults is one channel's deterministic per-traversal fault stream.
type ChannelFaults struct {
	in         *Injector
	r          *rng.Source
	stuckAfter int // flits delivered before the wedge; -1 = never
	sends      int
}

// SetStuck arms a permanent wedge after `after` delivered flits.
func (cf *ChannelFaults) SetStuck(after int) { cf.stuckAfter = after }

// Next draws the decision for one traversal. canDrop marks flits whose
// loss is recoverable end-to-end (body flits); control flits never drop.
func (cf *ChannelFaults) Next(canDrop bool) Decision {
	cf.sends++
	st := &cf.in.Stats
	if cf.stuckAfter >= 0 && cf.sends > cf.stuckAfter {
		st.Injected++
		st.Swallowed++
		return Decision{Stuck: true}
	}
	cfg := &cf.in.cfg
	d := Decision{CorruptBit: -1}
	if canDrop && cf.r.Bool(cfg.DropRate) {
		st.Injected++
		st.Dropped++
		d.Drop = true
		return d
	}
	if cf.r.Bool(cfg.CorruptRate) {
		st.Injected++
		st.Corrupted++
		d.CorruptBit = cf.r.Intn(64)
	}
	if cf.r.Bool(cfg.JitterRate) {
		st.Injected++
		st.Jittered++
		d.JitterPs = 1 + int64(cf.r.Intn(int(cfg.JitterMaxPs)))
	}
	return d
}
