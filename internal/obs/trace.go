// Package obs is the observability layer: a structured flit-lifecycle
// trace sink streaming deterministic JSONL, a schema validator for those
// traces, and live-monitoring / profiling hooks for long sweeps.
//
// Determinism is the load-bearing property. In a serial run every trace
// event is emitted synchronously from the scheduler's dispatch loop, so
// for a fixed (spec, config) the event sequence — and therefore the
// JSONL byte stream — is a pure function of the run. Worker pools
// parallelize *across* runs, never within one, so traces are
// byte-identical at any pool size. Sharded chiplet runs
// (RunConfig.Shards > 1, one region of whole dies per shard) preserve
// the same contract from *within* a run: trace emission is deferred
// into per-shard effect logs and replayed single-threaded at each
// lookahead barrier in the merged global (time, seq) dispatch order, so
// the byte stream matches the serial run exactly at any shard count
// (see network.NewSharded and DESIGN.md section 14).
package obs

import (
	"bufio"
	"fmt"
	"io"
	"strconv"

	"asyncnoc/internal/network"
	"asyncnoc/internal/packet"
)

// TraceSink streams network trace events as JSON Lines. Each event is one
// object with a fixed field order (hand-formatted, so the bytes are
// reproducible and no reflection runs on the hot path):
//
//	{"kind":"inject","t":1234,"pkt":7,"src":2,"dests":[0,5]}
//	{"kind":"forward","t":1300,"pkt":7,"src":2,"flit":0,"attempt":0,"tree":2,"heap":3,"level":1,"ports":2}
//	{"kind":"throttle","t":1350,"pkt":7,"src":2,"flit":0,"attempt":0,"tree":2,"heap":6,"level":2}
//	{"kind":"deliver","t":1500,"pkt":7,"src":2,"flit":0,"attempt":0,"dest":5}
//	{"kind":"retransmit","t":9000,"pkt":7,"src":2,"attempt":1}
//	{"kind":"drop","t":40000,"pkt":7,"src":2,"attempt":3}
//
// Timestamps are simulated picoseconds and non-decreasing. "level" is the
// fanout tree level of the node (root = 0).
type TraceSink struct {
	w      *bufio.Writer
	events int64
	err    error
	// levelOf maps a heap index to its tree level; captured at attach
	// time so event formatting does not reach back into the topology.
	levelOf func(k int) int
}

// NewTraceSink wraps w. Call Attach to chain it onto a network, and Flush
// once the run completes.
func NewTraceSink(w io.Writer) *TraceSink {
	return &TraceSink{w: bufio.NewWriterSize(w, 1<<16)}
}

// Attach chains the sink onto nw's trace callback, preserving any
// already-installed observer (both run, existing first).
func (s *TraceSink) Attach(nw *network.Network) {
	s.levelOf = nw.MoT.LevelOf
	prev := nw.Trace
	nw.Trace = func(ev network.TraceEvent) {
		if prev != nil {
			prev(ev)
		}
		s.Event(ev)
	}
}

// Event formats and buffers one trace event. The first write error is
// latched and subsequent events are dropped.
func (s *TraceSink) Event(ev network.TraceEvent) {
	if s.err != nil {
		return
	}
	s.events++
	b := make([]byte, 0, 128)
	b = append(b, `{"kind":"`...)
	b = append(b, ev.Kind.String()...)
	b = append(b, `","t":`...)
	b = strconv.AppendInt(b, int64(ev.At), 10)
	p := ev.Flit.Pkt
	b = append(b, `,"pkt":`...)
	b = strconv.AppendUint(b, p.ID, 10)
	b = append(b, `,"src":`...)
	b = strconv.AppendInt(b, int64(p.Src), 10)
	switch ev.Kind {
	case network.TraceInject:
		b = append(b, `,"dests":[`...)
		first := true
		p.Dests.ForEach(func(d int) {
			if !first {
				b = append(b, ',')
			}
			first = false
			b = strconv.AppendInt(b, int64(d), 10)
		})
		b = append(b, ']')
	case network.TraceForward, network.TraceThrottle:
		b = appendFlit(b, ev.Flit)
		b = append(b, `,"tree":`...)
		b = strconv.AppendInt(b, int64(ev.Tree), 10)
		b = append(b, `,"heap":`...)
		b = strconv.AppendInt(b, int64(ev.Heap), 10)
		b = append(b, `,"level":`...)
		b = strconv.AppendInt(b, int64(s.level(ev.Heap)), 10)
		if ev.Kind == network.TraceForward {
			b = append(b, `,"ports":`...)
			b = strconv.AppendInt(b, int64(ev.Ports), 10)
		}
	case network.TraceDeliver:
		b = appendFlit(b, ev.Flit)
		b = append(b, `,"dest":`...)
		b = strconv.AppendInt(b, int64(ev.Dest), 10)
	case network.TraceRetransmit, network.TraceDrop:
		b = append(b, `,"attempt":`...)
		b = strconv.AppendInt(b, int64(ev.Flit.Attempt), 10)
	}
	b = append(b, '}', '\n')
	if _, err := s.w.Write(b); err != nil {
		s.err = err
	}
}

func appendFlit(b []byte, f packet.Flit) []byte {
	b = append(b, `,"flit":`...)
	b = strconv.AppendInt(b, int64(f.Index), 10)
	b = append(b, `,"attempt":`...)
	b = strconv.AppendInt(b, int64(f.Attempt), 10)
	return b
}

func (s *TraceSink) level(heap int) int {
	if s.levelOf == nil {
		return 0
	}
	return s.levelOf(heap)
}

// Events returns how many events the sink has formatted.
func (s *TraceSink) Events() int64 { return s.events }

// Flush drains the buffer and returns the first error seen by the sink
// (format-time or flush-time).
func (s *TraceSink) Flush() error {
	if err := s.w.Flush(); err != nil && s.err == nil {
		s.err = err
	}
	return s.err
}

// AttachTraceJSONL builds a sink over w and chains it onto nw in one
// step — the common CLI path.
func AttachTraceJSONL(nw *network.Network, w io.Writer) *TraceSink {
	s := NewTraceSink(w)
	s.Attach(nw)
	return s
}

// TraceInstrument adapts the JSONL trace sink to the run-config
// instrument surface (core.Instrument): Attach chains a sink over Out
// onto the network, Finish flushes it. After the run, Sink exposes the
// event count.
type TraceInstrument struct {
	Out  io.Writer
	Sink *TraceSink
}

// Attach implements the instrument surface.
func (t *TraceInstrument) Attach(nw *network.Network) error {
	t.Sink = AttachTraceJSONL(nw, t.Out)
	return nil
}

// Finish drains the sink's buffer.
func (t *TraceInstrument) Finish() error {
	if t.Sink == nil {
		return nil
	}
	return t.Sink.Flush()
}

// traceFields lists, per event kind, the exact field set ValidateTrace
// requires (every field present, no extras beyond the common ones).
var traceFields = map[string][]string{
	"inject":     {"dests"},
	"forward":    {"flit", "attempt", "tree", "heap", "level", "ports"},
	"throttle":   {"flit", "attempt", "tree", "heap", "level"},
	"deliver":    {"flit", "attempt", "dest"},
	"retransmit": {"attempt"},
	"drop":       {"attempt"},
}

// ValidateTrace schema-checks a JSONL trace stream: every line must be a
// well-formed event object with exactly the fields of its kind, and
// timestamps must be non-decreasing (the scheduler never runs backwards).
// It returns the number of events validated.
func ValidateTrace(r io.Reader) (int, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	n, lastT := 0, int64(-1)
	for sc.Scan() {
		n++
		line := sc.Bytes()
		if len(line) == 0 {
			return n, fmt.Errorf("trace line %d: empty", n)
		}
		ev, err := parseTraceLine(line)
		if err != nil {
			return n, fmt.Errorf("trace line %d: %w", n, err)
		}
		if ev.t < lastT {
			return n, fmt.Errorf("trace line %d: timestamp %d before %d (trace must be time-ordered)", n, ev.t, lastT)
		}
		lastT = ev.t
	}
	if err := sc.Err(); err != nil {
		return n, err
	}
	return n, nil
}
