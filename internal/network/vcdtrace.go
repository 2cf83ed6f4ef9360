package network

import (
	"fmt"
	"io"

	"asyncnoc/internal/vcd"
)

// VCDRecorder dumps the network's observable handshake activity as a
// Value Change Dump: one request-toggle wire per fanout node and per
// destination interface, a throttle-pulse wire per fanout node, and a
// running per-network counter of absorbed (redundant) flits.
type VCDRecorder struct {
	w         *vcd.Writer
	fwd       map[[2]int]*vcd.Var
	thr       map[[2]int]*vcd.Var
	deliver   []*vcd.Var
	throttled *vcd.Var
	count     uint64
}

// AttachVCD instruments the network to dump activity into w. It must be
// called before the simulation runs; it chains any Trace callback already
// installed. Call the returned recorder's Close after the run.
func AttachVCD(nw *Network, out io.Writer) (*VCDRecorder, error) {
	if nw.MoT == nil {
		return nil, fmt.Errorf("network %s: a VCD dump has one wire per fanout node, and a mesh has no fanout trees", nw.Spec.Name)
	}
	rec := &VCDRecorder{
		w:   vcd.NewWriter(out),
		fwd: map[[2]int]*vcd.Var{},
		thr: map[[2]int]*vcd.Var{},
	}
	n := nw.Spec.N
	for t := 0; t < nw.Spec.Terminals(); t++ {
		scope := fmt.Sprintf("tree%d", t)
		for k := 1; k < n; k++ {
			rec.fwd[[2]int{t, k}] = rec.w.AddWire(scope, fmt.Sprintf("fo%d_req", k), 1)
			rec.thr[[2]int{t, k}] = rec.w.AddWire(scope, fmt.Sprintf("fo%d_throttle", k), 1)
		}
	}
	for d := 0; d < nw.Spec.Terminals(); d++ {
		rec.deliver = append(rec.deliver, rec.w.AddWire("sinks", fmt.Sprintf("dest%d_req", d), 1))
	}
	rec.throttled = rec.w.AddWire("sinks", "throttled_flits", 32)
	if err := rec.w.Begin(); err != nil {
		return nil, err
	}
	prev := nw.Trace
	nw.Trace = func(ev TraceEvent) {
		if prev != nil {
			prev(ev)
		}
		if err := rec.w.SetTime(ev.At); err != nil {
			return // out-of-order events cannot occur; writer keeps its error
		}
		switch ev.Kind {
		case TraceForward:
			rec.fwd[[2]int{ev.Tree, ev.Heap}].Toggle()
		case TraceThrottle:
			rec.thr[[2]int{ev.Tree, ev.Heap}].Toggle()
			rec.count++
			rec.throttled.Set(rec.count)
		case TraceDeliver:
			rec.deliver[ev.Dest].Toggle()
		}
	}
	return rec, nil
}

// Close flushes the dump.
func (r *VCDRecorder) Close() error { return r.w.Close() }

// VCDInstrument adapts the VCD recorder to the run-config instrument
// surface (core.Instrument): Attach builds a recorder over Out, Finish
// closes it. After the run, Rec holds the attached recorder.
type VCDInstrument struct {
	Out io.Writer
	Rec *VCDRecorder
}

// Attach implements the instrument surface.
func (v *VCDInstrument) Attach(nw *Network) error {
	rec, err := AttachVCD(nw, v.Out)
	v.Rec = rec
	return err
}

// Finish flushes and closes the dump.
func (v *VCDInstrument) Finish() error {
	if v.Rec == nil {
		return nil
	}
	return v.Rec.Close()
}
