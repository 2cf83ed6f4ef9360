package network

import (
	"fmt"
	"io"

	"asyncnoc/internal/vcd"
)

// VCDInstrument dumps the network's observable handshake activity as a
// Value Change Dump through the run-config instrument surface
// (core.Instrument): one request-toggle wire per fanout node and per
// destination interface, a throttle-pulse wire per fanout node, and a
// running per-network counter of absorbed (redundant) flits. Attach
// declares the wires and chains the dump onto the network's trace
// callback; Finish flushes the dump into Out.
type VCDInstrument struct {
	Out io.Writer

	w         *vcd.Writer
	fwd       map[[2]int]*vcd.Var
	thr       map[[2]int]*vcd.Var
	deliver   []*vcd.Var
	throttled *vcd.Var
	count     uint64
}

// Attach instruments nw to dump its activity into Out. It must be called
// before the simulation runs; it chains any Trace callback already
// installed (both run, existing first).
func (v *VCDInstrument) Attach(nw *Network) error {
	if nw.MoT == nil {
		return fmt.Errorf("network %s: a VCD dump has one wire per fanout node, and a mesh has no fanout trees", nw.Spec.Name)
	}
	w := vcd.NewWriter(v.Out)
	v.fwd, v.thr, v.deliver, v.count = map[[2]int]*vcd.Var{}, map[[2]int]*vcd.Var{}, nil, 0
	n := nw.Spec.N
	for t := 0; t < nw.Spec.Terminals(); t++ {
		scope := fmt.Sprintf("tree%d", t)
		for k := 1; k < n; k++ {
			v.fwd[[2]int{t, k}] = w.AddWire(scope, fmt.Sprintf("fo%d_req", k), 1)
			v.thr[[2]int{t, k}] = w.AddWire(scope, fmt.Sprintf("fo%d_throttle", k), 1)
		}
	}
	for d := 0; d < nw.Spec.Terminals(); d++ {
		v.deliver = append(v.deliver, w.AddWire("sinks", fmt.Sprintf("dest%d_req", d), 1))
	}
	v.throttled = w.AddWire("sinks", "throttled_flits", 32)
	if err := w.Begin(); err != nil {
		return err
	}
	v.w = w
	prev := nw.Trace
	nw.Trace = func(ev TraceEvent) {
		if prev != nil {
			prev(ev)
		}
		if err := w.SetTime(ev.At); err != nil {
			return // out-of-order events cannot occur; writer keeps its error
		}
		switch ev.Kind {
		case TraceForward:
			v.fwd[[2]int{ev.Tree, ev.Heap}].Toggle()
		case TraceThrottle:
			v.thr[[2]int{ev.Tree, ev.Heap}].Toggle()
			v.count++
			v.throttled.Set(v.count)
		case TraceDeliver:
			v.deliver[ev.Dest].Toggle()
		}
	}
	return nil
}

// Finish flushes and closes the dump.
func (v *VCDInstrument) Finish() error {
	if v.w == nil {
		return nil
	}
	return v.w.Close()
}
