package netlist

import (
	"fmt"

	"asyncnoc/internal/cell"
)

// FlitWidth is the modeled bundled-data payload width in bits. The paper
// uses 5-flit packets on a fixed-width channel; 32 data bits per flit is
// the width class of the asynchronous MoT switch the baseline derives
// from (Horak et al. [21]).
const FlitWidth = 32

// Node names, used consistently across netlist, timing, and reporting.
const (
	BaselineFanout   = "baseline-fanout"
	SpecFanout       = "speculative-fanout"
	NonSpecFanout    = "non-speculative-fanout"
	OptSpecFanout    = "opt-speculative-fanout"
	OptNonSpecFanout = "opt-non-speculative-fanout"
	FaninNode        = "fanin"
)

// Marked analysis endpoints present in every fanout netlist. Secondary
// endpoints (ackFast, reqOutFast) exist only on designs that have the
// corresponding mechanism.
const (
	NetReqIn      = "reqIn"
	NetReqOut0    = "reqOut0"
	NetReqOut1    = "reqOut1"
	NetAckOut     = "ackOut"     // input-channel acknowledge generation
	NetAckFast    = "ackFast"    // early ack: throttled or single-routed body flits
	NetReqOutFast = "reqOutFast" // pre-allocated body-flit fast-forward path
)

// builder wraps a netlist with the shared construction vocabulary of the
// node designs.
type builder struct {
	nl *Netlist
	// shared primary inputs
	reqIn, dataIn, addrIn, reset *Net
	ackIn                        [2]*Net
	// phase is the two-phase protocol state (previous req level), an
	// analysis input standing in for the folded sequential state.
	phase *Net
}

func newBuilder(name string) *builder {
	nl := New(name)
	b := &builder{
		nl:     nl,
		reqIn:  nl.Input(NetReqIn),
		dataIn: nl.Input("dataIn"),
		addrIn: nl.Input("addrIn"),
		reset:  nl.Input("reset"),
		phase:  nl.Input("phase"),
	}
	b.ackIn[0] = nl.Input("ackIn0")
	b.ackIn[1] = nl.Input("ackIn1")
	return b
}

// state introduces a named folded-sequential-state input net.
func (b *builder) state(name string) *Net { return b.nl.Input(name) }

// bank places n copies of a cell type sharing the same inputs and returns
// the last output (the copies are parallel bit slices; any one output
// stands for the bundle in timing analysis).
func (b *builder) bank(t *cell.Type, prefix string, n int, ins ...*Net) *Net {
	var out *Net
	for i := 0; i < n; i++ {
		out = b.nl.Add(t, fmt.Sprintf("%s%d", prefix, i), ins...)
	}
	return out
}

// chain threads a signal through a sequence of single-extra-input cells,
// returning the final net. For multi-input cells the running signal is the
// first pin and aux fills the rest.
func (b *builder) chain(prefix string, in *Net, steps []*cell.Type, aux ...*Net) *Net {
	cur := in
	for i, t := range steps {
		ins := make([]*Net, 0, t.Inputs)
		ins = append(ins, cur)
		for len(ins) < t.Inputs {
			ins = append(ins, aux[len(ins)-1])
		}
		cur = b.nl.Add(t, fmt.Sprintf("%s_%d_%s", prefix, i, t.Name), ins...)
	}
	return cur
}

// fanoutDatapath places the bundled-data path common to every fanout node:
// input data buffering, two output-port latch banks with enable drivers,
// and output channel drivers. enable[p] gates port p's latch bank; the
// latch arc type distinguishes normally-transparent (speculative) from
// normally-opaque (baseline/non-speculative) ports.
func (b *builder) fanoutDatapath(latch *cell.Type, enable [2]*Net) [2]*Net {
	inBuf := b.bank(cell.Buf4, "din_buf", FlitWidth/4, b.dataIn)
	var dataOut [2]*Net
	for p := 0; p < 2; p++ {
		en := b.bank(cell.Buf4, fmt.Sprintf("p%d_en_drv", p), 4, enable[p])
		lq := b.bank(latch, fmt.Sprintf("p%d_latch", p), FlitWidth, inBuf, en)
		dataOut[p] = b.bank(cell.Buf4, fmt.Sprintf("p%d_dout_drv", p), FlitWidth/4, lq)
	}
	return dataOut
}

// stagingBuffers places n high-drive buffers on the request/enable
// distribution. The structural blocks above capture the node organization;
// the buffer count is the one calibrated quantity per node, chosen so the
// total area matches the paper's reported pre-layout figure (Section
// 5.2(a)) for that node.
func (b *builder) stagingBuffers(n int, src *Net) {
	b.bank(cell.Buf4, "staging", n, src)
}

// closeLogic places the data-protection port closer of one output port:
// a transition detector on the port's req/ack pair, gated by reset.
func (b *builder) closeLogic(p int, reqOut *Net) *Net {
	x := b.nl.Add(cell.Xor2, fmt.Sprintf("p%d_close_xor", p), reqOut, b.ackIn[p])
	n := b.nl.Add(cell.Nor2, fmt.Sprintf("p%d_close_nor", p), x, b.reset)
	return b.nl.Add(cell.Inv, fmt.Sprintf("p%d_close_inv", p), n)
}

// flowState places the per-port request/acknowledge phase comparator.
func (b *builder) flowState(p int, reqOut *Net) *Net {
	return b.nl.Add(cell.Xnor2, fmt.Sprintf("p%d_flow_xnor", p), reqOut, b.ackIn[p])
}

// resetGlue places the asynchronous reset distribution cells.
func (b *builder) resetGlue(n int) {
	b.bank(cell.Nor2, "rst_nor", n, b.reset, b.phase)
	b.bank(cell.Inv, "rst_inv", n, b.reset)
}

// BuildSpecFanout constructs the unoptimized speculative fanout node of
// Section 4(a): no Input Channel Monitor, no Address Storage Unit,
// normally-transparent output ports, and a C-element ack joiner that
// completes the input handshake only after BOTH output channels fire.
// Paper figures: 247 um^2, 52 ps.
func BuildSpecFanout() *Netlist {
	b := newBuilder(SpecFanout)
	var reqOut [2]*Net
	for p := 0; p < 2; p++ {
		// The request path is a pure matched-delay line: the node
		// does no route computation at all.
		reqOut[p] = b.chain(fmt.Sprintf("p%d_req", p), b.reqIn,
			[]*cell.Type{cell.Buf, cell.Buf, cell.Inv})
		b.nl.Alias(fmt.Sprintf("reqOut%d", p), reqOut[p])
		b.nl.MarkOutput(reqOut[p])
	}
	var enable [2]*Net
	for p := 0; p < 2; p++ {
		enable[p] = b.closeLogic(p, reqOut[p])
		b.flowState(p, reqOut[p])
	}
	b.fanoutDatapath(cell.LatchT, enable)
	// Ack Module: C-element over both output requests (broadcast
	// completion), then the ack driver.
	c := b.nl.Add(cell.C2, "ack_c2", reqOut[0], reqOut[1])
	ack := b.nl.Add(cell.Buf4, "ack_drv", c)
	b.nl.Alias(NetAckOut, ack)
	b.nl.MarkOutput(ack)
	b.resetGlue(2)
	b.stagingBuffers(4, b.reqIn)
	return b.nl
}

// BuildBaselineFanout constructs the baseline fanout node of Section 2
// (Horak et al. [21]): unicast only, 1-bit source-route per level,
// normally-opaque output ports, XOR ack (exactly one port fires).
// Paper figures: 342 um^2, 263 ps.
func BuildBaselineFanout() *Netlist {
	b := newBuilder(BaselineFanout)
	// Input Channel Monitor: flit-arrival transition detect + toggle.
	fd := b.nl.Add(cell.Xor2, "mon_flitdet", b.reqIn, b.phase)
	tg := b.nl.Add(cell.Toggle, "mon_toggle", fd)
	b.bank(cell.Nand2, "mon_glue_nand", 2, fd, b.phase)
	b.nl.Add(cell.Inv, "mon_glue_inv", fd)
	// Address Storage Unit: holds the header's routing/control bits
	// until the tail leaves.
	al := b.bank(cell.LatchE, "addr_latch", 12, b.addrIn, tg)
	b.nl.Add(cell.And2, "addr_we", tg, b.state("addrState"))
	b.nl.Add(cell.Inv, "addr_we_inv", tg)
	// Packet sequencing FSM (header/body/tail tracking).
	b.bank(cell.LatchE, "seq_latch", 2, al, tg)
	b.bank(cell.Nand2, "seq_nand", 4, al, tg)
	b.bank(cell.Inv, "seq_inv", 2, al)
	// Route computation: 1-bit decode selecting the output port.
	rd := b.nl.Add(cell.And2, "route_and", al, b.state("routeState"))
	var reqOut [2]*Net
	for p := 0; p < 2; p++ {
		rn := b.nl.Add(cell.Nand2, fmt.Sprintf("p%d_route_nand", p), rd, b.state(fmt.Sprintf("en%d", p)))
		pe := b.nl.Add(cell.Nor2, fmt.Sprintf("p%d_port_nor", p), rn, b.state(fmt.Sprintf("block%d", p)))
		ro := b.nl.Add(cell.Toggle, fmt.Sprintf("p%d_req_toggle", p), pe)
		reqOut[p] = b.chain(fmt.Sprintf("p%d_req_drv", p), ro, []*cell.Type{cell.Buf, cell.Buf})
		b.nl.Alias(fmt.Sprintf("reqOut%d", p), reqOut[p])
		b.nl.MarkOutput(reqOut[p])
	}
	var enable [2]*Net
	for p := 0; p < 2; p++ {
		enable[p] = b.closeLogic(p, reqOut[p])
		b.flowState(p, reqOut[p])
	}
	b.fanoutDatapath(cell.LatchE, enable)
	// Ack Module: XOR over the port requests (exactly one fires for
	// unicast), toggled onto the input channel.
	ax := b.nl.Add(cell.Xor2, "ack_xor", reqOut[0], reqOut[1])
	at := b.nl.Add(cell.Toggle, "ack_toggle", ax)
	ack := b.nl.Add(cell.Buf4, "ack_drv", at)
	b.nl.Alias(NetAckOut, ack)
	b.nl.MarkOutput(ack)
	// Per-port bundling matched delay.
	for p := 0; p < 2; p++ {
		b.bank(cell.Buf4, fmt.Sprintf("p%d_match", p), 5, reqOut[p])
	}
	b.resetGlue(4)
	b.bank(cell.Nand2, "rst_seq_nand", 4, b.reset, b.phase)
	b.stagingBuffers(8, b.reqIn)
	return b.nl
}

// nonSpecCommon places the structure shared by the two non-speculative
// multicast fanout nodes: monitor with misroute detection, 2-bit address
// storage and three-way route decode (top/bottom/both), multi-case ack
// module, and the throttle fast-ack path. extraRouteStage inserts the
// additional decode stage that distinguishes the unoptimized node's
// repeated per-flit route computation. Returns the port request nets.
func (b *builder) nonSpecCommon(extraRouteStage bool, trailingBufs int) [2]*Net {
	// Input Channel Monitor with misroute (throttle) detection.
	fd := b.nl.Add(cell.Xor2, "mon_flitdet", b.reqIn, b.phase)
	tg := b.nl.Add(cell.Toggle, "mon_toggle", fd)
	b.bank(cell.Nand2, "mon_glue_nand", 2, fd, b.phase)
	b.nl.Add(cell.Inv, "mon_glue_inv", fd)
	mi := b.nl.Add(cell.And2, "mis_and", fd, b.state("misState"))
	b.nl.Add(cell.Nor2, "mis_nor", mi, b.reset)
	b.nl.Add(cell.Inv, "mis_inv", mi)
	// Throttle fast-ack: a misrouted flit is acknowledged directly from
	// the monitor, never touching the output ports.
	ta := b.nl.Add(cell.Toggle, "throttle_toggle", mi)
	fastAck := b.nl.Add(cell.Buf4, "throttle_drv", ta)
	b.nl.Alias(NetAckFast, fastAck)
	b.nl.MarkOutput(fastAck)
	// Address Storage Unit: the node's 2-bit field plus packet state.
	al := b.bank(cell.LatchE, "addr_latch", 12, b.addrIn, tg)
	b.nl.Add(cell.And2, "addr_we", tg, b.state("addrState"))
	b.nl.Add(cell.Inv, "addr_we_inv", tg)
	b.bank(cell.LatchE, "seq_latch", 2, al, tg)
	b.bank(cell.Nand2, "seq_nand", 4, al, tg)
	b.bank(cell.Inv, "seq_inv", 2, al)
	// Route decode: 2-bit symbol, three forwarding modes.
	rd := b.nl.Add(cell.And2, "route_and", al, b.state("routeState"))
	b.nl.Add(cell.And2, "mode_and", rd, b.state("modeState"))
	b.nl.Add(cell.Or2, "mode_or", rd, b.state("modeState"))
	var reqOut [2]*Net
	for p := 0; p < 2; p++ {
		cur := b.nl.Add(cell.Nand2, fmt.Sprintf("p%d_route_nand", p), rd, b.state(fmt.Sprintf("en%d", p)))
		if extraRouteStage {
			cur = b.nl.Add(cell.And2, fmt.Sprintf("p%d_route2_and", p), cur, b.state(fmt.Sprintf("alloc%d", p)))
			cur = b.nl.Add(cell.Nand2, fmt.Sprintf("p%d_route2_nand", p), cur, b.state(fmt.Sprintf("sent%d", p)))
		} else {
			// Channel pre-allocation replaces repeated route
			// computation: single allocation stage.
			cur = b.nl.Add(cell.And2, fmt.Sprintf("p%d_prealloc_and", p), cur, b.state(fmt.Sprintf("alloc%d", p)))
			cur = b.nl.Add(cell.Nand2, fmt.Sprintf("p%d_prealloc_nand", p), cur, b.state(fmt.Sprintf("sent%d", p)))
		}
		pe := b.nl.Add(cell.Nor2, fmt.Sprintf("p%d_port_nor", p), cur, b.state(fmt.Sprintf("block%d", p)))
		ro := b.nl.Add(cell.Toggle, fmt.Sprintf("p%d_req_toggle", p), pe)
		steps := make([]*cell.Type, trailingBufs)
		for i := range steps {
			steps[i] = cell.Buf
		}
		reqOut[p] = b.chain(fmt.Sprintf("p%d_req_drv", p), ro, steps)
		b.nl.Alias(fmt.Sprintf("reqOut%d", p), reqOut[p])
		b.nl.MarkOutput(reqOut[p])
	}
	var enable [2]*Net
	for p := 0; p < 2; p++ {
		enable[p] = b.closeLogic(p, reqOut[p])
		b.flowState(p, reqOut[p])
	}
	b.fanoutDatapath(cell.LatchE, enable)
	// Ack Module: three completion cases — one port, both ports
	// (C-element), or throttle (merged upstream of the driver).
	ax := b.nl.Add(cell.Xor2, "ack_xor", reqOut[0], reqOut[1])
	ac := b.nl.Add(cell.C2, "ack_c2", reqOut[0], reqOut[1])
	am := b.nl.Add(cell.Mux2, "ack_mux", ax, ac, b.state("bothMode"))
	at := b.nl.Add(cell.Toggle, "ack_toggle", am)
	ack := b.nl.Add(cell.Buf4, "ack_drv", at)
	b.nl.Alias(NetAckOut, ack)
	b.nl.MarkOutput(ack)
	for p := 0; p < 2; p++ {
		b.bank(cell.Buf4, fmt.Sprintf("p%d_match", p), 5, reqOut[p])
	}
	b.resetGlue(4)
	b.bank(cell.Nand2, "rst_seq_nand", 4, b.reset, b.phase)
	return reqOut
}

// BuildNonSpecFanout constructs the unoptimized non-speculative fanout
// node of Section 4(b): parallel multicast replication, throttling of
// misrouted packets, per-flit route computation and channel allocation,
// and per-bit resampling protection (Req0/1_sent).
// Paper figures: 406 um^2, 299 ps.
func BuildNonSpecFanout() *Netlist {
	b := newBuilder(NonSpecFanout)
	reqOut := b.nonSpecCommon(true, 2)
	// Req0/1_sent resampling guards: per-bit gating that disables an
	// Output Port Module right after its flit is sent.
	for p := 0; p < 2; p++ {
		b.bank(cell.And2, fmt.Sprintf("p%d_resample_guard", p), 16, reqOut[p], b.state(fmt.Sprintf("sentGuard%d", p)))
	}
	b.stagingBuffers(15, b.reqIn)
	return b.nl
}

// BuildOptNonSpecFanout constructs the performance-optimized
// non-speculative fanout node of Section 4(d): the header pre-allocates
// the correct output channel(s); body and tail flits bypass route
// computation entirely on a fast-forward path released by the tail.
// Paper figures: 366 um^2, 279 ps (header); the body fast path is the
// latency the network actually sees for 4 of every 5 flits.
func BuildOptNonSpecFanout() *Netlist {
	b := newBuilder(OptNonSpecFanout)
	b.nonSpecCommon(false, 1)
	// Pre-allocation FSM: one channel-reservation latch per port, set by
	// the header's routing and cleared by the tail.
	for p := 0; p < 2; p++ {
		l := b.bank(cell.LatchE, fmt.Sprintf("p%d_prealloc_latch", p), 1, b.addrIn, b.phase)
		b.nl.Add(cell.And2, fmt.Sprintf("p%d_prealloc_set", p), l, b.reset)
		b.nl.Add(cell.Nor2, fmt.Sprintf("p%d_prealloc_clr", p), l, b.reset)
	}
	// Body-flit fast-forward path: new-flit detect, pre-allocated
	// enable, request toggle — no route computation.
	xn := b.nl.Add(cell.Xnor2, "fast_det", b.reqIn, b.phase)
	pa := b.nl.Add(cell.And2, "fast_alloc", xn, b.state("preallocState"))
	tf := b.nl.Add(cell.Toggle, "fast_toggle", pa)
	b.nl.Alias(NetReqOutFast, tf)
	b.nl.MarkOutput(tf)
	b.stagingBuffers(3, b.reqIn)
	return b.nl
}

// BuildOptSpecFanout constructs the power-optimized speculative fanout
// node of Section 4(c): the header is still broadcast, but its address
// information blocks the wrong output port for all body flits; the tail
// returns the ports to their normally-transparent state.
// Paper figures: 373 um^2, 120 ps.
func BuildOptSpecFanout() *Netlist {
	b := newBuilder(OptSpecFanout)
	// Forward path: lightweight monitor + per-port mode gate + toggle.
	rb := b.nl.Add(cell.Buf, "req_buf", b.reqIn)
	x := b.nl.Add(cell.Xor2, "mon_flitdet", rb, b.phase)
	var reqOut [2]*Net
	for p := 0; p < 2; p++ {
		a := b.nl.Add(cell.And2, fmt.Sprintf("p%d_mode_and", p), x, b.state(fmt.Sprintf("mode%d", p)))
		reqOut[p] = b.nl.Add(cell.Toggle, fmt.Sprintf("p%d_req_toggle", p), a)
		b.nl.Alias(fmt.Sprintf("reqOut%d", p), reqOut[p])
		b.nl.MarkOutput(reqOut[p])
	}
	// Input Channel Monitor: flit and tail detection.
	tg := b.nl.Add(cell.Toggle, "mon_toggle", x)
	b.bank(cell.Nand2, "mon_glue_nand", 2, x, b.phase)
	b.nl.Add(cell.Inv, "mon_glue_inv", x)
	b.nl.Add(cell.Xor2, "tail_det", tg, b.state("tailState"))
	b.nl.Add(cell.Nand2, "tail_nand", tg, b.state("tailState"))
	// Address sniffing: derive the live direction(s) from the header's
	// downstream routing fields.
	for p := 0; p < 2; p++ {
		s := b.nl.Add(cell.And2, fmt.Sprintf("p%d_sniff_and", p), b.addrIn, tg)
		b.nl.Add(cell.Inv, fmt.Sprintf("p%d_sniff_inv", p), s)
		// Per-port blocking FSM for the non-speculative body mode.
		l := b.bank(cell.LatchE, fmt.Sprintf("p%d_block_latch", p), 1, s, tg)
		a := b.nl.Add(cell.And2, fmt.Sprintf("p%d_block_and", p), l, b.reset)
		n := b.nl.Add(cell.Nor2, fmt.Sprintf("p%d_block_nor", p), a, b.reset)
		b.nl.Add(cell.Inv, fmt.Sprintf("p%d_block_inv", p), n)
		// Per-bit mode gating on the latch enables: this is what turns
		// the normally-transparent port opaque for blocked body flits.
		b.bank(cell.And2, fmt.Sprintf("p%d_bit_gate", p), FlitWidth, l, reqOut[p])
		// Mode distribution tree across the bit gates.
		b.bank(cell.Buf4, fmt.Sprintf("p%d_mode_drv", p), 8, l)
	}
	var enable [2]*Net
	for p := 0; p < 2; p++ {
		enable[p] = b.closeLogic(p, reqOut[p])
		b.flowState(p, reqOut[p])
	}
	b.fanoutDatapath(cell.LatchT, enable)
	// Ack Module: C-element for broadcast flits, XOR path for body flits
	// routed on exactly one channel.
	c := b.nl.Add(cell.C2, "ack_c2", reqOut[0], reqOut[1])
	ack := b.nl.Add(cell.Buf4, "ack_drv", c)
	b.nl.Alias(NetAckOut, ack)
	b.nl.MarkOutput(ack)
	ax := b.nl.Add(cell.Xor2, "ackfast_xor", reqOut[0], b.state("singleMode"))
	fast := b.nl.Add(cell.Buf4, "ackfast_drv", ax)
	b.nl.Alias(NetAckFast, fast)
	b.nl.MarkOutput(fast)
	b.resetGlue(2)
	b.stagingBuffers(3, b.reqIn)
	return b.nl
}

// BuildFanin constructs the fanin (arbitration) node reused unchanged
// from the baseline network [21]: two input channels, a mutual-exclusion
// arbiter, one output channel. Multicast requires no changes here — the
// fanout network delivers at most one copy per fanin tree.
func BuildFanin() *Netlist {
	nl := New(FaninNode)
	req0 := nl.Input("reqIn0")
	req1 := nl.Input("reqIn1")
	dataIn := nl.Input("dataIn")
	reset := nl.Input("reset")
	phase := nl.Input("phase")
	ackIn := nl.Input("ackIn")
	nl.Alias(NetReqIn, req0)
	b := &builder{nl: nl, dataIn: dataIn, reset: reset, phase: phase}
	b.ackIn[0] = ackIn
	// Arbitration core and grant path.
	mx := nl.Add(cell.Mutex, "arb_mutex", req0, req1)
	g := nl.Add(cell.And2, "grant_and", mx, nl.Input("lockState"))
	le := b.bank(cell.LatchE, "grant_latch", 1, g, phase)
	ro := nl.Add(cell.Toggle, "req_toggle", le)
	reqOut := nl.Add(cell.Buf, "req_drv", ro)
	nl.Alias(NetReqOut0, reqOut)
	nl.MarkOutput(reqOut)
	// Single output-port datapath.
	inBuf0 := b.bank(cell.Buf4, "din0_buf", FlitWidth/4, dataIn)
	b.bank(cell.Buf4, "din1_buf", FlitWidth/4, dataIn)
	en := b.bank(cell.Buf4, "en_drv", 4, g)
	lq := b.bank(cell.LatchT, "out_latch", FlitWidth, inBuf0, en)
	b.bank(cell.Buf4, "dout_drv", FlitWidth/4, lq)
	// Per-input completion and acknowledge generation.
	for i, rq := range []*Net{req0, req1} {
		x := nl.Add(cell.Xor2, fmt.Sprintf("in%d_det", i), rq, phase)
		nl.Add(cell.Nand2, fmt.Sprintf("in%d_gate", i), x, mx)
		at := nl.Add(cell.Toggle, fmt.Sprintf("in%d_ack_toggle", i), x)
		nl.Add(cell.Buf, fmt.Sprintf("in%d_ack_drv", i), at)
	}
	// Ack observation on the output channel.
	ax := nl.Add(cell.Xor2, "ack_xor", reqOut, ackIn)
	at := nl.Add(cell.Toggle, "ack_toggle", ax)
	ack := nl.Add(cell.Buf4, "ack_drv", at)
	nl.Alias(NetAckOut, ack)
	nl.MarkOutput(ack)
	// Packet lock FSM (wormhole: the winner holds the port to its tail).
	b.bank(cell.LatchE, "lock_latch", 2, mx, phase)
	b.bank(cell.Nand2, "lock_nand", 4, mx, phase)
	b.bank(cell.Inv, "lock_inv", 2, mx)
	nl.Add(cell.Xnor2, "flow_xnor", reqOut, ackIn)
	b.resetGlue(2)
	return nl
}

// Build returns the netlist of the named node type.
func Build(name string) (*Netlist, error) {
	switch name {
	case BaselineFanout:
		return BuildBaselineFanout(), nil
	case SpecFanout:
		return BuildSpecFanout(), nil
	case NonSpecFanout:
		return BuildNonSpecFanout(), nil
	case OptSpecFanout:
		return BuildOptSpecFanout(), nil
	case OptNonSpecFanout:
		return BuildOptNonSpecFanout(), nil
	case FaninNode:
		return BuildFanin(), nil
	case MeshRouter:
		return BuildMeshRouter(), nil
	default:
		return nil, fmt.Errorf("netlist: unknown node type %q", name)
	}
}

// AllNodeNames lists every node type in report order.
func AllNodeNames() []string {
	return []string{
		BaselineFanout, SpecFanout, NonSpecFanout,
		OptSpecFanout, OptNonSpecFanout, FaninNode,
	}
}

// Cost is one row of the paper's node-level results (Section 5.2(a)),
// derived from a node's gate-level netlist.
type Cost struct {
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

// Costs analyzes every node of AllNodeNames, in that order.
func Costs() ([]Cost, error) {
	var out []Cost
	for _, name := range AllNodeNames() {
		nl, err := Build(name)
		if err != nil {
			return nil, err
		}
		fwd := nl.MustPath(NetReqIn, NetReqOut0)
		body := fwd
		if nl.Net(NetReqOutFast) != nil {
			body = nl.MustPath(NetReqIn, NetReqOutFast)
		}
		out = append(out, Cost{Name: name, AreaUm2: nl.Area(), ForwardPs: fwd, BodyForwardPs: body, Cells: nl.CellCount()})
	}
	return out, nil
}
