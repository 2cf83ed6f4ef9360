package network

import (
	"fmt"
	"slices"

	"asyncnoc/internal/mesh"
	"asyncnoc/internal/packet"
)

// buildMesh instantiates every router and interface of a mesh spec and
// wires the links: a bidirectional pair on each mesh edge, then each
// tile's injection and delivery link on the router's local port. The
// mesh has no fault layer and runs on one scheduler (Spec.Validate).
func (nw *Network) buildMesh() {
	g := nw.Spec.grid()
	tiles := g.Terminals()
	fifoCap := 2 * nw.Spec.PacketLen
	if nw.Spec.Serial {
		fifoCap = nw.Spec.PacketLen // unicast worms still need VCT headroom
	}
	a := &nw.acct
	nw.routers = resize(nw.routers, tiles)
	nw.sources = resize(nw.sources, tiles)
	nw.sinks = resize(nw.sinks, tiles)
	for t := range nw.routers {
		nw.routers[t].Init(a.sched, g, t, fifoCap)
		nw.routers[t].Hooks = a
		nw.sources[t].init(nw, t)
		nw.sinks[t].init(nw, t)
	}
	links := 2*((g.W-1)*g.H+g.W*(g.H-1)) + 2*tiles
	nw.links = slices.Grow(nw.links[:0], links)
	// pair wires the links between neighbors r (port p) and s (port q).
	pair := func(r *mesh.Router, p int, s *mesh.Router, q int) {
		ch := nw.channel(a, s, q, r, p)
		r.ConnectOutput(p, ch)
		s.ConnectInput(q, ch)
		back := nw.channel(a, r, p, s, q)
		s.ConnectOutput(q, back)
		r.ConnectInput(p, back)
	}
	for y := 0; y < g.H; y++ {
		for x := 0; x < g.W; x++ {
			r := &nw.routers[g.Tile(x, y)]
			if x+1 < g.W {
				pair(r, mesh.East, &nw.routers[g.Tile(x+1, y)], mesh.West)
			}
			if y+1 < g.H {
				pair(r, mesh.North, &nw.routers[g.Tile(x, y+1)], mesh.South)
			}
		}
	}
	for t := range nw.routers {
		r := &nw.routers[t]
		in := nw.channel(a, r, mesh.LocalPort, &nw.sources[t], 0)
		nw.sources[t].out = in
		r.ConnectInput(mesh.LocalPort, in)
		out := nw.channel(a, &nw.sinks[t], 0, r, mesh.LocalPort)
		r.ConnectOutput(mesh.LocalPort, out)
		nw.sinks[t].in = out
	}
	if len(nw.links) != links {
		panic(fmt.Sprintf("network: wired %d mesh links, reserved %d", len(nw.links), links))
	}
}

// RouterForwarded charges and traces a router commit to `ports` output
// FIFOs. The trace names the router by its tile in Tree, with Heap 0 (a
// mesh has no per-level fanout counters). A replication turns one live
// copy into `ports`.
func (a *actx) RouterForwarded(r *mesh.Router, f packet.Flit, ports int) {
	a.meterForward(r.Timing().AreaUm2, ports)
	if a.nw.Trace != nil {
		a.trace(TraceEvent{Kind: TraceForward, At: a.sched.Now(), Flit: f, Tree: r.Tile, Ports: ports})
	}
	f.Pkt.Refs += int32(ports - 1)
}

// Router exposes the router of tile t on a mesh build (tests and
// diagnostics).
func (nw *Network) Router(t int) *mesh.Router { return &nw.routers[t] }

// routerStuck reports every flit held by tile t's router on a mesh
// build: its input slots, output FIFOs and output links, port by port.
func (nw *Network) routerStuck(t int, add func(string, packet.Flit)) {
	r := &nw.routers[t]
	for p := 0; p < mesh.NumPorts; p++ {
		if f, ok := r.InputPending(p); ok {
			add(fmt.Sprintf("router %d input.%s", t, mesh.PortName(p)), f)
		}
		r.EachQueued(p, func(f packet.Flit) {
			add(fmt.Sprintf("router %d fifo.%s", t, mesh.PortName(p)), f)
		})
		if ch := r.OutputChannel(p); ch != nil {
			if f, ok := ch.InFlightFlit(); ok {
				add(fmt.Sprintf("channel router %d.%s", t, mesh.PortName(p)), f)
			}
		}
	}
}
