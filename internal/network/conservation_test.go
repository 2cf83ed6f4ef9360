package network

import (
	"math"
	"testing"

	"asyncnoc/internal/node"
	"asyncnoc/internal/packet"
	"asyncnoc/internal/rng"
	"asyncnoc/internal/routing"
	"asyncnoc/internal/sim"
	"asyncnoc/internal/topology"
)

// energyLedger shadows every charging path of the meter with independent
// per-event accounting: node forwards/absorbs recomputed from each
// node's own area and driven-port count, channel flights counted on
// every wire, and interface operations counted at the source root and
// sink channels.
type energyLedger struct {
	nodePJ                   float64
	channelFlights           int64
	sourceSends, sinkArrives int64
}

// attach chains the ledger onto every node callback and channel of a
// built network without disturbing the meter's own hooks.
func (l *energyLedger) attach(nw *Network) {
	model := nw.Meter.Model
	n := nw.Spec.N
	wire := func(ch *node.Channel, interfaceSide *int64) {
		ch.Hooks = traverseTap{ch.Hooks, func(packet.Flit) {
			l.channelFlights++
			if interfaceSide != nil {
				*interfaceSide++
			}
		}}
	}
	for t := 0; t < n; t++ {
		wire(nw.sources[t].out, &l.sourceSends)
		for k := 1; k < n; k++ {
			fo := nw.fanout(t, k)
			area := fo.Timing().AreaUm2
			fo.Hooks = fanoutTap{fo.Hooks,
				func(ports int) {
					l.nodePJ += area * model.PJPerUm2 *
						(model.InputFraction + model.PortFraction*float64(ports))
				},
				func() { l.nodePJ += area * model.PJPerUm2 * model.InputFraction },
			}
			for _, p := range []topology.Port{topology.Top, topology.Bottom} {
				wire(fo.OutputChannel(p), nil)
			}
			fi := nw.fanin(t, k)
			fiArea := fi.Timing().AreaUm2
			fi.Hooks = faninTap{fi.Hooks, func() {
				l.nodePJ += fiArea * model.PJPerUm2 * (model.InputFraction + model.PortFraction)
			}}
			if k == 1 {
				wire(fi.OutputChannel(), &l.sinkArrives)
			} else {
				wire(fi.OutputChannel(), nil)
			}
		}
	}
}

// traverseTap chains fn after a channel's own traversal hook.
type traverseTap struct {
	node.ChannelHooks
	fn func(packet.Flit)
}

func (t traverseTap) ChannelTraversed(f packet.Flit) {
	t.ChannelHooks.ChannelTraversed(f)
	t.fn(f)
}

// fanoutTap chains fwd/abs after a fanout node's own hooks.
type fanoutTap struct {
	node.FanoutHooks
	fwd func(ports int)
	abs func()
}

func (t fanoutTap) FanoutForwarded(n *node.Fanout, f packet.Flit, ports int) {
	t.FanoutHooks.FanoutForwarded(n, f, ports)
	t.fwd(ports)
}

func (t fanoutTap) FanoutAbsorbed(n *node.Fanout, f packet.Flit) {
	t.FanoutHooks.FanoutAbsorbed(n, f)
	t.abs()
}

// faninTap chains fwd after a fanin node's own hook.
type faninTap struct {
	node.FaninHooks
	fwd func()
}

func (t faninTap) FaninForwarded(n *node.Fanin, f packet.Flit) {
	t.FaninHooks.FaninForwarded(n, f)
	t.fwd()
}

// totalPJ reconstructs the network energy from the ledger alone.
func (l *energyLedger) totalPJ(nw *Network) float64 {
	model := nw.Meter.Model
	return l.nodePJ +
		float64(l.channelFlights)*model.ChannelPJ +
		float64(l.sourceSends+l.sinkArrives)*model.InterfacePJ
}

// TestEnergyConservationStrategies re-runs the conservation ledger with
// every registered routing strategy on a speculative and a
// zero-speculation fabric: however a scheme partitions a multicast into
// packets, every forward, absorb, wire flight, and interface operation
// must still be charged exactly once.
func TestEnergyConservationStrategies(t *testing.T) {
	for _, base := range []Spec{optHybrid(8), optNonSpec(8)} {
		for _, strat := range routing.StrategyNames() {
			spec := base
			spec.Strategy = strat
			spec.Name = base.Name + "+" + strat
			t.Run(spec.Name, func(t *testing.T) {
				nw, err := New(spec)
				if err != nil {
					t.Fatal(err)
				}
				nw.Rec.SetWindow(0, 1<<62)
				nw.Meter.SetWindow(0, 1<<62)
				var ledger energyLedger
				ledger.attach(nw)

				r := rng.New(20160609)
				for i := 0; i < 30; i++ {
					src := r.Intn(8)
					var dests packet.DestSet
					for dests.Empty() {
						for d := 0; d < 8; d++ {
							if r.Bool(0.3) {
								dests = dests.Add(d)
							}
						}
					}
					at := sim.Time(i) * 400 * sim.Picosecond
					nw.Sched.Schedule(at, func() {
						if _, err := nw.Inject(src, dests); err != nil {
							t.Error(err)
						}
					})
				}
				nw.Sched.Run()

				got, want := nw.Meter.EnergyPJ(), ledger.totalPJ(nw)
				if diff := math.Abs(got - want); diff > 1e-9*(1+want) {
					t.Errorf("meter %.9f pJ != ledger %.9f pJ", got, want)
				}
				if want == 0 {
					t.Fatal("ledger accumulated no energy; hooks not attached?")
				}
			})
		}
	}
}

// TestEnergyConservationRandomMulticast: for random multicast workloads
// on every architecture, the meter's total network energy equals the sum
// of the independently recomputed per-node, per-channel, and
// per-interface charges — no event is double-charged or dropped.
func TestEnergyConservationRandomMulticast(t *testing.T) {
	for _, spec := range allSpecs(8) {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			nw, err := New(spec)
			if err != nil {
				t.Fatal(err)
			}
			nw.Rec.SetWindow(0, 1<<62)
			nw.Meter.SetWindow(0, 1<<62)
			var ledger energyLedger
			ledger.attach(nw)

			r := rng.New(20160608)
			for i := 0; i < 40; i++ {
				src := r.Intn(8)
				var dests packet.DestSet
				for dests.Empty() {
					for d := 0; d < 8; d++ {
						if r.Bool(0.3) {
							dests = dests.Add(d)
						}
					}
				}
				at := sim.Time(i) * 400 * sim.Picosecond
				nw.Sched.Schedule(at, func() {
					if _, err := nw.Inject(src, dests); err != nil {
						t.Error(err)
					}
				})
			}
			nw.Sched.Run()

			got, want := nw.Meter.EnergyPJ(), ledger.totalPJ(nw)
			if diff := math.Abs(got - want); diff > 1e-9*(1+want) {
				t.Errorf("meter %.9f pJ != ledger %.9f pJ (node %.9f, %d channel flights, %d+%d interface ops)",
					got, want, ledger.nodePJ, ledger.channelFlights, ledger.sourceSends, ledger.sinkArrives)
			}
			if want == 0 {
				t.Fatal("ledger accumulated no energy; hooks not attached?")
			}
			// The meter's own event counters must agree with the wires.
			_, _, channels, interfaces := nw.Meter.Counters()
			if channels != ledger.channelFlights {
				t.Errorf("meter counted %d channel flights, wires saw %d", channels, ledger.channelFlights)
			}
			if interfaces != ledger.sourceSends+ledger.sinkArrives {
				t.Errorf("meter counted %d interface ops, wires saw %d",
					interfaces, ledger.sourceSends+ledger.sinkArrives)
			}
		})
	}
}
