// Package power implements the switching-activity energy model used to
// regenerate Table 1's total network power column.
//
// The paper records the switching activity of every wire over a benchmark
// run and feeds it to Synopsys PrimeTime. This model performs the same
// two steps inside the simulator: every handshake event (node traversal,
// channel flight, interface operation) deposits an energy quantum, and
// total power is energy divided by the measurement window.
//
// Per-event energies are proportional to the switched area: a node
// traversal charges an input-stage share plus one output-port share per
// channel actually driven, so redundant speculative copies and throttled
// flits are charged exactly where the paper says the overheads arise. The
// proportionality constant and wire energy are calibrated to land the
// baseline network in the paper's milliwatt range; all cross-network
// comparisons are activity-driven and independent of that scale.
package power

import "asyncnoc/internal/sim"

// Model holds the calibration constants of the energy model.
type Model struct {
	// PJPerUm2 converts switched node area to energy: a full broadcast
	// traversal of a node with area A charges about A*PJPerUm2 pJ.
	PJPerUm2 float64
	// InputFraction is the share of a node's area switched by the
	// input stage (monitor, storage, ack) regardless of routing.
	InputFraction float64
	// PortFraction is the share switched per output port driven.
	PortFraction float64
	// ChannelPJ is the energy of one flit flight over one link.
	ChannelPJ float64
	// InterfacePJ is the energy of one source/sink interface operation.
	InterfacePJ float64
}

// DefaultModel returns the calibrated model constants.
func DefaultModel() Model {
	return Model{
		PJPerUm2:      0.00273,
		InputFraction: 0.4,
		PortFraction:  0.3,
		ChannelPJ:     0.24,
		InterfacePJ:   0.137,
	}
}

// ClockTreeFJPerNodeCycle is the clock-tree energy charged per node per
// cycle when a network is clocked (synchronous variant): latch clock pins
// plus local clock buffering. Asynchronous networks pay none of it — the
// motivation the paper cites for GALS designs.
const ClockTreeFJPerNodeCycle = 40.0

// Meter accumulates energy over a measurement window.
type Meter struct {
	Model Model
	// Now supplies the simulation clock (set by the network).
	Now func() sim.Time
	// WindowStart/WindowEnd bound the accounted interval.
	WindowStart, WindowEnd sim.Time
	// BackgroundMW is load-independent power added to PowerMW — the
	// clock-tree burn of a synchronous network (zero for asynchronous).
	BackgroundMW float64

	energyPJ float64
	// d2dPJ is the die-to-die link share of energyPJ (chiplet
	// compositions only); d2dFlitHops counts flit-hop crossings.
	d2dPJ       float64
	d2dFlitHops int64
	// event counters (diagnostics and tests)
	nodeForwards, nodeAbsorbs, channelFlights, interfaceOps int64
}

// NewMeter returns a meter using the default model and an open window.
func NewMeter(now func() sim.Time) *Meter {
	return &Meter{Model: DefaultModel(), Now: now, WindowEnd: sim.Never}
}

// Reset returns the meter to the state NewMeter returns, on the same
// clock.
func (m *Meter) Reset() {
	*m = Meter{Model: DefaultModel(), Now: m.Now, WindowEnd: sim.Never}
}

// SetWindow bounds the accounted interval.
func (m *Meter) SetWindow(start, end sim.Time) {
	m.WindowStart, m.WindowEnd = start, end
}

func (m *Meter) inWindow() bool {
	t := m.Now()
	return t >= m.WindowStart && t < m.WindowEnd
}

// NodeForward charges a node traversal that drove `ports` output channels.
func (m *Meter) NodeForward(areaUm2 float64, ports int) {
	if !m.inWindow() {
		return
	}
	m.nodeForwards++
	m.energyPJ += areaUm2 * m.Model.PJPerUm2 *
		(m.Model.InputFraction + m.Model.PortFraction*float64(ports))
}

// NodeAbsorb charges a throttled/blocked flit: only the input stage
// switches, the output ports stay quiet.
func (m *Meter) NodeAbsorb(areaUm2 float64) {
	if !m.inWindow() {
		return
	}
	m.nodeAbsorbs++
	m.energyPJ += areaUm2 * m.Model.PJPerUm2 * m.Model.InputFraction
}

// Channel charges one flit flight over one link.
func (m *Meter) Channel() {
	if !m.inWindow() {
		return
	}
	m.channelFlights++
	m.energyPJ += m.Model.ChannelPJ
}

// Interface charges one source or sink interface operation.
func (m *Meter) Interface() {
	if !m.inWindow() {
		return
	}
	m.interfaceOps++
	m.energyPJ += m.Model.InterfacePJ
}

// D2D charges a die-to-die link transfer: flitHops flit-hop crossings
// costing pj picojoules total. The energy lands in both the network
// total and the D2D breakout, so the hierarchy-level power tables
// decompose the same total the single-die path reports.
func (m *Meter) D2D(flitHops int, pj float64) {
	if !m.inWindow() {
		return
	}
	m.d2dFlitHops += int64(flitHops)
	m.d2dPJ += pj
	m.energyPJ += pj
}

// EnergyPJ returns the accumulated energy.
func (m *Meter) EnergyPJ() float64 { return m.energyPJ }

// D2DFlitHops returns how many flit-hop D2D crossings were charged
// inside the window.
func (m *Meter) D2DFlitHops() int64 { return m.d2dFlitHops }

// D2DPowerMW returns the average D2D link power over the window.
func (m *Meter) D2DPowerMW() float64 {
	w := m.WindowEnd - m.WindowStart
	if w <= 0 {
		return 0
	}
	return m.d2dPJ / w.Nanoseconds()
}

// PowerMW returns the average power over the window: pJ / ns == mW.
func (m *Meter) PowerMW() float64 {
	w := m.WindowEnd - m.WindowStart
	if w <= 0 {
		return 0
	}
	return m.BackgroundMW + m.energyPJ/w.Nanoseconds()
}

// Counters returns the raw event counts (forwards, absorbs, channel
// flights, interface operations).
func (m *Meter) Counters() (forwards, absorbs, channels, interfaces int64) {
	return m.nodeForwards, m.nodeAbsorbs, m.channelFlights, m.interfaceOps
}
