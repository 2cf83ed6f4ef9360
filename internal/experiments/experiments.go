// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 5): the node-level results, the contribution-
// trajectory and design-space latency figures (Fig. 6a/6b), the
// saturation-throughput and total-network-power tables (Table 1), and the
// addressing-scheme comparison (Section 5.2(d)).
//
// A Suite memoizes the expensive saturation searches (each figure and
// table reuses them) and executes every independent simulation through a
// shared core.Engine — a bounded worker pool with a keyed result memo —
// so measurement points shared between tables (Fig. 6(a)/6(b) rows, the
// Table 1 power runs that coincide with latency runs) are computed once.
// Every simulation owns its scheduler, so parallelism is safe, and
// results are consumed in deterministic order, so the emitted tables are
// bit-identical to a serial evaluation.
package experiments

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"asyncnoc/internal/core"
	"asyncnoc/internal/netlist"
	"asyncnoc/internal/network"
	"asyncnoc/internal/routing"
	"asyncnoc/internal/sim"
	"asyncnoc/internal/traffic"
)

// Table is a formatted result table.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
	// Notes carry methodology remarks printed under the table.
	Notes []string
}

// Format renders the table as aligned text.
func (t *Table) Format() string {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", t.Title)
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Columns)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "  note: %s\n", n)
	}
	return b.String()
}

// Suite runs the evaluation with memoized saturation searches.
type Suite struct {
	// N is the MoT radix (the paper evaluates 8).
	N int
	// Seed drives all randomness.
	Seed uint64
	// SatWarmup/SatMeasure/SatDrain are the windows used inside the
	// saturation search (shorter than the latency windows; the search
	// runs a dozen simulations per network/benchmark pair).
	SatWarmup, SatMeasure, SatDrain sim.Time
	// LatWarmup/LatMeasure/LatDrain are the windows of the latency and
	// power measurement runs (the paper uses 320 ns / 3200 ns).
	LatWarmup, LatMeasure, LatDrain sim.Time
	// SatIters is the bisection depth of the saturation search.
	SatIters int
	// Workers bounds simulation parallelism (default GOMAXPROCS). Set
	// before the first measurement call.
	Workers int

	mu   sync.Mutex
	sats map[string]core.SatResult

	engOnce sync.Once
	eng     *core.Engine
}

// NewSuite returns a suite configured for full (paper-scale) or quick
// (CI-scale) measurement windows.
func NewSuite(quick bool) *Suite {
	s := &Suite{
		N:    8,
		Seed: 2016,
		sats: make(map[string]core.SatResult),
	}
	if quick {
		s.SatWarmup, s.SatMeasure, s.SatDrain = 120*sim.Nanosecond, 400*sim.Nanosecond, 300*sim.Nanosecond
		s.LatWarmup, s.LatMeasure, s.LatDrain = 200*sim.Nanosecond, 1200*sim.Nanosecond, 500*sim.Nanosecond
		s.SatIters = 7
	} else {
		s.SatWarmup, s.SatMeasure, s.SatDrain = 200*sim.Nanosecond, 800*sim.Nanosecond, 500*sim.Nanosecond
		s.LatWarmup, s.LatMeasure, s.LatDrain = 320*sim.Nanosecond, 3200*sim.Nanosecond, 800*sim.Nanosecond
		s.SatIters = 9
	}
	return s
}

// Engine returns the suite's shared experiment engine, constructed on
// first use with the configured worker count.
func (s *Suite) Engine() *core.Engine {
	s.engOnce.Do(func() { s.eng = core.NewEngine(s.Workers) })
	return s.eng
}

// satBase returns the saturation-search run template for a benchmark.
func (s *Suite) satBase(bench traffic.Benchmark) core.RunConfig {
	return core.RunConfig{
		Bench: bench, Seed: s.Seed,
		Warmup: s.SatWarmup, Measure: s.SatMeasure, Drain: s.SatDrain,
	}
}

// Sat returns the (memoized) saturation result for one pair.
func (s *Suite) Sat(spec network.Spec, bench traffic.Benchmark) (core.SatResult, error) {
	key := spec.Name + "|" + bench.Name()
	s.mu.Lock()
	if r, ok := s.sats[key]; ok {
		s.mu.Unlock()
		return r, nil
	}
	s.mu.Unlock()
	r, err := s.Engine().Saturation(spec, core.SatConfig{Base: s.satBase(bench), Iters: s.SatIters})
	if err != nil {
		return core.SatResult{}, err
	}
	s.mu.Lock()
	s.sats[key] = r
	s.mu.Unlock()
	return r, nil
}

// Prefetch computes the saturation results of all (spec, bench) pairs
// concurrently — each search's simulations run on the engine's pool — so
// subsequent table builds hit the memo. A search occupies at most
// one pool slot and holds its suspended stable boundary (a whole
// network) between probes, so at most a pool's worth of searches run at
// once: more would only queue, each holding its network. The returned
// error is the first failing pair's in (spec, bench) order.
func (s *Suite) Prefetch(specs []network.Spec, benches []traffic.Benchmark) error {
	errs := make([]error, len(specs)*len(benches))
	running := make(chan struct{}, s.Engine().Workers())
	var wg sync.WaitGroup
	for i, spec := range specs {
		for j, bench := range benches {
			i, j, spec, bench := i, j, spec, bench
			wg.Add(1)
			go func() {
				defer wg.Done()
				running <- struct{}{}
				defer func() { <-running }()
				if _, err := s.Sat(spec, bench); err != nil {
					errs[i*len(benches)+j] = fmt.Errorf("%s/%s: %w", spec.Name, bench.Name(), err)
				}
			}()
		}
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// latencyAtQuarter is the Fig. 6 measurement config: 25% of the pair's
// own saturation load (the saturation search must already be memoized or
// is computed on demand).
func (s *Suite) latencyAtQuarter(spec network.Spec, bench traffic.Benchmark) (core.RunConfig, error) {
	sat, err := s.Sat(spec, bench)
	if err != nil {
		return core.RunConfig{}, err
	}
	return core.RunConfig{
		Bench: bench, Seed: s.Seed, LoadGFs: 0.25 * sat.SatLoadGFs,
		Warmup: s.LatWarmup, Measure: s.LatMeasure, Drain: s.LatDrain,
	}, nil
}

// powerAtBaselineQuarter is the Table 1 power measurement config: 25% of
// the *Baseline* network's saturation for the benchmark — one common
// injection rate per benchmark for a normalized energy-per-packet
// comparison.
func (s *Suite) powerAtBaselineQuarter(spec network.Spec, bench traffic.Benchmark) (core.RunConfig, error) {
	sat, err := s.Sat(core.Baseline(s.N), bench)
	if err != nil {
		return core.RunConfig{}, err
	}
	return core.RunConfig{
		Bench: bench, Seed: s.Seed, LoadGFs: 0.25 * sat.SatLoadGFs,
		Warmup: s.LatWarmup, Measure: s.LatMeasure, Drain: s.LatDrain,
	}, nil
}

// runMatrix builds one run config per (spec, bench) pair, executes them
// all on the engine, and returns the results in job order: row i holds
// specs[i]'s results, one per benchmark in order. Coinciding configs
// across matrices (e.g. a network appearing in both Fig. 6 tables) are
// engine memo hits.
func (s *Suite) runMatrix(specs []network.Spec, benches []traffic.Benchmark,
	cfgFor func(network.Spec, traffic.Benchmark) (core.RunConfig, error)) ([][]core.RunResult, error) {
	var jobs []core.Job
	for _, spec := range specs {
		for _, bench := range benches {
			cfg, err := cfgFor(spec, bench)
			if err != nil {
				return nil, err
			}
			jobs = append(jobs, core.Job{Spec: spec, Cfg: cfg})
		}
	}
	runs, err := s.Engine().RunJobs(jobs)
	if err != nil {
		return nil, err
	}
	rows := make([][]core.RunResult, len(specs))
	for i := range rows {
		rows[i] = runs[i*len(benches) : (i+1)*len(benches)]
	}
	return rows, nil
}

// NodeLevel regenerates the Section 5.2(a) node-level results from the
// gate netlists, alongside the paper's reported figures.
func NodeLevel() (*Table, error) {
	paper := map[string][2]string{
		netlist.BaselineFanout:   {"342", "263"},
		netlist.SpecFanout:       {"247", "52"},
		netlist.NonSpecFanout:    {"406", "299"},
		netlist.OptSpecFanout:    {"373", "120"},
		netlist.OptNonSpecFanout: {"366", "279"},
		netlist.FaninNode:        {"-", "-"},
	}
	t := &Table{
		Title:   "Node-level results (Section 5.2(a)): area and forward latency",
		Columns: []string{"node", "cells", "area um^2", "paper um^2", "fwd ps", "paper ps", "body-fwd ps"},
		Notes: []string{
			"areas and forward paths are computed from the gate-level netlists (internal/netlist)",
			"body-fwd is the body-flit fast path of the channel pre-allocating node",
		},
	}
	costs, err := netlist.Costs()
	if err != nil {
		return nil, err
	}
	for _, c := range costs {
		p := paper[c.Name]
		t.Rows = append(t.Rows, []string{
			c.Name,
			fmt.Sprintf("%d", c.Cells),
			fmt.Sprintf("%.1f", c.AreaUm2),
			p[0],
			fmt.Sprintf("%d", c.ForwardPs),
			p[1],
			fmt.Sprintf("%d", c.BodyForwardPs),
		})
	}
	return t, nil
}

// shootoutStrategies are the non-default schemes the strategy rows and
// the Fig. 7 shootout compare against each architecture's default.
var shootoutStrategies = []string{routing.PathBasedName, routing.DPMName}

// withStrategies appends the named strategy variants of base to specs.
func withStrategies(specs []network.Spec, base network.Spec, names ...string) []network.Spec {
	for _, name := range names {
		specs = append(specs, core.WithStrategy(base, name))
	}
	return specs
}

// StrategyVariants returns the related-work strategy variants that extend
// the paper's tables: path-based and DPM on the headline hybrid network
// and on the zero-speculation design point.
func StrategyVariants(n int) []network.Spec {
	var specs []network.Spec
	specs = withStrategies(specs, core.OptHybridSpeculative(n), shootoutStrategies...)
	specs = withStrategies(specs, core.OptNonSpeculative(n), shootoutStrategies...)
	return specs
}

// Fig6a regenerates the contribution-trajectory latency figure: average
// network latency at 25% saturation for the four networks of the first
// case study across all six benchmarks, extended with the related-work
// strategies on the headline hybrid network.
func (s *Suite) Fig6a() (*Table, error) {
	specs := withStrategies(core.ContributionTrajectory(s.N),
		core.OptHybridSpeculative(s.N), shootoutStrategies...)
	return s.latencyTable(
		"Fig. 6(a): average network latency (ns) at 25% saturation — contribution trajectory",
		specs)
}

// Fig6b regenerates the design-space latency figure for the three
// optimized networks, extended with the related-work strategies on the
// zero-speculation design point.
func (s *Suite) Fig6b() (*Table, error) {
	specs := withStrategies(core.DesignSpace(s.N),
		core.OptNonSpeculative(s.N), shootoutStrategies...)
	return s.latencyTable(
		"Fig. 6(b): average network latency (ns) at 25% saturation — design space exploration",
		specs)
}

// Fig7Shootout is the multicast-scheme shootout (beyond the paper):
// average latency at 25% of own saturation for every routing strategy on
// the headline hybrid network and the zero-speculation design point. The
// default rows coincide with Fig. 6 measurement points (engine memo
// hits); the serial-unicast rows show what each fabric loses without any
// multicast support.
func (s *Suite) Fig7Shootout() (*Table, error) {
	var specs []network.Spec
	for _, base := range []network.Spec{core.OptHybridSpeculative(s.N), core.OptNonSpeculative(s.N)} {
		specs = append(specs, base)
		specs = withStrategies(specs, base,
			routing.SerialUnicastName, routing.PathBasedName, routing.DPMName)
	}
	t, err := s.latencyTable(
		"Fig. 7: multicast-scheme shootout — average latency (ns) at 25% saturation",
		specs)
	if err != nil {
		return nil, err
	}
	t.Notes = append(t.Notes,
		"rows without a +strategy suffix use the architecture's default (simplified speculative multicast)",
		"TreeMulticast plans identically to the default on these fabrics and is omitted; DPM merges to it when speculative broadcast waste makes splitting costlier")
	return t, nil
}

func (s *Suite) latencyTable(title string, specs []network.Spec) (*Table, error) {
	benches := traffic.StandardSuite(s.N)
	if err := s.Prefetch(specs, benches); err != nil {
		return nil, err
	}
	results, err := s.runMatrix(specs, benches, s.latencyAtQuarter)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:   title,
		Columns: append([]string{"network"}, benchNames(benches)...),
		Notes: []string{
			"latency measured from packet injection to arrival of ALL headers at their destinations",
			"load = 25% of each network's own saturation throughput for the benchmark",
		},
	}
	for i, spec := range specs {
		row := []string{spec.Name}
		for _, r := range results[i] {
			row = append(row, fmt.Sprintf("%.2f", r.AvgLatencyNs))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// Table1Throughput regenerates the saturation-throughput half of Table 1
// for all six networks and benchmarks.
func (s *Suite) Table1Throughput() (*Table, error) {
	specs := append(core.AllSpecs(s.N), StrategyVariants(s.N)...)
	benches := traffic.StandardSuite(s.N)
	if err := s.Prefetch(specs, benches); err != nil {
		return nil, err
	}
	t := &Table{
		Title:   "Table 1 (left): saturation throughput (GF/s per source)",
		Columns: append([]string{"network"}, benchNames(benches)...),
		Notes: []string{
			"accepted throughput at the highest stable offered load (latency-divergence criterion)",
			"multicast deliveries count at every destination, as in the paper",
		},
	}
	for _, spec := range specs {
		row := []string{spec.Name}
		for _, bench := range benches {
			sat, err := s.Sat(spec, bench)
			if err != nil {
				return nil, err
			}
			row = append(row, fmt.Sprintf("%.2f", sat.ThroughputGFs))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// PowerBenches lists the four benchmarks of Table 1's power half.
func PowerBenches(n int) []traffic.Benchmark {
	return []traffic.Benchmark{
		traffic.UniformRandom{N: n},
		traffic.Hotspot{N: n, Hot: 0},
		traffic.Multicast{N: n, Frac: 0.05},
		traffic.Multicast{N: n, Frac: 0.10},
	}
}

// Table1Power regenerates the total-network-power half of Table 1: all
// six networks at 25% of the Baseline's saturation per benchmark.
func (s *Suite) Table1Power() (*Table, error) {
	specs := append(core.AllSpecs(s.N), StrategyVariants(s.N)...)
	benches := PowerBenches(s.N)
	if err := s.Prefetch([]network.Spec{core.Baseline(s.N)}, benches); err != nil {
		return nil, err
	}
	results, err := s.runMatrix(specs, benches, s.powerAtBaselineQuarter)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:   "Table 1 (right): total network power (mW)",
		Columns: append([]string{"network"}, benchNames(benches)...),
		Notes: []string{
			"injection rate = 25% of the Baseline network's saturation load per benchmark",
			"energy charged per handshake event, proportional to switched node area",
		},
	}
	for i, spec := range specs {
		row := []string{spec.Name}
		for _, r := range results[i] {
			row = append(row, fmt.Sprintf("%.1f", r.PowerMW))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// UtilizationTable reports the per-level fanout utilization of every
// network at 25% of its own saturation under Multicast10 traffic: flits
// forwarded and redundant speculative copies throttled per tree level
// (root = L0), plus the network-wide redundant fraction. The throttle
// columns make the paper's locality claim directly visible — speculative
// copies die at the levels just below each speculative region. The runs
// coincide with the Fig. 6 measurement points, so they are engine memo
// hits when both tables are built.
func (s *Suite) UtilizationTable() (*Table, error) {
	specs := core.AllSpecs(s.N)
	benches := []traffic.Benchmark{traffic.Multicast{N: s.N, Frac: 0.10}}
	if err := s.Prefetch(specs, benches); err != nil {
		return nil, err
	}
	results, err := s.runMatrix(specs, benches, s.latencyAtQuarter)
	if err != nil {
		return nil, err
	}
	levels := results[0][0].Levels // every die of the suite has the same depth
	cols := []string{"network"}
	for l := 0; l < levels; l++ {
		cols = append(cols, fmt.Sprintf("L%d fwd", l), fmt.Sprintf("L%d thr", l))
	}
	cols = append(cols, "redundant")
	t := &Table{
		Title:   "Per-level fanout utilization at 25% saturation, Multicast10 (fwd = forwards, thr = throttled speculative copies)",
		Columns: cols,
		Notes: []string{
			"levels are fanout tree levels, root = L0; counts are window-scoped flit movements",
			"redundant = throttled / (forwarded + throttled): the locality of speculation waste",
		},
	}
	for i, spec := range specs {
		r := results[i][0]
		row := []string{spec.Name}
		for l := 0; l < levels; l++ {
			row = append(row,
				fmt.Sprintf("%d", r.ForwardsPerLevel[l]),
				fmt.Sprintf("%d", r.ThrottlesPerLevel[l]))
		}
		row = append(row, fmt.Sprintf("%.1f%%", 100*r.RedundantFraction))
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// Addressing regenerates the Section 5.2(d) address-size comparison for
// 8x8 and 16x16 MoTs.
func Addressing() (*Table, error) {
	t := &Table{
		Title:   "Addressing scheme comparison (Section 5.2(d)): header address bits",
		Columns: []string{"MoT", "Baseline", "NonSpeculative", "Hybrid", "AllSpeculative", "BitVector[5]", "PathBased", "DPM"},
		Notes: []string{
			"2 bits per addressable (non-speculative) fanout node; speculative nodes need no field",
			"BitVector is the related-work destination-bitmask scheme of Krishna et al. [5]",
			"PathBased/DPM carry destination lists: ceil(n/2) resp. n entries of log2(n) bits (worst-case partition)",
		},
	}
	for _, n := range []int{8, 16} {
		sz, err := routing.SizesFor(n)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%dx%d", n, n),
			fmt.Sprintf("%d", sz.Baseline),
			fmt.Sprintf("%d", sz.NonSpeculative),
			fmt.Sprintf("%d", sz.Hybrid),
			fmt.Sprintf("%d", sz.AllSpeculative),
			fmt.Sprintf("%d", sz.BitVector),
			fmt.Sprintf("%d", sz.PathBased),
			fmt.Sprintf("%d", sz.DPM),
		})
	}
	return t, nil
}

// SatLoads exposes the memoized saturation loads (diagnostics), sorted.
func (s *Suite) SatLoads() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	keys := make([]string, 0, len(s.sats))
	for k := range s.sats {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]string, len(keys))
	for i, k := range keys {
		out[i] = fmt.Sprintf("%s: load %.3f thr %.3f", k, s.sats[k].SatLoadGFs, s.sats[k].ThroughputGFs)
	}
	return out
}

func benchNames(benches []traffic.Benchmark) []string {
	out := make([]string, len(benches))
	for i, b := range benches {
		out[i] = b.Name()
	}
	return out
}

// CSV renders the table as RFC-4180-ish comma-separated values (title and
// notes become comment lines).
func (t *Table) CSV() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s\n", t.Title)
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteByte(',')
			}
			if strings.ContainsAny(c, ",\"\n") {
				c = "\"" + strings.ReplaceAll(c, "\"", "\"\"") + "\""
			}
			b.WriteString(c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "# %s\n", n)
	}
	return b.String()
}
