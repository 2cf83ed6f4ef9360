package core

import (
	"context"
	"encoding/json"
	"errors"
	"math/rand/v2"
	"sync"
	"testing"

	"asyncnoc/internal/metrics"
	"asyncnoc/internal/network"
	"asyncnoc/internal/sim"
	"asyncnoc/internal/traffic"
)

// satTablePairs are the nine (network, benchmark) pairs of the Fig 6a /
// Table 1 slice that nocbench's sat-table workload searches.
func satTablePairs() []struct {
	spec  network.Spec
	bench traffic.Benchmark
} {
	var pairs []struct {
		spec  network.Spec
		bench traffic.Benchmark
	}
	for _, spec := range []network.Spec{Baseline(8), BasicNonSpeculative(8), OptHybridSpeculative(8)} {
		for _, bench := range []traffic.Benchmark{
			traffic.UniformRandom{N: 8}, traffic.Multicast{N: 8, Frac: 0.10}, traffic.Hotspot{N: 8, Hot: 0},
		} {
			pairs = append(pairs, struct {
				spec  network.Spec
				bench traffic.Benchmark
			}{spec, bench})
		}
	}
	return pairs
}

// quickSatConfig is the CI-scale search of cmd/experiments -quick.
func quickSatConfig(bench traffic.Benchmark, seed uint64) SatConfig {
	return SatConfig{
		Base: RunConfig{Bench: bench, Seed: seed,
			Warmup: 120 * sim.Nanosecond, Measure: 400 * sim.Nanosecond, Drain: 300 * sim.Nanosecond},
		Iters: 7,
	}
}

// runProber is the full-run reference the engine's search must
// reproduce: every probe runs to its end.
type runProber func(load float64) (RunResult, error)

func (run runProber) full(load float64) (RunResult, error) { return run(load) }

func (run runProber) probe(load float64, c metrics.SatCriterion) (satProbe, error) {
	res, err := run(load)
	if err != nil {
		return nil, err
	}
	return finished(res, c), nil
}

// fullRunSaturation is cfg's search on ts over full runs through Run;
// seen, when not nil, sees every probed load.
func fullRunSaturation(spec network.Spec, cfg SatConfig, seen func(load float64)) (SatResult, error) {
	return saturationSearch(context.Background(), spec.Name, cfg, runProber(func(load float64) (RunResult, error) {
		if seen != nil {
			seen(load)
		}
		c := cfg.Base
		c.LoadGFs = load
		return Run(spec, c)
	}))
}

// fakeStoreKeys lists the keys a fakeStore holds.
func fakeStoreKeys(st *fakeStore) map[string]bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	keys := map[string]bool{}
	for k := range st.entries {
		keys[k] = true
	}
	return keys
}

// TestSaturationVerdictsMatchFullRuns: the engine's search, whose probes
// stop at their verdicts, returns byte-for-byte the SatResult of the same
// search over full runs, and keeps the engine's books: one simulation per
// distinct probed load, none in flight afterwards, every claimed miss
// completed, no early-stopped probe published as a result, and a repeated
// search answered without simulating. The 4x4 meshes search the same
// way. A sharded chiplet search returns the serial chiplet search's
// SatResult.
func TestSaturationVerdictsMatchFullRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 40 saturation searches")
	}
	type job struct {
		spec network.Spec
		cfg  SatConfig
	}
	var jobs []job
	for _, seed := range []uint64{2016, 7} {
		for _, p := range satTablePairs() {
			jobs = append(jobs, job{p.spec, quickSatConfig(p.bench, seed)})
		}
		for _, spec := range []network.Spec{MeshTree(4, 4), MeshSerial(4, 4)} {
			jobs = append(jobs, job{spec, quickSatConfig(traffic.Multicast{N: 16, Frac: 0.10}, seed)})
		}
	}
	early := 0
	for _, j := range jobs {
		name := j.spec.Name + "/" + j.cfg.Base.Bench.Name()
		loads := map[float64]bool{}
		want, err := fullRunSaturation(j.spec, j.cfg, func(load float64) { loads[load] = true })
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		e := NewEngine(2)
		st := newFakeStore()
		e.SetStore(st)
		got, err := e.Saturation(j.spec, j.cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		a, _ := json.Marshal(want)
		b, _ := json.Marshal(got)
		if string(a) != string(b) {
			t.Fatalf("%s (seed %d): verdict search differs from full-run search:\n%s\nvs\n%s",
				name, j.cfg.Base.Seed, b, a)
		}
		snap := e.Snapshot()
		if snap.Started != uint64(len(loads)) {
			t.Errorf("%s: %d simulations, want %d (one per distinct probed load)", name, snap.Started, len(loads))
		}
		if snap.InFlight() != 0 || snap.Completed != snap.Misses {
			t.Errorf("%s: after the search: started %d, completed %d, misses %d", name, snap.Started, snap.Completed, snap.Misses)
		}
		stored := fakeStoreKeys(st)
		final := j.cfg.Base
		final.LoadGFs = got.SatLoadGFs
		finalKey := JobKey(j.spec, final)
		resumed := 0
		for vk := range e.verdicts.entries {
			if vk.job == finalKey {
				resumed = 1 // the final boundary ran on to its end
				continue
			}
			early++
			if _, ok := e.results.entries[vk.job]; ok {
				t.Errorf("%s: an early-stopped probe is memoized as a result", name)
			}
			if stored[vk.job] {
				t.Errorf("%s: an early-stopped probe was written to the store", name)
			}
		}
		if len(stored)+len(e.verdicts.entries)-resumed != len(loads) {
			t.Errorf("%s: %d stored results and %d verdicts for %d probed loads", name, len(stored), len(e.verdicts.entries), len(loads))
		}
		again, err := e.Saturation(j.spec, j.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if c, _ := json.Marshal(again); string(c) != string(a) {
			t.Errorf("%s: repeated search differs", name)
		}
		if n := e.Snapshot().Started; n != snap.Started {
			t.Errorf("%s: repeated search started %d simulations", name, n-snap.Started)
		}
		if n := len(st.verdicts); n != len(loads)-1 {
			t.Errorf("%s: %d verdicts stored for %d probed loads besides the zero-load run", name, n, len(loads)-1)
		}
		// A second engine over the same store (another process sharing
		// the cache) repeats the search without simulating: every probe
		// reads its stored verdict, and every lookup the memo cannot
		// answer is a store hit.
		before := st.Stats()
		e2 := NewEngine(2)
		e2.SetStore(st)
		warm, err := e2.Saturation(j.spec, j.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if c, _ := json.Marshal(warm); string(c) != string(a) {
			t.Errorf("%s: search over a warm store differs", name)
		}
		after, snap2 := st.Stats(), e2.Snapshot()
		if snap2.Started != 0 || after.Misses != before.Misses || snap2.Misses != after.Hits-before.Hits {
			t.Errorf("%s: search over a warm store: %d simulations, %d store misses, %d engine misses for %d store hits",
				name, snap2.Started, after.Misses-before.Misses, snap2.Misses, after.Hits-before.Hits)
		}
	}
	if early == 0 {
		t.Error("no probe stopped at its verdict")
	}

	// Chiplet probes run their full span (Engine.probe), so this pair
	// stores no verdicts; it checks only that sharding by die leaves the
	// search's result unchanged.
	spec, b := composed2x2(t, "Multicast10")
	sc := quickSatConfig(b, 2016)
	serial, err := NewEngine(2).Saturation(spec, sc)
	if err != nil {
		t.Fatal(err)
	}
	sc.Base.Shards = 2
	sharded, err := NewEngine(2).Saturation(spec, sc)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(serial)
	c, _ := json.Marshal(sharded)
	if string(a) != string(c) {
		t.Fatalf("%s: sharded search differs from the serial search:\n%s\nvs\n%s", spec.Name, c, a)
	}
}

// TestEarlyStoppedProbeIsNeverServed: a job whose probe stopped at its
// verdict is simulated afresh by Run and RunKeyed, to the full result.
func TestEarlyStoppedProbeIsNeverServed(t *testing.T) {
	spec := OptHybridSpeculative(8)
	cfg := quickSatConfig(traffic.UniformRandom{N: 8}, 2016)
	e := NewEngine(2)
	sat, err := e.Saturation(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	final := cfg.Base
	final.LoadGFs = sat.SatLoadGFs
	loads := probedLoads(t, spec, cfg)
	checked := 0
	for vk := range e.verdicts.entries {
		if vk.job == JobKey(spec, final) {
			continue // the final boundary ran on to its end
		}
		checked++
		var c RunConfig
		for _, load := range loads {
			c = cfg.Base
			c.LoadGFs = load
			if JobKey(spec, c) == vk.job {
				break
			}
		}
		if JobKey(spec, c) != vk.job {
			t.Fatal("verdict key matches no probed load")
		}
		started := e.Snapshot().Started
		got, src, err := e.RunKeyed(context.Background(), JobKey(spec, c), spec, c)
		if err != nil {
			t.Fatal(err)
		}
		if src != SourceComputed || e.Snapshot().Started != started+1 {
			t.Fatalf("load %v: early-stopped probe served from source %d", c.LoadGFs, src)
		}
		want, err := Run(spec, c)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("load %v: result differs from a plain run", c.LoadGFs)
		}
	}
	if checked == 0 {
		t.Fatal("no probe stopped at its verdict")
	}
}

// TestConcurrentSearchesShareProbes: two searches of the same job on one
// engine share each probe, as concurrent runs share a claimed result.
// Only the final boundary can run twice: a search whose stable verdict
// for it came from the other search asks for the full result, and may
// ask before the other search resumes its suspended run.
func TestConcurrentSearchesShareProbes(t *testing.T) {
	spec := OptHybridSpeculative(8)
	cfg := quickSatConfig(traffic.Multicast{N: 8, Frac: 0.10}, 2016)
	loads := map[float64]bool{}
	for _, load := range probedLoads(t, spec, cfg) {
		loads[load] = true
	}
	e := NewEngine(2)
	var got [2]SatResult
	var errs [2]error
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = e.Saturation(spec, cfg)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	a, _ := json.Marshal(got[0])
	b, _ := json.Marshal(got[1])
	if string(a) != string(b) {
		t.Fatalf("concurrent searches differ:\n%s\nvs\n%s", a, b)
	}
	snap := e.Snapshot()
	if snap.Started > uint64(len(loads))+1 || snap.InFlight() != 0 || snap.Completed != snap.Misses {
		t.Fatalf("two concurrent searches of %d probed loads: started %d, completed %d, misses %d",
			len(loads), snap.Started, snap.Completed, snap.Misses)
	}
}

// probedLoads lists the loads a full-run search of cfg probes.
func probedLoads(t *testing.T, spec network.Spec, cfg SatConfig) []float64 {
	t.Helper()
	var loads []float64
	if _, err := fullRunSaturation(spec, cfg, func(load float64) { loads = append(loads, load) }); err != nil {
		t.Fatal(err)
	}
	return loads
}

// TestReleasedProbeDropsNetwork: a stable probe that stopped at its
// verdict holds its network suspended until it is released, and no
// longer afterwards.
func TestReleasedProbeDropsNetwork(t *testing.T) {
	spec := OptHybridSpeculative(8)
	cfg := quickSatConfig(traffic.UniformRandom{N: 8}, 2016).Base
	cfg.LoadGFs = 0.05
	zero, err := Run(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	crit := metrics.SatCriterion{MaxLatencyNs: 4 * zero.AvgLatencyNs, MinCompletion: 0.92}
	cfg.LoadGFs = 0.2
	e := NewEngine(1)
	p, err := e.probe(context.Background(), spec, cfg, crit)
	if err != nil {
		t.Fatal(err)
	}
	ep, ok := p.(*engineProbe)
	if !ok || ep.run == nil || p.saturated() {
		t.Fatalf("probe at load 0.2 is %T %+v, want a suspended stable probe", p, p)
	}
	if snap := e.Snapshot(); snap.InFlight() != 0 || len(e.sem) != 0 {
		t.Fatalf("suspended probe holds a pool slot or counts as running: %+v", snap)
	}
	p.release()
	if ep.run != nil {
		t.Fatal("released probe still holds its network")
	}
	// The memoized verdict answers the same probe without a simulation
	// and without a network.
	p, err = e.probe(context.Background(), spec, cfg, crit)
	if err != nil {
		t.Fatal(err)
	}
	if ep, ok := p.(*engineProbe); !ok || ep.run != nil || p.saturated() || e.Snapshot().Started != 1 {
		t.Fatalf("repeated probe was not a verdict-memo hit: %T %+v", p, p)
	}
}

// TestProbeErrorsFollowTheResultRule: the verdict memo keeps a probe's
// error as the result memo keeps a run's. A probe that fails
// deterministically (here on its event budget) is answered from the
// memo the second time, with the same error and no simulation; a
// canceled probe leaves the memo, so the same probe asked again is
// simulated.
func TestProbeErrorsFollowTheResultRule(t *testing.T) {
	spec, cfg := robustTestJob(t, 41)
	crit := metrics.SatCriterion{MaxLatencyNs: 100, MinCompletion: 0.92}
	e := NewEngine(1)
	budget := cfg
	budget.MaxEvents = 1000
	_, first := e.probe(context.Background(), spec, budget, crit)
	var le *LivelockError
	if !errors.As(first, &le) {
		t.Fatalf("probe over a 1000-event budget: %v, want a *LivelockError", first)
	}
	_, again := e.probe(context.Background(), spec, budget, crit)
	if again != first {
		t.Fatalf("repeated probe returned %v, want the memoized %v", again, first)
	}
	if snap := e.Snapshot(); snap.Started != 1 || snap.Hits != 1 || snap.Misses != 1 {
		t.Fatalf("failed probe asked twice: %d simulations, %d hits, %d misses; want 1, 1, 1",
			snap.Started, snap.Hits, snap.Misses)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.probe(ctx, spec, cfg, crit); !errors.Is(err, context.Canceled) {
		t.Fatalf("probe under a canceled context: %v, want context.Canceled", err)
	}
	before := e.Snapshot()
	p, err := e.probe(context.Background(), spec, cfg, crit)
	if err != nil {
		t.Fatal(err)
	}
	p.release()
	if after := e.Snapshot(); after.Started != before.Started+1 || after.Misses != 3 || after.Hits != 1 {
		t.Fatalf("canceled probe asked again: %d new simulations, %d hits, %d misses; want 1, 1, 3",
			after.Started-before.Started, after.Hits, after.Misses)
	}
}

// verdictCase is one draw of the verdict property.
type verdictCase struct {
	spec          network.Spec
	cfg           RunConfig
	factor, minCo float64
	// near, when non-zero, replaces the drawn criterion by one within
	// that relative distance of the full run's own latency and
	// completion, where an unsound bound would show.
	near float64
}

// drawRun turns seven bytes into one 8x8 run: an architecture, a
// benchmark, a seed, a load in [0.05, 2.55] GF/s and windows of at most
// about 700 ns in all.
func drawRun(b [7]byte) (network.Spec, RunConfig) {
	specs := []string{NameBaseline, NameBasicNonSpec, NameBasicHybridSpec, NameOptHybridSpec, NameOptNonSpec, NameOptAllSpec}
	spec, _ := SpecByName(8, specs[int(b[0])%len(specs)])
	suite := traffic.StandardSuite(8)
	return spec, RunConfig{
		Bench:   suite[int(b[1])%len(suite)],
		Seed:    uint64(b[2]) + 1,
		LoadGFs: 0.05 + float64(b[3])/255*2.5,
		Warmup:  sim.Time(20+int(b[4])%100) * sim.Nanosecond,
		Measure: sim.Time(40+int(b[5])%260) * sim.Nanosecond,
		Drain:   sim.Time(int(b[6])%300) * sim.Nanosecond,
	}
}

// drawVerdictCase turns nine bytes into a case: a run (drawRun), a
// latency factor and a completion floor, half of the time placed near
// the full run's own figures.
func drawVerdictCase(b [9]byte) verdictCase {
	spec, cfg := drawRun([7]byte(b[:7]))
	c := verdictCase{
		spec:   spec,
		cfg:    cfg,
		factor: 1.2 + float64(b[7]%16)*0.4,
		minCo:  []float64{0.5, 0.8, 0.92, 0.99, 1}[int(b[7]/16)%5],
	}
	if b[8] >= 128 {
		c.near = (float64(b[8])-191.5)/64*0.2 + 1e-6 // within ±20%, never 0
	}
	return c
}

// checkVerdict runs c's probe under the verdict stop rule and, when it
// stops early, requires its verdict to equal the criterion applied to
// the same configuration run to its end. It returns the early verdict,
// or Undecided when the probe ran to its end.
func checkVerdict(t testing.TB, c verdictCase) metrics.Verdict {
	t.Helper()
	zeroCfg := c.cfg
	zeroCfg.LoadGFs = 0.05
	zero, err := Run(c.spec, zeroCfg)
	if err != nil {
		t.Fatal(err)
	}
	if zero.MeasuredPackets == 0 || zero.Completion == 0 {
		return metrics.Undecided // the search would reject these windows
	}
	full, err := Run(c.spec, c.cfg)
	if err != nil {
		t.Fatal(err)
	}
	factor, minCo := c.factor, c.minCo
	if c.near != 0 {
		factor = full.AvgLatencyNs / zero.AvgLatencyNs * (1 + c.near)
		minCo = min(1, full.Completion*(1+c.near))
	}
	crit := metrics.SatCriterion{MaxLatencyNs: factor * zero.AvgLatencyNs, MinCompletion: minCo}
	r, err := startRun(c.spec, c.cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	v := metrics.Undecided
	stopped, err := r.run(context.Background(), func() bool {
		v = r.verdict(crit)
		return v != metrics.Undecided
	})
	if err != nil {
		t.Fatal(err)
	}
	if !stopped {
		return metrics.Undecided
	}
	want := crit.Saturated(full.Completion, full.AvgLatencyNs)
	if (v == metrics.SaturatedVerdict) != want {
		t.Fatalf("%s/%s load %.4f seed %d windows %v/%v/%v, criterion %+v: probe stopped at %v with verdict %v, "+
			"full run says saturated=%v (completion %v, latency %v ns)",
			c.spec.Name, c.cfg.Bench.Name(), c.cfg.LoadGFs, c.cfg.Seed, c.cfg.Warmup, c.cfg.Measure, c.cfg.Drain,
			crit, r.clock.Now(), v, want, full.Completion, full.AvgLatencyNs)
	}
	return v
}

// TestSatVerdictProperty: over random architectures, benchmarks, seeds,
// loads, windows and criteria, every verdict a probe stops at is the
// full run's, and both verdicts are reached early in some cases.
func TestSatVerdictProperty(t *testing.T) {
	cases := 120
	if testing.Short() {
		cases = 30
	}
	rng := rand.New(rand.NewPCG(22, 2016))
	decided := map[metrics.Verdict]int{}
	for i := 0; i < cases; i++ {
		var b [9]byte
		for j := range b {
			b[j] = byte(rng.Uint32())
		}
		decided[checkVerdict(t, drawVerdictCase(b))]++
	}
	t.Logf("%d cases: %d stopped stable, %d stopped saturated, %d ran to the end",
		cases, decided[metrics.Stable], decided[metrics.SaturatedVerdict], decided[metrics.Undecided])
	if decided[metrics.Stable] == 0 || decided[metrics.SaturatedVerdict] == 0 {
		t.Errorf("a verdict kind was never reached early: %v", decided)
	}
}

// FuzzSatVerdict is the fuzzing form of TestSatVerdictProperty: each
// input's first nine bytes draw a case (see drawVerdictCase).
func FuzzSatVerdict(f *testing.F) {
	f.Add([]byte{3, 0, 1, 40, 60, 200, 200, 0x28, 0})   // stops early, stable
	f.Add([]byte{0, 2, 5, 250, 40, 100, 250, 0x25, 0})  // stops early, saturated
	f.Add([]byte{3, 4, 9, 60, 80, 200, 250, 0x22, 200}) // near criterion, stops early, stable
	f.Fuzz(func(t *testing.T, data []byte) {
		var b [9]byte
		copy(b[:], data)
		checkVerdict(t, drawVerdictCase(b))
	})
}
