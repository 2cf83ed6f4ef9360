package core

import (
	"context"
	"errors"
	"runtime"
	"slices"
	"testing"

	"asyncnoc/internal/chiplet"
	"asyncnoc/internal/fault"
	"asyncnoc/internal/metrics"
	"asyncnoc/internal/network"
	"asyncnoc/internal/sim"
	"asyncnoc/internal/traffic"
)

// freshRun runs cfg as an engine does (stopping at a final result), on
// a network built fresh, and returns that network with the result.
func freshRun(spec network.Spec, cfg RunConfig) (RunResult, *network.Network, error) {
	r, err := startRun(spec, cfg, nil)
	if err != nil {
		return RunResult{}, nil, err
	}
	if _, err := r.run(context.Background(), r.finalStop()); err != nil {
		return RunResult{}, nil, err
	}
	return Collect(r.nw, r.cfg), r.nw, nil
}

// breakouts reports which of the recorder's per-hierarchy latency
// breakouts have samples. Only a composition's RunResult carries them,
// so a recorder left in hierarchy mode by an earlier run shows here.
func breakouts(rec *metrics.Recorder) [2]bool {
	_, _, intra := rec.IntraLatency()
	_, _, d2d := rec.D2DLatency()
	return [2]bool{intra, d2d}
}

// cached lists the networks c holds, oldest first.
func (c *netCache) cached() []*network.Network {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]*network.Network(nil), c.nets...)
}

// newest returns the newest of nets, or nil.
func newest(nets []*network.Network) *network.Network {
	if len(nets) == 0 {
		return nil
	}
	return nets[len(nets)-1]
}

// reuseJob is one run of the purity sequence.
type reuseJob struct {
	spec network.Spec
	cfg  RunConfig
	// fails marks a run that exceeds its event budget.
	fails bool
}

// reuseJobs is a mixed sequence: the eight nocbench mot-serial specs at
// two loads each, Baseline again, a fault-enabled spec and a
// ChipletSerial 2x2 composition of 4-terminal dies at two loads each, a
// run that fails its MaxEvents budget between two clean runs of its
// spec, and the 4x4 tree and serial meshes at two loads each.
func reuseJobs(t testing.TB) []reuseJob {
	quick := func(bench traffic.Benchmark, load float64) RunConfig {
		return quickWindows(RunConfig{Bench: bench, LoadGFs: load, Seed: 2016})
	}
	var jobs []reuseJob
	specs := append(AllSpecs(8),
		WithStrategy(OptHybridSpeculative(8), "PathBased"),
		WithStrategy(OptHybridSpeculative(8), "DPM"))
	for i, spec := range specs {
		bench := traffic.StandardSuite(8)[i%len(traffic.StandardSuite(8))]
		jobs = append(jobs,
			reuseJob{spec: spec, cfg: quick(bench, 0.3)},
			reuseJob{spec: spec, cfg: quick(traffic.Multicast{N: 8, Frac: 0.10}, 0.5)})
	}
	jobs = append(jobs, reuseJob{spec: Baseline(8), cfg: quick(traffic.Hotspot{N: 8}, 0.2)})

	faulty := OptHybridSpeculative(8)
	faulty.Name += "+faults"
	faulty.Faults = fault.Config{Seed: 3, CorruptRate: 1e-3, DropRate: 1e-3}
	jobs = append(jobs,
		reuseJob{spec: faulty, cfg: quick(traffic.UniformRandom{N: 8}, 0.3)},
		reuseJob{spec: faulty, cfg: quick(traffic.Multicast{N: 8, Frac: 0.10}, 0.4)})

	p := chiplet.Default(2, 2)
	composed := WithChiplet(OptHybridSpeculative(4), p)
	for _, name := range []string{"UniformRandom", "Multicast10"} {
		b, err := chiplet.ByName(p, 4, name)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, reuseJob{spec: composed, cfg: RunConfig{Bench: b, LoadGFs: 0.3, Seed: 2016,
			Warmup: 100 * sim.Nanosecond, Measure: 300 * sim.Nanosecond, Drain: 600 * sim.Nanosecond}})
	}

	over := quick(traffic.UniformRandom{N: 8}, 4) // never final: runs its whole span
	over.MaxEvents = 20000
	jobs = append(jobs,
		reuseJob{spec: OptNonSpeculative(8), cfg: quick(traffic.Shuffle{N: 8}, 0.4)},
		reuseJob{spec: OptNonSpeculative(8), cfg: over, fails: true},
		reuseJob{spec: OptNonSpeculative(8), cfg: quick(traffic.Shuffle{N: 8}, 0.6)})
	for _, spec := range []network.Spec{MeshTree(4, 4), MeshSerial(4, 4)} {
		jobs = append(jobs,
			reuseJob{spec: spec, cfg: quick(traffic.UniformRandom{N: 16}, 0.3)},
			reuseJob{spec: spec, cfg: quick(traffic.Multicast{N: 16, Frac: 0.10}, 0.5)})
	}
	return jobs
}

// TestEngineReuseIsPure: runs that build on the storage of an earlier
// run return exactly the RunResult and dispatch exactly the events of a
// run on a fresh build, and a run that fails leaves its network out of
// the engine's cache. Run in order, every clean run but the first and
// the one after the failure builds on the network the run before it
// closed. A second, concurrent pass over the same sequence at another
// seed shares the cache between two workers.
func TestEngineReuseIsPure(t *testing.T) {
	e := NewEngine(2)
	reused, clean := 0, 0
	for _, j := range reuseJobs(t) {
		what := describeRun(j.spec.Name, j.cfg)
		before := e.nets.cached()
		prev := newest(before)

		got, err := e.Run(j.spec, j.cfg)
		want, fresh, wantErr := freshRun(j.spec, j.cfg)
		after := e.nets.cached()
		if j.fails {
			var le *LivelockError
			if !errors.As(err, &le) || !errors.As(wantErr, &le) {
				t.Fatalf("%s: err %v and fresh err %v, want two *LivelockErrors", what, err, wantErr)
			}
			if prev == nil {
				t.Fatalf("%s: no network was cached before the failing run", what)
			}
			if slices.Contains(after, prev) || len(after) != len(before)-1 {
				t.Fatalf("%s: the failed run's network went back to the cache (%d networks before, %d after)",
					what, len(before), len(after))
			}
			continue
		}
		if err != nil || wantErr != nil {
			t.Fatalf("%s: err %v, fresh err %v", what, err, wantErr)
		}
		if got != want {
			t.Fatalf("%s: result on reused storage differs from a fresh build's:\n%+v\nvs\n%+v", what, got, want)
		}
		clean++
		last := newest(after)
		if n, m := last.Sched.Executed(), fresh.Sched.Executed(); n != m {
			t.Fatalf("%s: %d events on reused storage, %d on a fresh build", what, n, m)
		}
		if prev != nil {
			if last != prev {
				t.Fatalf("%s: a network was cached, but the run built another", what)
			}
			reused++
		}
	}
	if len(e.nets.cached()) > e.Workers() {
		t.Errorf("the cache holds %d networks, more than the %d workers", len(e.nets.cached()), e.Workers())
	}
	if reused != clean-2 {
		t.Errorf("%d of %d clean runs built on reused storage, want %d", reused, clean, clean-2)
	}

	var jobs []Job
	for _, j := range reuseJobs(t) {
		if !j.fails {
			j.cfg.Seed = 7
			jobs = append(jobs, Job{Spec: j.spec, Cfg: j.cfg})
		}
	}
	got, err := e.RunJobs(jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i, j := range jobs {
		want, _, err := freshRun(j.Spec, j.Cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got[i] != want {
			t.Errorf("%s: concurrent result on reused storage differs from a fresh build's:\n%+v\nvs\n%+v",
				describeRun(j.Spec.Name, j.Cfg), got[i], want)
		}
	}
}

// TestEngineRunReusesNetworkStorage: once an engine has run an 8x8
// spec, its run of the same spec at a new load builds on that run's
// network and allocates little more than its packets and injectors.
// Without reuse every build allocated 105-166 KB at these windows.
func TestEngineRunReusesNetworkStorage(t *testing.T) {
	const limit = 48 << 10
	for _, spec := range []network.Spec{Baseline(8), OptHybridSpeculative(8)} {
		e := NewEngine(1)
		cfg := quickWindows(RunConfig{Bench: traffic.UniformRandom{N: 8}, LoadGFs: 0.3, Seed: 2016})
		if _, err := e.Run(spec, cfg); err != nil { // warm-up
			t.Fatal(err)
		}
		for _, load := range []float64{0.35, 0.6} {
			cfg.LoadGFs = load
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, src, err := e.RunKeyed(context.Background(), JobKey(spec, cfg), spec, cfg)
			runtime.ReadMemStats(&after)
			if err != nil || src != SourceComputed {
				t.Fatalf("%s load %v: source %d, err %v", spec.Name, load, src, err)
			}
			if n := after.TotalAlloc - before.TotalAlloc; n > limit {
				t.Errorf("%s load %v: the run allocated %d B, want at most %d", spec.Name, load, n, limit)
			}
		}
	}
}

// TestEngineMeshSaturationReusesStorage: the probes of a mesh
// saturation search build on the storage of the networks earlier probes
// closed. The same search on an engine that caches no network returns
// the same SatResult and allocates far more.
func TestEngineMeshSaturationReusesStorage(t *testing.T) {
	cfg := quickSatConfig(traffic.Multicast{N: 16, Frac: 0.10}, 2016)
	search := func(cache int) (SatResult, uint64, uint64) {
		e := NewEngine(1)
		e.nets.limit = cache
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		sat, err := e.Saturation(MeshTree(4, 4), cfg)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		return sat, after.TotalAlloc - before.TotalAlloc, e.Snapshot().Started
	}
	search(1) // the first build derives the router timing once per process
	got, reused, probes := search(1)
	want, fresh, _ := search(0)
	if got != want {
		t.Fatalf("search on reused storage differs:\n%+v\nvs\n%+v", got, want)
	}
	t.Logf("%d probes: %d B on reused storage, %d B on fresh builds", probes, reused, fresh)
	// 11 probes: about 1.6 MB on fresh builds, 0.67 MB on reused
	// storage, which builds two networks, the floor for one search: a
	// stable bound suspended at its verdict holds one while the running
	// probe rebuilds the other.
	if reused > fresh/2 {
		t.Errorf("%d probes allocated %d B on reused storage, %d B on fresh builds", probes, reused, fresh)
	}
}

// crossSpecJobs alternates the fabric kinds, so that every run rebuilds
// on storage a different kind of network left: the six 8x8
// architectures, one of them past saturation so its source queues grow,
// Baseline again, the 4x4 tree and serial meshes, a ChipletSerial 2x2
// composition of 4-terminal dies and a fault-enabled spec at 1e-3.
func crossSpecJobs(t testing.TB) []Job {
	quick := func(bench traffic.Benchmark, load float64) RunConfig {
		return quickWindows(RunConfig{Bench: bench, LoadGFs: load, Seed: 2016})
	}
	p := chiplet.Default(2, 2)
	composed := WithChiplet(Baseline(4), p)
	chipletRun := func(name string) Job {
		b, err := chiplet.ByName(p, 4, name)
		if err != nil {
			t.Fatal(err)
		}
		return Job{Spec: composed, Cfg: RunConfig{Bench: b, LoadGFs: 0.3, Seed: 2016,
			Warmup: 100 * sim.Nanosecond, Measure: 300 * sim.Nanosecond, Drain: 600 * sim.Nanosecond}}
	}
	faulty := BasicHybridSpeculative(8)
	faulty.Name += "+faults"
	faulty.Faults = fault.Config{Seed: 11, CorruptRate: 1e-3, DropRate: 1e-3}
	archs := AllSpecs(8)
	mc := traffic.Multicast{N: 8, Frac: 0.10}
	return []Job{
		{Spec: archs[0], Cfg: quick(mc, 3.9)},
		{Spec: faulty, Cfg: quick(mc, 0.4)},
		{Spec: MeshTree(4, 4), Cfg: quick(traffic.Multicast{N: 16, Frac: 0.10}, 0.5)},
		{Spec: archs[1], Cfg: quick(traffic.UniformRandom{N: 8}, 0.4)},
		chipletRun("Multicast10"),
		{Spec: archs[2], Cfg: quick(traffic.Hotspot{N: 8}, 0.2)},
		{Spec: MeshSerial(4, 4), Cfg: quick(traffic.UniformRandom{N: 16}, 0.3)},
		{Spec: archs[3], Cfg: quick(traffic.Shuffle{N: 8}, 0.5)},
		{Spec: faulty, Cfg: quick(traffic.UniformRandom{N: 8}, 0.3)},
		{Spec: archs[4], Cfg: quick(mc, 0.5)},
		chipletRun("UniformRandom"),
		{Spec: archs[5], Cfg: quick(traffic.UniformRandom{N: 8}, 0.3)},
		{Spec: Baseline(8), Cfg: quick(traffic.Shuffle{N: 8}, 0.3)},
	}
}

// TestEngineCrossSpecReuse: on a 1-worker engine caching one network,
// every run after the first rebuilds on the network of the run before
// it, a different kind of fabric, and still returns exactly the
// RunResult, dispatches exactly the events and fills exactly the
// hierarchy breakouts of a run on a fresh build.
func TestEngineCrossSpecReuse(t *testing.T) {
	e := NewEngine(1)
	e.nets.limit = 1
	for i, j := range crossSpecJobs(t) {
		what := describeRun(j.Spec.Name, j.Cfg)
		prev := newest(e.nets.cached())
		got, err := e.Run(j.Spec, j.Cfg)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		want, fresh, err := freshRun(j.Spec, j.Cfg)
		if err != nil {
			t.Fatalf("%s fresh: %v", what, err)
		}
		if got != want {
			t.Fatalf("%s: result on reused storage differs from a fresh build's:\n%+v\nvs\n%+v", what, got, want)
		}
		nets := e.nets.cached()
		if len(nets) != 1 || i > 0 && nets[0] != prev {
			t.Fatalf("%s: cache holds %d networks after the run; want the previous run's network back", what, len(nets))
		}
		if n, m := nets[0].Sched.Executed(), fresh.Sched.Executed(); n != m {
			t.Fatalf("%s: %d events on reused storage, %d on a fresh build", what, n, m)
		}
		if b, c := breakouts(nets[0].Rec), breakouts(fresh.Rec); b != c {
			t.Fatalf("%s: hierarchy breakouts %v on reused storage, %v on a fresh build", what, b, c)
		}
	}
}

// FuzzCrossSpecReuse draws a sequence of up to four runs, eight bytes
// each (drawRun's seven, then one that turns on the fault layer at 1e-3
// when odd), and runs them in order through one network cache holding
// one network, so that each rebuilds on the storage of the one before.
// Each must return the RunResult and dispatch the events of a run on a
// fresh build.
func FuzzCrossSpecReuse(f *testing.F) {
	f.Add([]byte{0, 4, 1, 250, 40, 200, 100, 0, 3, 0, 2, 30, 60, 100, 200, 1})
	f.Add([]byte{2, 1, 5, 90, 10, 150, 50, 1, 5, 3, 7, 200, 80, 40, 0, 0, 1, 2, 3, 60, 20, 90, 30, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		nets := netCache{limit: 1}
		for k := 0; k < 4 && len(data) >= 8; k, data = k+1, data[8:] {
			spec, cfg := drawRun([7]byte(data[:7]))
			if data[7]%2 == 1 {
				spec.Name += "+faults"
				spec.Faults = fault.Config{Seed: uint64(data[7] >> 1), CorruptRate: 1e-3, DropRate: 1e-3}
			}
			what := describeRun(spec.Name, cfg)
			got, _, err := runContext(context.Background(), spec, cfg, &nets)
			want, fresh, wantErr := freshRun(spec, cfg)
			if (err == nil) != (wantErr == nil) {
				t.Fatalf("%s: err %v on reused storage, %v on a fresh build", what, err, wantErr)
			}
			if err != nil {
				continue // a failed run leaves the cache empty
			}
			if got != want {
				t.Fatalf("%s: result on reused storage differs from a fresh build's:\n%+v\nvs\n%+v", what, got, want)
			}
			if n, m := newest(nets.cached()).Sched.Executed(), fresh.Sched.Executed(); n != m {
				t.Fatalf("%s: %d events on reused storage, %d on a fresh build", what, n, m)
			}
		}
	})
}
