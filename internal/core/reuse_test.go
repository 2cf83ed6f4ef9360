package core

import (
	"context"
	"errors"
	"runtime"
	"testing"

	"asyncnoc/internal/chiplet"
	"asyncnoc/internal/fault"
	"asyncnoc/internal/network"
	"asyncnoc/internal/sim"
	"asyncnoc/internal/traffic"
)

// freshRun runs cfg as an engine does (stopping at a final result), on
// a network built fresh, and reports its dispatched event count.
func freshRun(spec network.Spec, cfg RunConfig) (RunResult, uint64, error) {
	r, err := startRun(spec, cfg, nil)
	if err != nil {
		return RunResult{}, 0, err
	}
	if _, err := r.g.run(context.Background(), r.finalStop()); err != nil {
		return RunResult{}, 0, err
	}
	return r.collect(), r.h.clock.Executed(), nil
}

// cached lists the networks c holds, oldest first.
func (c *netCache) cached() []cachedNet {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]cachedNet(nil), c.nets...)
}

// newestOf returns the newest network in nets cached under key, or nil.
func newestOf(nets []cachedNet, key string) *network.Network {
	for i := len(nets) - 1; i >= 0; i-- {
		if nets[i].key == key {
			return nets[i].nw
		}
	}
	return nil
}

// reuseJob is one run of the purity sequence.
type reuseJob struct {
	spec network.Spec
	cfg  RunConfig
	// fails marks a run that exceeds its event budget.
	fails bool
}

// reuseJobs is a mixed sequence in which, run in order on two workers,
// twelve runs find a network of their spec that an earlier run closed:
// the eight nocbench mot-serial specs at two loads each, Baseline again
// once its network has been evicted, a fault-enabled spec and a
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
// run of their spec return exactly the RunResult and dispatch exactly
// the events of a run on a fresh build, and a run that fails leaves its
// network out of the engine's cache. A second, concurrent pass over the
// same sequence at another seed shares the cache between two workers.
func TestEngineReuseIsPure(t *testing.T) {
	e := NewEngine(2)
	reused := 0
	for _, j := range reuseJobs(t) {
		what := describeRun(j.spec.Name, j.cfg)
		key := j.spec.CanonicalKey()
		before := e.nets.cached()
		prev := newestOf(before, key)

		got, err := e.Run(j.spec, j.cfg)
		want, events, wantErr := freshRun(j.spec, j.cfg)
		after := e.nets.cached()
		if j.fails {
			var le *LivelockError
			if !errors.As(err, &le) || !errors.As(wantErr, &le) {
				t.Fatalf("%s: err %v and fresh err %v, want two *LivelockErrors", what, err, wantErr)
			}
			if prev == nil {
				t.Fatalf("%s: no network of the spec was cached before the failing run", what)
			}
			if newestOf(after, key) != nil || len(after) != len(before)-1 {
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
		last := after[len(after)-1]
		if last.key != key {
			t.Fatalf("%s: the newest cached network is keyed %q", what, last.key)
		}
		if n := last.nw.Sched.Executed(); n != events {
			t.Fatalf("%s: %d events on reused storage, %d on a fresh build", what, n, events)
		}
		if prev != nil {
			if last.nw != prev {
				t.Fatalf("%s: a network of the spec was cached, but the run built another", what)
			}
			reused++
		}
	}
	if len(e.nets.cached()) > e.Workers() {
		t.Errorf("the cache holds %d networks, more than the %d workers", len(e.nets.cached()), e.Workers())
	}
	if reused != 12 {
		t.Errorf("%d runs built on reused storage, want 12", reused)
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
			_, src, err := e.RunSource(context.Background(), spec, cfg)
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
	// 11 probes: about 2.4 MB on fresh builds, 1.1 MB on reused storage.
	if reused > fresh*2/3 {
		t.Errorf("%d probes allocated %d B on reused storage, %d B on fresh builds", probes, reused, fresh)
	}
}
