package core

import (
	"encoding/json"
	"runtime"
	"sync"
	"testing"

	"asyncnoc/internal/sim"
	"asyncnoc/internal/traffic"
)

// engineTestJobs builds a job set mixing networks, benchmarks, loads, and
// seeds, with deliberate duplicates to exercise the memo.
func engineTestJobs(t *testing.T) []Job {
	t.Helper()
	var jobs []Job
	for _, spec := range []struct {
		name string
	}{{NameBaseline}, {NameOptHybridSpec}, {NameOptAllSpec}} {
		s, err := SpecByName(8, spec.name)
		if err != nil {
			t.Fatal(err)
		}
		for _, load := range []float64{0.2, 0.5} {
			for _, seed := range []uint64{1, 2} {
				jobs = append(jobs, Job{Spec: s, Cfg: RunConfig{
					Bench: traffic.Multicast{N: 8, Frac: 0.10}, LoadGFs: load, Seed: seed,
					Warmup: 40 * sim.Nanosecond, Measure: 160 * sim.Nanosecond, Drain: 80 * sim.Nanosecond,
				}})
			}
		}
	}
	// Duplicates: the first three jobs again, verbatim.
	jobs = append(jobs, jobs[0], jobs[1], jobs[2])
	return jobs
}

// TestEngineDeterministicAcrossPoolSizes runs the same job set at pool
// sizes 1, 4, and GOMAXPROCS and requires byte-identical marshaled
// results: parallelism and completion order must not leak into any
// measurement. Run with -race in CI.
func TestEngineDeterministicAcrossPoolSizes(t *testing.T) {
	jobs := engineTestJobs(t)
	var want []byte
	for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		e := NewEngine(workers)
		results, err := e.RunJobs(jobs)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		got, err := json.Marshal(results)
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = got
		} else if string(got) != string(want) {
			t.Fatalf("workers=%d: results differ from workers=1:\n%s\nvs\n%s", workers, got, want)
		}
	}
}

// TestEngineMemo verifies duplicate jobs are computed once and repeated
// calls are pure memo hits.
func TestEngineMemo(t *testing.T) {
	jobs := engineTestJobs(t)
	e := NewEngine(2)
	first, err := e.RunJobs(jobs)
	if err != nil {
		t.Fatal(err)
	}
	hits, misses := e.Stats()
	unique := len(jobs) - 3 // three duplicates appended
	if misses != uint64(unique) {
		t.Errorf("computed %d unique runs, want %d", misses, unique)
	}
	if hits != 3 {
		t.Errorf("memo hits after first pass = %d, want 3", hits)
	}
	second, err := e.RunJobs(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if _, misses2 := e.Stats(); misses2 != uint64(unique) {
		t.Errorf("second pass recomputed: %d misses, want %d", misses2, unique)
	}
	a, _ := json.Marshal(first)
	b, _ := json.Marshal(second)
	if string(a) != string(b) {
		t.Error("memoized results differ from computed results")
	}
}

// TestEngineInFlightDedup hammers one job from many goroutines; the memo
// must compute it exactly once.
func TestEngineInFlightDedup(t *testing.T) {
	jobs := engineTestJobs(t)
	e := NewEngine(4)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := e.Run(jobs[0].Spec, jobs[0].Cfg); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if _, misses := e.Stats(); misses != 1 {
		t.Errorf("computed %d times, want 1", misses)
	}
}

// TestJobKey checks that every parameter that changes a run changes the
// key — including benchmark parameters that do not appear in the
// benchmark's reporting name (the Hotspot destination, for one).
func TestJobKey(t *testing.T) {
	spec, err := SpecByName(8, NameOptHybridSpec)
	if err != nil {
		t.Fatal(err)
	}
	base := RunConfig{
		Bench: traffic.Hotspot{N: 8, Hot: 0}, LoadGFs: 0.4, Seed: 1,
		Warmup: 40 * sim.Nanosecond, Measure: 160 * sim.Nanosecond, Drain: 80 * sim.Nanosecond,
	}
	key := JobKey(spec, base)
	if key != JobKey(spec, base) {
		t.Fatal("JobKey is not deterministic")
	}
	mutants := []RunConfig{}
	for _, mutate := range []func(*RunConfig){
		func(c *RunConfig) { c.Bench = traffic.Hotspot{N: 8, Hot: 3} },
		func(c *RunConfig) { c.Bench = traffic.UniformRandom{N: 8} },
		func(c *RunConfig) { c.LoadGFs = 0.41 },
		func(c *RunConfig) { c.Seed = 2 },
		func(c *RunConfig) { c.Warmup = 41 * sim.Nanosecond },
		func(c *RunConfig) { c.Measure = 161 * sim.Nanosecond },
		func(c *RunConfig) { c.Drain = 81 * sim.Nanosecond },
	} {
		c := base
		mutate(&c)
		mutants = append(mutants, c)
	}
	seen := map[string]int{key: -1}
	for i, c := range mutants {
		k := JobKey(spec, c)
		if prev, dup := seen[k]; dup {
			t.Errorf("mutant %d collides with %d", i, prev)
		}
		seen[k] = i
	}
	other, err := SpecByName(8, NameOptAllSpec)
	if err != nil {
		t.Fatal(err)
	}
	if JobKey(other, base) == key {
		t.Error("different specs share a key")
	}
}

// TestEngineSaturationMatchesSerial requires the engine's bisection to
// land on exactly the serial search's boundary, doing exactly the serial
// search's work: one simulation per distinct probed load, and none still
// running once the search returns.
func TestEngineSaturationMatchesSerial(t *testing.T) {
	spec, err := SpecByName(8, NameOptHybridSpec)
	if err != nil {
		t.Fatal(err)
	}
	cfg := SatConfig{
		Base: RunConfig{
			Bench: traffic.UniformRandom{N: 8}, Seed: 7,
			Warmup: 40 * sim.Nanosecond, Measure: 160 * sim.Nanosecond, Drain: 80 * sim.Nanosecond,
		},
		Iters: 5,
	}
	loads := map[float64]bool{}
	serial, err := SaturationWith(spec.Name, cfg, func(load float64) (RunResult, error) {
		loads[load] = true
		c := cfg.Base
		c.LoadGFs = load
		return Run(spec, c)
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		e := NewEngine(workers)
		par, err := e.Saturation(spec, cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		a, _ := json.Marshal(serial)
		b, _ := json.Marshal(par)
		if string(a) != string(b) {
			t.Errorf("workers=%d: engine saturation differs from serial:\n%s\nvs\n%s", workers, b, a)
		}
		snap := e.Snapshot()
		if snap.Started != uint64(len(loads)) {
			t.Errorf("workers=%d: search ran %d simulations, want %d (one per distinct serial probe)",
				workers, snap.Started, len(loads))
		}
		if n := snap.InFlight(); n != 0 {
			t.Errorf("workers=%d: %d simulations still running after Saturation returned", workers, n)
		}
	}
}
