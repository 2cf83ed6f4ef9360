package core

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"asyncnoc/internal/chiplet"
	"asyncnoc/internal/network"
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

// TestEngineMeshJobs: a mesh job takes the engine path of a MoT job. A
// repeated run is a memo hit returning Run's result, and the mesh's
// keys never equal a MoT key. Shards > 1 stays a *ConfigError after a
// serial memo hit, and a mesh job on an engine with a remote delegate
// runs there, as a MoT job does.
func TestEngineMeshJobs(t *testing.T) {
	tree := MeshTree(4, 4)
	cfg := RunConfig{Bench: traffic.Multicast{N: 16, Frac: 0.10}, LoadGFs: 0.3, Seed: 9,
		Warmup: 40 * sim.Nanosecond, Measure: 160 * sim.Nanosecond, Drain: 80 * sim.Nanosecond}
	want, err := Run(tree, cfg)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(2)
	for i := 0; i < 2; i++ {
		if got, err := e.Run(tree, cfg); err != nil || got != want {
			t.Fatalf("engine run %d: %v, result differs from Run:\n%+v\nvs\n%+v", i, err, got, want)
		}
	}
	if hits, misses := e.Stats(); hits != 1 || misses != 1 || e.Snapshot().Started != 1 {
		t.Errorf("two equal mesh runs: %d hits, %d misses, %d simulations; want 1, 1, 1", hits, misses, e.Snapshot().Started)
	}

	keys := map[string]string{}
	for _, spec := range []network.Spec{
		tree,
		MeshSerial(4, 4),
		WithStrategy(tree, "DPM"),
		MeshTree(8, 2),
		OptHybridSpeculative(16),
		Baseline(16),
		{Name: tree.CanonicalKey(), N: 16, PacketLen: 5},
	} {
		k := JobKey(spec, cfg)
		if prev, dup := keys[k]; dup {
			t.Errorf("%s and %s share a job key", spec.CanonicalKey(), prev)
		}
		keys[k] = spec.CanonicalKey()
	}

	four := cfg
	four.Shards = 4
	var ce *ConfigError
	if _, err := e.Run(tree, four); !errors.As(err, &ce) || ce.Fields[0].Field != "Shards" {
		t.Errorf("Shards=4 on a memoized mesh job: %v, want a *ConfigError naming Shards", err)
	}
	remote := NewEngine(1)
	remote.SetRemote(func(_ context.Context, spec network.Spec, c RunConfig) (RunResult, error) {
		return e.Run(spec, c)
	})
	if got, err := remote.Run(tree, cfg); err != nil || got != want {
		t.Errorf("mesh job on an engine with a delegate: %v, result differs from Run:\n%+v\nvs\n%+v", err, got, want)
	}
	if n := remote.Snapshot().RemoteRuns; n != 1 {
		t.Errorf("%d jobs reached the delegate, want 1", n)
	}
}

// TestMemoHitUnderCanceledContext: a finished memo entry answers even
// when the caller's context is already canceled. Only a caller that
// would wait on a pending entry gives up with ctx.Err().
func TestMemoHitUnderCanceledContext(t *testing.T) {
	e := NewEngine(1)
	spec := OptHybridSpeculative(8)
	cfg := RunConfig{Bench: traffic.Multicast{N: 8, Frac: 0.10}, LoadGFs: 0.3, Seed: 1,
		Warmup: 40 * sim.Nanosecond, Measure: 160 * sim.Nanosecond, Drain: 80 * sim.Nanosecond}
	want, err := e.Run(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	key := JobKey(spec, cfg)
	failed := 0
	for i := 0; i < 1000; i++ {
		res, src, err := e.RunKeyed(ctx, key, spec, cfg)
		if err != nil || src != SourceMemo || res != want {
			failed++
		}
	}
	if failed > 0 {
		t.Errorf("%d of 1000 memo hits under a canceled context failed or were not served from the memo", failed)
	}
}

// BenchmarkEngineMemoHit: Engine.Run on a memoized key, the engine's
// share of a warm service request (job key, memo lookup, result copy).
func BenchmarkEngineMemoHit(b *testing.B) {
	e := NewEngine(1)
	spec := OptHybridSpeculative(8)
	cfg := RunConfig{Bench: traffic.Multicast{N: 8, Frac: 0.10}, LoadGFs: 0.3, Seed: 1,
		Warmup: 40 * sim.Nanosecond, Measure: 160 * sim.Nanosecond, Drain: 80 * sim.Nanosecond}
	if _, err := e.Run(spec, cfg); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Run(spec, cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if snap := e.Snapshot(); snap.Started != 1 {
		b.Fatalf("%d simulations, want 1: the runs were not memo hits", snap.Started)
	}
}

// TestJobKeyPinned: the keys of the six paper benchmarks are the ones
// earlier versions wrote, so persistent stores stay warm.
func TestJobKeyPinned(t *testing.T) {
	want := map[string]string{
		"UniformRandom":    "c86d82b8ee8eb648755b2a235eae333b447038af43a5def0a773a3955c449452",
		"Shuffle":          "de113d913f61a29e33b61edaeeb38ef76e8626237925ba29aed84578f0bb2845",
		"Hotspot":          "0c2bb3a2addb4b42ce21de9e7f0ef1cd2d0ae0ce8c6a9563e2cf6f80f48a138c",
		"Multicast5":       "c9755340ac6403f1cee3ab6fbda5c2f9398e119f99875f8eaffecacfcd06f526",
		"Multicast10":      "3dacab274aa4fb2aae77373994ed6655a53b30bc8b62671a70590bf7caba1371",
		"Multicast_static": "4e5f08f3c82d5d99d86a5b4e43c96d4df63355b281df71508854761dac01163c",
	}
	spec := OptHybridSpeculative(8)
	for _, b := range traffic.StandardSuite(8) {
		cfg := RunConfig{Bench: b, LoadGFs: 0.4, Seed: 2016,
			Warmup: 120 * sim.Nanosecond, Measure: 400 * sim.Nanosecond, Drain: 300 * sim.Nanosecond}
		if got := JobKey(spec, cfg); got != want[b.Name()] {
			t.Errorf("%s: key %s, want %s", b.Name(), got, want[b.Name()])
		}
	}
	// A mesh's key is the one its former spec type hashed.
	cfg := RunConfig{Bench: traffic.Multicast{N: 16, Frac: 0.1}, LoadGFs: 0.3, Seed: 1, Warmup: 1, Measure: sim.Nanosecond}
	if got, want := JobKey(MeshTree(4, 4), cfg), "747fe3997b8374ffa65769becf9f1974f6695a22b0d62c0ce153097d9c55bcf6"; got != want {
		t.Errorf("mesh key %s, want %s", got, want)
	}
}

// TestJobKeyChipletByValue: a chiplet benchmark holds its composition
// parameters by pointer, and its key depends on their values, not on
// their address.
func TestJobKeyChipletByValue(t *testing.T) {
	spec := WithChiplet(OptHybridSpeculative(4), chiplet.Default(2, 2))
	cfg := func(p *chiplet.Params, name string) RunConfig {
		b, err := chiplet.ByName(p, 4, name)
		if err != nil {
			t.Fatal(err)
		}
		return RunConfig{Bench: b, LoadGFs: 0.3, Seed: 1,
			Warmup: 100 * sim.Nanosecond, Measure: 300 * sim.Nanosecond, Drain: 600 * sim.Nanosecond}
	}
	for _, name := range []string{"UniformRandom", "Multicast10"} {
		a, b := cfg(chiplet.Default(2, 2), name), cfg(chiplet.Default(2, 2), name)
		if JobKey(spec, a) != JobKey(spec, b) {
			t.Errorf("%s: equal chiplet benchmarks hash differently", name)
		}
		if s := fmt.Sprintf("%#v", a.Bench); strings.Contains(s, "0x") {
			t.Errorf("%s: benchmark key form %s holds an address", name, s)
		}
		if JobKey(spec, a) == JobKey(spec, cfg(chiplet.Parallel(2, 2), name)) {
			t.Errorf("%s: benchmarks over different link parameters share a key", name)
		}
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
	serial, err := fullRunSaturation(spec, cfg, func(load float64) { loads[load] = true })
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
