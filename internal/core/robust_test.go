package core

import (
	"context"
	"encoding/json"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"asyncnoc/internal/metrics"
	"asyncnoc/internal/network"
	"asyncnoc/internal/sim"
	"asyncnoc/internal/traffic"
)

// fakeStore is an in-memory ResultStore for engine-level tests.
type fakeStore struct {
	mu       sync.Mutex
	entries  map[string]RunResult
	verdicts map[string]bool
	stats    StoreStats
}

func newFakeStore() *fakeStore {
	return &fakeStore{entries: make(map[string]RunResult), verdicts: make(map[string]bool)}
}

func (f *fakeStore) GetVerdict(key string) (saturated, ok bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	saturated, ok = f.verdicts[key]
	if ok {
		f.stats.Hits++
	} else {
		f.stats.Misses++
	}
	return saturated, ok
}

func (f *fakeStore) PutVerdict(key string, saturated bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.verdicts[key] = saturated
	f.stats.Writes++
}

func (f *fakeStore) Get(key string) (RunResult, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	res, ok := f.entries[key]
	if ok {
		f.stats.Hits++
	} else {
		f.stats.Misses++
	}
	return res, ok
}

func (f *fakeStore) Put(key string, res RunResult) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.entries[key] = res
	f.stats.Writes++
}

func (f *fakeStore) Stats() StoreStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.stats
}

func robustTestJob(t *testing.T, seed uint64) (network.Spec, RunConfig) {
	t.Helper()
	spec, err := SpecByName(8, NameOptHybridSpec)
	if err != nil {
		t.Fatal(err)
	}
	return spec, RunConfig{
		Bench: traffic.Multicast{N: 8, Frac: 0.10}, LoadGFs: 0.3, Seed: seed,
		Warmup: 40 * sim.Nanosecond, Measure: 160 * sim.Nanosecond, Drain: 80 * sim.Nanosecond,
	}
}

// TestEngineStoreReadThroughWriteBehind: a computed result lands in the
// store, and a second engine sharing the store serves it without
// starting a simulation.
func TestEngineStoreReadThroughWriteBehind(t *testing.T) {
	spec, cfg := robustTestJob(t, 21)
	st := newFakeStore()
	e1 := NewEngine(2)
	e1.SetStore(st)
	want, err := e1.Run(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s := st.Stats(); s.Writes != 1 || s.Misses != 1 {
		t.Fatalf("after compute: store stats %+v, want 1 write 1 miss", s)
	}
	e2 := NewEngine(2)
	e2.SetStore(st)
	got, err := e2.Run(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, _ := json.Marshal(want)
	gotJSON, _ := json.Marshal(got)
	if string(gotJSON) != string(wantJSON) {
		t.Fatalf("store hit differs:\n%s\nvs\n%s", gotJSON, wantJSON)
	}
	if snap := e2.Snapshot(); snap.Started != 0 {
		t.Fatalf("read-through started %d simulations, want 0", snap.Started)
	}
	if snap := e2.Snapshot(); !snap.HasStore || snap.Store.Hits != 1 {
		t.Fatalf("snapshot store counters: %+v", snap.Store)
	}
	// Memo now holds the entry: a third run is a pure memo hit that
	// never touches the store again.
	if _, err := e2.Run(spec, cfg); err != nil {
		t.Fatal(err)
	}
	if s := st.Stats(); s.Hits != 1 {
		t.Fatalf("memo hit leaked to the store: %+v", s)
	}
}

// barrierStore is a fakeStore whose reads wait until the engine has
// counted want memo lookups. Each claim counts one hit or miss, so by
// then every claimant of the entry being read has either joined it or,
// on a dedup bug, claimed one of its own.
type barrierStore struct {
	*fakeStore
	e                   *Engine
	want                atomic.Uint64
	reads, verdictReads atomic.Uint64
}

func (b *barrierStore) wait() {
	for {
		if snap := b.e.Snapshot(); snap.Hits+snap.Misses >= b.want.Load() {
			return
		}
		time.Sleep(100 * time.Microsecond)
	}
}

func (b *barrierStore) Get(key string) (RunResult, bool) {
	b.reads.Add(1)
	b.wait()
	return b.fakeStore.Get(key)
}

func (b *barrierStore) GetVerdict(key string) (saturated, ok bool) {
	b.verdictReads.Add(1)
	b.wait()
	return b.fakeStore.GetVerdict(key)
}

// TestEngineMemoShrinkKeepsInFlightDedup hammers one job key and one
// saturation probe from many goroutines while the memo capacity is
// concurrently shrunk to zero and restored. An in-flight entry, result
// or verdict, must never be evicted (its done channel is still open),
// so every round deduplicates to exactly one store read of each. The
// barrier store holds both entries in flight until every claimant has
// arrived, making the assertion deterministic. Run with -race in CI.
func TestEngineMemoShrinkKeepsInFlightDedup(t *testing.T) {
	const rounds = 4
	const claimants = 8
	e := NewEngine(4)
	st := &barrierStore{fakeStore: newFakeStore(), e: e}
	e.SetStore(st)
	crit := metrics.SatCriterion{MaxLatencyNs: 100, MinCompletion: 0.92}
	stop := make(chan struct{})
	var churn sync.WaitGroup
	churn.Add(1)
	go func() {
		defer churn.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if i%2 == 0 {
				e.SetMemoCapacity(0)
			} else {
				e.SetMemoCapacity(DefaultMemoCapacity)
			}
		}
	}()
	for round := 0; round < rounds; round++ {
		spec, cfg := robustTestJob(t, uint64(100+round))
		probeCfg := cfg
		probeCfg.LoadGFs = 0.6
		want := RunResult{Network: spec.Name, Benchmark: cfg.Bench.Name(), LoadGFs: cfg.LoadGFs}
		st.Put(JobKey(spec, cfg), want)
		st.PutVerdict(verdictKey{job: JobKey(spec, probeCfg), crit: crit}.storeKey(), true)
		st.want.Store(uint64((round + 1) * 2 * claimants))
		var wg sync.WaitGroup
		for c := 0; c < claimants; c++ {
			wg.Add(2)
			go func() {
				defer wg.Done()
				if res, err := e.Run(spec, cfg); err != nil || res != want {
					t.Errorf("round %d: run returned %+v, %v; want the stored result", round, res, err)
				}
			}()
			go func() {
				defer wg.Done()
				p, err := e.probe(context.Background(), spec, probeCfg, crit)
				if err != nil || !p.saturated() {
					t.Errorf("round %d: probe returned %v, %v; want the stored saturated verdict", round, p, err)
					return
				}
				p.release()
			}()
		}
		wg.Wait()
	}
	close(stop)
	churn.Wait()
	if got := st.reads.Load(); got != rounds {
		t.Errorf("result store reads = %d, want %d: an in-flight result was evicted (lost dedup)", got, rounds)
	}
	if got := st.verdictReads.Load(); got != rounds {
		t.Errorf("verdict store reads = %d, want %d: an in-flight verdict was evicted (lost dedup)", got, rounds)
	}
}

// TestEngineMemoCapacityBoundsVerdicts: SetMemoCapacity bounds completed
// verdicts by the LRU rule it applies to completed results. The same
// sequence of lookups, results on one engine and verdicts on another,
// leaves the same entries: a shrink keeps the most recently used, a hit
// refreshes an entry, each entry beyond the capacity evicts the least
// recently used, and capacity 0 empties both. Results and verdicts are
// served from a store, so nothing is simulated.
func TestEngineMemoCapacityBoundsVerdicts(t *testing.T) {
	spec, base := robustTestJob(t, 31)
	crit := metrics.SatCriterion{MaxLatencyNs: 100, MinCompletion: 0.92}
	st := newFakeStore()
	var cfgs []RunConfig
	var vks []verdictKey
	for _, load := range []float64{0.1, 0.2, 0.3, 0.4} {
		c := base
		c.LoadGFs = load
		cfgs = append(cfgs, c)
		vks = append(vks, verdictKey{job: JobKey(spec, c), crit: crit})
		st.Put(JobKey(spec, c), RunResult{Network: spec.Name, LoadGFs: load})
		st.PutVerdict(vks[len(vks)-1].storeKey(), true)
	}
	res, ver := NewEngine(1), NewEngine(1)
	res.SetStore(st)
	ver.SetStore(st)
	lookup := func(i int) {
		t.Helper()
		if _, err := res.Run(spec, cfgs[i]); err != nil {
			t.Fatal(err)
		}
		p, err := ver.probe(context.Background(), spec, cfgs[i], crit)
		if err != nil {
			t.Fatal(err)
		}
		p.release()
	}
	holds := func(step string, want ...int) {
		t.Helper()
		res.mu.Lock()
		defer res.mu.Unlock()
		ver.mu.Lock()
		defer ver.mu.Unlock()
		if len(res.results.entries) != len(want) || len(ver.verdicts.entries) != len(want) {
			t.Fatalf("%s: %d results and %d verdicts memoized, want %d of each",
				step, len(res.results.entries), len(ver.verdicts.entries), len(want))
		}
		for _, i := range want {
			if _, ok := res.results.entries[vks[i].job]; !ok {
				t.Errorf("%s: result %d was evicted", step, i)
			}
			if _, ok := ver.verdicts.entries[vks[i]]; !ok {
				t.Errorf("%s: verdict %d was evicted", step, i)
			}
		}
		if len(ver.results.entries) != 0 {
			t.Errorf("%s: a store-served verdict memoized a result", step)
		}
	}
	for i := 0; i < 3; i++ {
		lookup(i)
	}
	holds("three lookups", 0, 1, 2)
	for _, e := range []*Engine{res, ver} {
		e.SetMemoCapacity(2)
	}
	holds("shrink to 2", 1, 2)
	lookup(1)
	lookup(3)
	holds("hit on 1, then 3", 1, 3)
	lookup(0)
	holds("0 again", 0, 3)
	r, v := res.Snapshot(), ver.Snapshot()
	if r.Hits != 1 || r.Misses != 5 || v.Hits != r.Hits || v.Misses != r.Misses || r.Started+v.Started != 0 {
		t.Errorf("results: %d hits, %d misses; verdicts: %d hits, %d misses; %d simulations; want 1, 5 on both and none",
			r.Hits, r.Misses, v.Hits, v.Misses, r.Started+v.Started)
	}
	for _, e := range []*Engine{res, ver} {
		e.SetMemoCapacity(0)
	}
	holds("capacity 0")
}

// TestEngineShrinkAppliesOnCompletion: a capacity shrink issued while a
// computation is in flight takes effect once the entry completes — the
// memo does not stay over budget until the next claim.
func TestEngineShrinkAppliesOnCompletion(t *testing.T) {
	e := NewEngine(2)
	spec, cfg := robustTestJob(t, 55)
	e.SetMemoCapacity(0)
	for i := 0; i < 2; i++ {
		_, src, err := e.RunKeyed(context.Background(), JobKey(spec, cfg), spec, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if src != SourceComputed {
			t.Fatalf("run %d served from source %d: completed entry survived a zero-capacity memo", i, src)
		}
	}
}

// TestSaturationCancelBetweenIterations: with a fully warm memo every
// probe is an instant hit that never observes ctx, so only the explicit
// between-iteration checks can stop an abandoned search. The canceled
// search must return the typed CanceledError and unwrap to ctx.Err().
func TestSaturationCancelBetweenIterations(t *testing.T) {
	spec, cfg := robustTestJob(t, 77)
	e := NewEngine(2)
	satCfg := SatConfig{Base: cfg, Iters: 5}
	if _, err := e.Saturation(spec, satCfg); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := e.SaturationContext(ctx, spec, satCfg)
	if err == nil {
		t.Fatal("canceled saturation search completed on a warm memo")
	}
	var ce *CanceledError
	if !errors.As(err, &ce) {
		t.Fatalf("error is %T (%v), want *CanceledError", err, err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("CanceledError does not unwrap to context.Canceled: %v", err)
	}
	if ce.Network != spec.Name || ce.Stage == "" {
		t.Fatalf("CanceledError missing context: %+v", ce)
	}
}

// TestEngineRemoteDelegate: a remote runner serves results in place of
// local computation, and its error is the job's error: nothing is
// simulated locally and nothing is written to the store.
func TestEngineRemoteDelegate(t *testing.T) {
	spec, cfg := robustTestJob(t, 31)
	canned := RunResult{Network: spec.Name, Benchmark: cfg.Bench.Name(), MeasuredPackets: 42}

	e := NewEngine(2)
	e.SetRemote(func(context.Context, network.Spec, RunConfig) (RunResult, error) {
		return canned, nil
	})
	got, err := e.Run(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got != canned {
		t.Fatalf("remote result not served: %+v", got)
	}

	failed := errors.New("remote down")
	st := newFakeStore()
	e2 := NewEngine(2)
	e2.SetStore(st)
	calls := 0
	e2.SetRemote(func(context.Context, network.Spec, RunConfig) (RunResult, error) {
		calls++
		return RunResult{}, failed
	})
	if _, err := e2.Run(spec, cfg); err != failed {
		t.Fatalf("delegate error came back as %v, want %v", err, failed)
	}
	if calls != 1 {
		t.Fatalf("remote called %d times, want 1", calls)
	}
	if snap := e2.Snapshot(); snap.Started != 0 {
		t.Fatalf("a failed delegate started %d local simulations", snap.Started)
	}
	if s := st.Stats(); s.Writes != 0 {
		t.Fatalf("a failed delegate wrote to the store: %+v", s)
	}
}
