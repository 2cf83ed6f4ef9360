package core

import (
	"context"
	"encoding/json"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"asyncnoc/internal/network"
	"asyncnoc/internal/sim"
	"asyncnoc/internal/traffic"
)

// fakeStore is an in-memory ResultStore and VerdictStore for
// engine-level tests.
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

// TestEngineMemoShrinkKeepsInFlightDedup hammers one job key from many
// goroutines while the memo capacity is concurrently shrunk to zero and
// restored. An in-flight entry must never be evicted (its done channel
// is still open), so every round deduplicates to exactly one unique
// computation. The remote delegate doubles as a barrier that holds the
// entry in flight until every claimant has arrived, making the
// assertion deterministic. Run with -race in CI.
func TestEngineMemoShrinkKeepsInFlightDedup(t *testing.T) {
	const rounds = 4
	const claimants = 8
	e := NewEngine(4)
	var lookups atomic.Uint64 // memo lookups the in-flight entry must absorb
	var computes atomic.Uint64
	e.SetRemote(func(_ context.Context, spec network.Spec, cfg RunConfig) (RunResult, error) {
		computes.Add(1)
		// Hold the entry in flight until every claimant of this round
		// has gone through claim: each claim bumps hits+misses exactly
		// once, so once the total reaches the expected lookup count, all
		// claimants have either joined this entry or (on a dedup bug)
		// started their own compute — deterministically, with the churn
		// goroutine shrinking the memo the whole time.
		for {
			hits, misses := e.Stats()
			if hits+misses >= lookups.Load() {
				return RunResult{Network: spec.Name, Benchmark: cfg.Bench.Name(), LoadGFs: cfg.LoadGFs}, nil
			}
			time.Sleep(100 * time.Microsecond)
		}
	})
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
		lookups.Store(uint64((round + 1) * claimants))
		var wg sync.WaitGroup
		var mu sync.Mutex
		var results [][]byte
		for c := 0; c < claimants; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				res, err := e.Run(spec, cfg)
				if err != nil {
					t.Error(err)
					return
				}
				b, _ := json.Marshal(res)
				mu.Lock()
				results = append(results, b)
				mu.Unlock()
			}()
		}
		wg.Wait()
		for _, b := range results {
			if string(b) != string(results[0]) {
				t.Fatalf("round %d: divergent results under concurrent shrink", round)
			}
		}
	}
	close(stop)
	churn.Wait()
	if got := computes.Load(); got != rounds {
		t.Fatalf("unique computations = %d, want %d: an in-flight entry was evicted (lost dedup)", got, rounds)
	}
}

// TestEngineShrinkAppliesOnCompletion: a capacity shrink issued while a
// computation is in flight takes effect once the entry completes — the
// memo does not stay over budget until the next claim.
func TestEngineShrinkAppliesOnCompletion(t *testing.T) {
	e := NewEngine(2)
	spec, cfg := robustTestJob(t, 55)
	e.SetMemoCapacity(0)
	for i := 0; i < 2; i++ {
		_, src, err := e.RunSource(context.Background(), spec, cfg)
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
// local computation; ErrRemoteUnavailable degrades to local compute.
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

	// Unavailable remote: the engine computes locally and the result
	// matches a plain local run.
	want, err := NewEngine(2).Run(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	e2 := NewEngine(2)
	calls := 0
	e2.SetRemote(func(context.Context, network.Spec, RunConfig) (RunResult, error) {
		calls++
		return RunResult{}, ErrRemoteUnavailable
	})
	got, err = e2.Run(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("remote called %d times, want 1", calls)
	}
	wantJSON, _ := json.Marshal(want)
	gotJSON, _ := json.Marshal(got)
	if string(gotJSON) != string(wantJSON) {
		t.Fatalf("local fallback differs from plain local run:\n%s\nvs\n%s", gotJSON, wantJSON)
	}
	// The fallback result still writes behind to an attached store.
	st := newFakeStore()
	e3 := NewEngine(2)
	e3.SetStore(st)
	e3.SetRemote(func(context.Context, network.Spec, RunConfig) (RunResult, error) {
		return RunResult{}, ErrRemoteUnavailable
	})
	if _, err := e3.Run(spec, cfg); err != nil {
		t.Fatal(err)
	}
	if s := st.Stats(); s.Writes != 1 {
		t.Fatalf("fallback result not written behind: %+v", s)
	}
}
