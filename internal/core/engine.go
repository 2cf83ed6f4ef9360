// Experiment engine: a bounded worker pool with deterministic result
// ordering and a keyed LRU memo.
//
// Every simulation in this model is a pure function of (network spec,
// run configuration): all randomness flows from RunConfig.Seed and each
// run owns its scheduler, recorder, and meter while it runs (a later
// run may build on their storage, never on their values; see
// netCache). That purity makes two things safe that the serial harness
// could not exploit:
//
//   - parallel fan-out: independent runs execute concurrently on a
//     bounded pool without changing any result, and
//   - memoization: a (spec, config) pair revisited by a saturation
//     bisection, a load sweep re-running its anchor load, or two tables
//     sharing a measurement point is computed exactly once.
//
// Results are always returned in job order (never completion order), so
// every consumer's output is bit-identical to the serial path.
package core

import (
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"

	"asyncnoc/internal/network"
	"asyncnoc/internal/sim"
)

// WorkersEnv is the environment variable consulted for the default pool
// size when a caller does not set one explicitly (flags win over env).
const WorkersEnv = "ASYNCNOC_WORKERS"

// DefaultWorkers resolves the default pool size: ASYNCNOC_WORKERS if set
// to a positive integer, otherwise runtime.GOMAXPROCS(0).
func DefaultWorkers() int {
	if v := os.Getenv(WorkersEnv); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			return n
		}
	}
	return runtime.GOMAXPROCS(0)
}

// DefaultMemoCapacity bounds the engine's result memo. A RunResult is a
// few hundred bytes, so even the full evaluation suite (a few thousand
// simulations) fits comfortably.
const DefaultMemoCapacity = 4096

// Job is one unit of engine work: a single simulation run of any
// topology.
type Job struct {
	Spec network.Spec
	Cfg  RunConfig
}

// JobKey returns the canonical hash of a (spec, config) pair: equal keys
// mean the runs are replays of each other. Every spec field and every
// config field participates, and the benchmark is serialized with its
// concrete type and parameters (two benchmarks sharing a reporting name
// but differing in, say, the hotspot destination hash differently).
func JobKey(spec network.Spec, cfg RunConfig) string {
	// The key text is built in one stack buffer and hashed at once. A
	// MoT spec contributes "spec|" and its CanonicalKey: byte-identical
	// to the historical inline field list for single-die specs, so
	// persistent stores written before the chiplet layer stay warm. A
	// mesh's CanonicalKey starts "mesh|" instead, so no mesh key equals a
	// MoT key.
	var buf [512]byte
	b := buf[:0]
	if spec.Mesh == nil {
		b = append(b, "spec|"...)
	}
	b = spec.AppendCanonicalKey(b)
	b = fmt.Appendf(b, "|cfg|%#v|", cfg.Bench)
	b = strconv.AppendFloat(b, cfg.LoadGFs, 'x', -1, 64)
	b = strconv.AppendUint(append(b, '|'), cfg.Seed, 10)
	for _, t := range [...]sim.Time{cfg.Warmup, cfg.Measure, cfg.Drain} {
		b = strconv.AppendInt(append(b, '|'), int64(t), 10)
	}
	b = strconv.AppendUint(append(b, '|'), cfg.MaxEvents, 10)
	sum := sha256.Sum256(b)
	var key [2 * sha256.Size]byte
	hex.Encode(key[:], sum[:])
	return string(key[:])
}

// StoreStats carries a persistent result store's health counters. Hits
// and Misses count read-throughs (a Corrupt entry also counts as a
// miss — it was deleted and recomputed); Writes and WriteErrors count
// write-behind commits; Evictions counts entries removed by the
// size-budget garbage collector (oldest-access first).
type StoreStats struct {
	Hits, Misses, Corrupt uint64
	Writes, WriteErrors   uint64
	Evictions             uint64
}

// ResultStore is the persistent layer behind the in-memory memo: a
// durable, checksum-verified map from job key to RunResult shared
// across processes. Implementations must be safe for concurrent use,
// must never return a result that fails verification (a corrupt entry
// is a miss), and must treat Put as best-effort (a failed write only
// costs a recompute). internal/store provides the file-backed
// implementation; the interface lives here so the engine does not
// depend on any particular persistence mechanism.
type ResultStore interface {
	Get(key string) (RunResult, bool)
	Put(key string, res RunResult)
	Stats() StoreStats
}

// VerdictStore is implemented by a ResultStore that also keeps the
// verdicts of saturation probes, so that a search repeated in another
// process simulates nothing: a probe that stopped at its verdict has
// no RunResult to store. Keys are digests of the job key and the
// criterion, in a namespace of their own, and the same rules apply as
// for results (safe for concurrent use, a corrupt entry is a miss,
// PutVerdict is best-effort). The engine finds the methods by a type
// assertion on its store.
type VerdictStore interface {
	GetVerdict(key string) (saturated, ok bool)
	PutVerdict(key string, saturated bool)
}

// RemoteRunner executes one simulation in place of the local pool. Its
// result, error included, is the job's result.
type RemoteRunner func(ctx context.Context, spec network.Spec, cfg RunConfig) (RunResult, error)

// memoEntry is one memo slot. done is closed once res/err are final;
// waiters block on it without holding the engine lock or a pool slot.
type memoEntry struct {
	key  string
	res  RunResult
	err  error
	done chan struct{}
	elem *list.Element
}

// Engine executes simulation runs on a bounded worker pool with a keyed
// LRU memo. The zero value is not usable; construct with NewEngine. An
// Engine is safe for concurrent use.
type Engine struct {
	workers int
	sem     chan struct{}

	mu    sync.Mutex
	memo  map[string]*memoEntry
	order *list.List // front = most recently used
	cap   int

	hits, misses uint64

	// verdicts memoizes the verdicts of saturation probes that have no
	// RunResult in the memo, and holds the probes in flight (see
	// Engine.probe).
	verdicts map[verdictKey]*verdictEntry

	// store, when non-nil, is the persistent layer consulted on a memo
	// miss (read-through) and populated after each successful compute
	// (write-behind). remote, when non-nil, replaces local computation.
	// Both are atomics so Run never contends on e.mu to read them.
	store  atomic.Pointer[ResultStore]
	remote atomic.Pointer[RemoteRunner]

	// nets holds the networks of finished runs for reuse by later runs
	// (see netCache).
	nets netCache

	// started/completed count unique (non-memoized) local computations,
	// and finalStops those among them that stopped at a final result;
	// remoteRuns counts jobs served by the remote delegate. All are
	// atomics so the monitoring endpoint can sample progress without
	// contending on the engine lock.
	started, completed, finalStops, remoteRuns atomic.Uint64
}

// NewEngine returns an engine with the given pool size; workers <= 0
// selects DefaultWorkers() (ASYNCNOC_WORKERS or GOMAXPROCS).
func NewEngine(workers int) *Engine {
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	return &Engine{
		workers:  workers,
		sem:      make(chan struct{}, workers),
		memo:     make(map[string]*memoEntry),
		verdicts: make(map[verdictKey]*verdictEntry),
		order:    list.New(),
		cap:      DefaultMemoCapacity,
		nets:     netCache{limit: workers},
	}
}

// netCache holds networks of finished runs for the engine's next runs:
// a run builds on a cached network's storage instead of allocating its
// own (network.Rebuild), whatever spec either was built for. It keeps at
// most limit networks, the engine's worker count, and drops the oldest
// beyond that. Only storage crosses runs this way, never a value: see
// simRun.close for which networks enter it, and DESIGN.md §11.
type netCache struct {
	mu    sync.Mutex
	limit int
	nets  []*network.Network // oldest first
}

// take removes and returns the newest cached network, or nil.
func (c *netCache) take() *network.Network {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := len(c.nets)
	if n == 0 {
		return nil
	}
	nw := c.nets[n-1]
	c.nets = slices.Delete(c.nets, n-1, n)
	return nw
}

// put caches nw, dropping the oldest network over the limit.
func (c *netCache) put(nw *network.Network) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.nets = append(c.nets, nw)
	if len(c.nets) > c.limit {
		c.nets = slices.Delete(c.nets, 0, 1)
	}
}

// Workers returns the pool size.
func (e *Engine) Workers() int { return e.workers }

// SetMemoCapacity rebounds the LRU memo (entries beyond the new capacity
// are evicted oldest-first); capacity < 1 disables memoization of new
// results.
func (e *Engine) SetMemoCapacity(n int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.cap = n
	e.evictLocked()
	if len(e.verdicts) > n {
		clear(e.verdicts)
	}
}

// SetStore layers a persistent result store behind the memo: memo
// misses read through to it, and completed computations write behind to
// it. nil detaches. Safe to call concurrently with running jobs; runs
// in flight pick the store up on their next lookup.
func (e *Engine) SetStore(s ResultStore) {
	if s == nil {
		e.store.Store(nil)
		return
	}
	e.store.Store(&s)
}

// Store returns the attached persistent store (nil when none).
func (e *Engine) Store() ResultStore {
	if p := e.store.Load(); p != nil {
		return *p
	}
	return nil
}

// SetRemote delegates computation to r. The memo and the persistent
// store still apply in front of it, and an error from r fails the job.
// nil detaches.
func (e *Engine) SetRemote(r RemoteRunner) {
	if r == nil {
		e.remote.Store(nil)
		return
	}
	e.remote.Store(&r)
}

// Stats returns the memo hit and miss counts (diagnostics and tests).
func (e *Engine) Stats() (hits, misses uint64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.hits, e.misses
}

// EngineSnapshot is one sample of the engine's live progress counters.
type EngineSnapshot struct {
	// Workers is the pool size.
	Workers int
	// Hits and Misses are the memo counters: Hits/(Hits+Misses) is the
	// dedup rate of the workload so far.
	Hits, Misses uint64
	// Started and Completed count unique local simulations begun and
	// finished; Started-Completed simulations are executing right now.
	Started, Completed uint64
	// FinalStops counts the simulations among Started that stopped at
	// the first chunk boundary where their RunResult was final, short
	// of their span (see RunContext).
	FinalStops uint64
	// RemoteRuns counts jobs served by the remote delegate (they never
	// touch the local pool, so they are excluded from Started).
	RemoteRuns uint64
	// Store holds the persistent store's counters when one is attached
	// (all-zero otherwise); HasStore distinguishes "no store" from "cold
	// store".
	Store    StoreStats
	HasStore bool
}

// InFlight returns how many unique simulations are executing.
func (s EngineSnapshot) InFlight() uint64 { return s.Started - s.Completed }

// HitRate returns the memo hit fraction (0 before any lookup).
func (s EngineSnapshot) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// Snapshot samples the engine's progress counters. Safe to call
// concurrently with running jobs; the counters are individually atomic
// (the snapshot is not a single consistent cut, which monitoring does
// not need).
func (e *Engine) Snapshot() EngineSnapshot {
	e.mu.Lock()
	hits, misses := e.hits, e.misses
	e.mu.Unlock()
	snap := EngineSnapshot{
		Workers:    e.workers,
		Hits:       hits,
		Misses:     misses,
		Started:    e.started.Load(),
		Completed:  e.completed.Load(),
		FinalStops: e.finalStops.Load(),
		RemoteRuns: e.remoteRuns.Load(),
	}
	if st := e.Store(); st != nil {
		snap.Store = st.Stats()
		snap.HasStore = true
	}
	return snap
}

// evictLocked drops completed entries from the LRU tail until the memo
// fits the capacity. In-flight entries are never evicted: waiters hold
// them for deduplication.
func (e *Engine) evictLocked() {
	for el := e.order.Back(); el != nil && e.order.Len() > e.cap; {
		prev := el.Prev()
		ent := el.Value.(*memoEntry)
		select {
		case <-ent.done:
			e.order.Remove(el)
			delete(e.memo, ent.key)
		default:
		}
		el = prev
	}
}

// Source says where the engine found a run's result.
type Source uint8

const (
	// SourceComputed: this call simulated the run, locally or on the
	// remote delegate.
	SourceComputed Source = iota
	// SourceMemo: the in-memory memo held the result, or a computation
	// of it was already in flight and this call shared it.
	SourceMemo
	// SourceStore: the result was read through from the persistent store.
	SourceStore
)

// Run executes one simulation of any topology through the pool and
// memo: if an equal (spec, config) pair is cached or in flight its
// result is shared, otherwise the run computes under a pool slot.
// Determinism of the simulator makes the shared result identical to a
// fresh computation.
func (e *Engine) Run(spec network.Spec, cfg RunConfig) (RunResult, error) {
	return e.RunContext(context.Background(), spec, cfg)
}

// RunContext is Run with cancellation. A caller abandoning a shared
// in-flight computation returns immediately with ctx.Err() while the
// computation itself finishes for the other waiters; a computation
// aborted by its own context is evicted from the memo so the key is not
// poisoned with a cancellation error.
func (e *Engine) RunContext(ctx context.Context, spec network.Spec, cfg RunConfig) (RunResult, error) {
	res, _, err := e.RunSource(ctx, spec, cfg)
	return res, err
}

// RunSource is RunContext that also reports where the result came from
// (the service labels store- and memo-served responses with it).
func (e *Engine) RunSource(ctx context.Context, spec network.Spec, cfg RunConfig) (RunResult, Source, error) {
	return e.RunKeyed(ctx, JobKey(spec, cfg), spec, cfg)
}

// RunKeyed is RunSource for a caller that already holds the job's key,
// which must equal JobKey(spec, cfg).
func (e *Engine) RunKeyed(ctx context.Context, key string, spec network.Spec, cfg RunConfig) (RunResult, Source, error) {
	// JobKey ignores Shards, so a memo or store hit would otherwise hide
	// these rejections.
	if err := checkSpec(spec, cfg); err != nil {
		return RunResult{}, SourceComputed, err
	}
	if len(cfg.Instruments) > 0 {
		// Instrumented runs have observable side effects (waveforms,
		// trace streams), so the memo must neither replay a cached result
		// past the instruments nor share one computation among waiters
		// that each expect their own instruments attached. Execute fresh.
		res, err := e.simulate(ctx, spec, cfg)
		return res, SourceComputed, err
	}
	ent, compute := e.claim(key, true)
	if !compute {
		res, err := await(ctx, ent)
		return res, SourceMemo, err
	}
	// Read through to the persistent store before paying for a pool
	// slot: a disk hit costs microseconds and the in-flight entry
	// already deduplicates concurrent lookups of the same key.
	if res, ok := e.fromStore(key); ok {
		ent.res = res
		e.finish(ent)
		return res, SourceStore, nil
	}
	// A delegated job holds no local pool slot.
	if rr := e.remoteRunner(); rr != nil {
		ent.res, ent.err = rr(ctx, spec, cfg)
		e.remoteRuns.Add(1)
	} else {
		ent.res, ent.err = e.simulate(ctx, spec, cfg)
	}
	e.finish(ent)
	if ent.err == nil {
		e.toStore(key, ent.res)
	}
	return ent.res, SourceComputed, ent.err
}

// await returns ent's final result. A pending entry is waited for
// unless ctx ends first (then ctx.Err()); a finished one answers at
// once, whatever ctx's state: selecting on ctx.Done() too would
// allocate the context's done channel on every memo hit, and under an
// already-canceled context would pick between two ready cases at random.
func await(ctx context.Context, ent *memoEntry) (RunResult, error) {
	select {
	case <-ent.done:
		return ent.res, ent.err
	default:
	}
	select {
	case <-ent.done:
		return ent.res, ent.err
	case <-ctx.Done():
		return RunResult{}, ctx.Err()
	}
}

// fromStore reads key's result through from the persistent store.
func (e *Engine) fromStore(key string) (RunResult, bool) {
	if st := e.Store(); st != nil {
		return st.Get(key)
	}
	return RunResult{}, false
}

// toStore writes a computed result behind to the persistent store; a
// failed write is the store's to count, not the run's.
func (e *Engine) toStore(key string, res RunResult) {
	if st := e.Store(); st != nil {
		st.Put(key, res)
	}
}

// simulate runs one simulation under a pool slot, or fails with
// ctx.Err() if ctx ends while it waits for one.
func (e *Engine) simulate(ctx context.Context, spec network.Spec, cfg RunConfig) (res RunResult, err error) {
	if err := e.acquire(ctx); err != nil {
		return RunResult{}, err
	}
	defer e.releaseSlot()
	e.started.Add(1)
	defer e.completed.Add(1)
	err = protect(spec.Name, func() (err error) {
		var cut bool
		res, cut, err = runContext(ctx, spec, cfg, &e.nets)
		e.countCut(cut)
		return err
	})
	return res, err
}

// countCut counts a simulation that stopped at its final result.
func (e *Engine) countCut(cut bool) {
	if cut {
		e.finalStops.Add(1)
	}
}

// acquire takes a pool slot, or fails with ctx.Err() if ctx ends first.
func (e *Engine) acquire(ctx context.Context) error {
	select {
	case e.sem <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (e *Engine) releaseSlot() { <-e.sem }

// finish publishes a final entry to its waiters. A canceled computation
// leaves the memo again, so the key is not poisoned with a cancellation
// error. Then the capacity bound is re-applied: eviction skips in-flight
// entries (see evictLocked), so a SetMemoCapacity shrink issued while
// computations were running could otherwise leave the memo over budget
// forever.
func (e *Engine) finish(ent *memoEntry) {
	close(ent.done)
	canceled := errors.Is(ent.err, context.Canceled) || errors.Is(ent.err, context.DeadlineExceeded)
	e.mu.Lock()
	defer e.mu.Unlock()
	if cur, ok := e.memo[ent.key]; canceled && ok && cur == ent {
		e.order.Remove(ent.elem)
		delete(e.memo, ent.key)
	}
	e.evictLocked()
}

// remoteRunner returns the remote delegate (nil when none).
func (e *Engine) remoteRunner() RemoteRunner {
	if p := e.remote.Load(); p != nil {
		return *p
	}
	return nil
}

// protect runs fn at the run boundary: a typed protocol violation
// becomes a *ProtocolError and any other panic a *PanicError, so one
// poisoned job fails alone instead of killing the pool or taking
// sibling results with it.
func protect(name string, fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Network: name, Value: r, Stack: debug.Stack()}
		}
	}()
	defer RecoverViolations(name, &err)
	return fn()
}

// claim looks the key up, registering a fresh in-flight entry on a miss.
// It reports whether the caller must compute the entry. count adds the
// lookup to the hit and miss counts; a saturation probe resuming its
// suspended run does not count it again.
func (e *Engine) claim(key string, count bool) (*memoEntry, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if ent, ok := e.memo[key]; ok {
		if count {
			e.hits++
		}
		e.order.MoveToFront(ent.elem)
		return ent, false
	}
	if count {
		e.misses++
	}
	ent := e.insertLocked(key)
	e.evictLocked()
	return ent, true
}

// insertLocked enters an in-flight entry for key at the front of the
// LRU order.
func (e *Engine) insertLocked(key string) *memoEntry {
	ent := &memoEntry{key: key, done: make(chan struct{})}
	ent.elem = e.order.PushFront(ent)
	e.memo[key] = ent
	return ent
}

// memoize enters a result obtained without a claim (a saturation probe
// that ran to its end, or a probe's result read from the store) into the
// memo, unless the key is already there.
func (e *Engine) memoize(key string, res RunResult) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, ok := e.memo[key]; ok {
		return
	}
	ent := e.insertLocked(key)
	ent.res = res
	close(ent.done)
	e.evictLocked()
}

// RunJobs executes every job through the pool and returns the results in
// job order regardless of completion order. On failure the slice is
// still returned with every successful sibling filled in (failed slots
// are zero), and the error is the first failing job's (by job order), so
// error reporting is as deterministic as the results.
func (e *Engine) RunJobs(jobs []Job) ([]RunResult, error) {
	return e.RunJobsContext(context.Background(), jobs)
}

// RunJobsContext is RunJobs with cancellation applied to every job.
func (e *Engine) RunJobsContext(ctx context.Context, jobs []Job) ([]RunResult, error) {
	results := make([]RunResult, len(jobs))
	errs := make([]error, len(jobs))
	var wg sync.WaitGroup
	for i, j := range jobs {
		i, j := i, j
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = e.RunContext(ctx, j.Spec, j.Cfg)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return results, err
		}
	}
	return results, nil
}

// defaultEngine is the shared process-wide engine behind the package-
// level Saturation, LoadSweep, and RunSeeds entry points.
var (
	defaultEngineOnce sync.Once
	defaultEngine     *Engine
)

// DefaultEngine returns the lazily constructed shared engine
// (DefaultWorkers pool size, default memo capacity).
func DefaultEngine() *Engine {
	defaultEngineOnce.Do(func() { defaultEngine = NewEngine(0) })
	return defaultEngine
}
