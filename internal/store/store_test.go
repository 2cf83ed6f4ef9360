package store

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"asyncnoc/internal/core"
	"asyncnoc/internal/sim"
	"asyncnoc/internal/traffic"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	res := core.RunResult{Network: "X", Benchmark: "B", LoadGFs: 0.4, AvgLatencyNs: 12.5, MeasuredPackets: 7}
	data, err := Encode(res)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if got != res {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, res)
	}
}

func TestDecodeRejectsDamage(t *testing.T) {
	res := core.RunResult{Network: "X", MeasuredPackets: 3}
	data, err := Encode(res)
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":        {},
		"short header": data[:headerSize-1],
		"truncated":    data[:len(data)-1],
		"bad magic":    append([]byte("NOTMAGIC"), data[len(magic):]...),
		"extra tail":   append(append([]byte{}, data...), 'x'),
	}
	flipped := append([]byte{}, data...)
	flipped[len(flipped)-1] ^= 0x40
	cases["flipped payload byte"] = flipped
	flippedCRC := append([]byte{}, data...)
	flippedCRC[len(magic)+4] ^= 0x01
	cases["flipped checksum byte"] = flippedCRC
	for name, bad := range cases {
		if _, err := Decode(bad); err == nil {
			t.Errorf("%s: Decode accepted damaged entry", name)
		}
	}
}

func TestStorePutGetAndReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	res := core.RunResult{Network: "X", Benchmark: "B", MeasuredPackets: 11}
	key := strings.Repeat("ab", 32)
	s.Put(key, res)
	s.Flush()
	got, ok := s.Get(key)
	if !ok || got != res {
		t.Fatalf("Get after Put: ok=%v got=%+v", ok, got)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// A fresh process (fresh Open) sees the committed entry.
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, ok = s2.Get(key)
	if !ok || got != res {
		t.Fatalf("Get after reopen: ok=%v got=%+v", ok, got)
	}
	st := s2.Stats()
	if st.Hits != 1 || st.Corrupt != 0 {
		t.Fatalf("stats after clean reopen: %+v", st)
	}
}

func TestStoreRejectsHostileKeys(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{
		"", "short", strings.Repeat("g", 64), strings.Repeat("A", 64),
		"../../../../etc/passwd", strings.Repeat("a", 63) + "/",
	} {
		s.Put(key, core.RunResult{})
		if _, ok := s.Get(key); ok {
			t.Errorf("key %q: hostile key served", key)
		}
	}
	s.Flush()
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(des) != 0 {
		t.Fatalf("hostile keys created %d files in the cache dir", len(des))
	}
}

// TestStoreCrashRecovery simulates every way a write can die mid-stream
// — a leftover temp file, a truncated entry, a flipped byte — and
// asserts the store recovers with zero manual intervention: Open sweeps
// temps, reads self-heal by deleting the bad entry, and the recomputed
// result is byte-identical to a clean run.
func TestStoreCrashRecovery(t *testing.T) {
	spec, err := core.SpecByName(8, core.NameOptHybridSpec)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.RunConfig{
		Bench: traffic.Multicast{N: 8, Frac: 0.10}, LoadGFs: 0.3, Seed: 9,
		Warmup: 40 * sim.Nanosecond, Measure: 160 * sim.Nanosecond, Drain: 80 * sim.Nanosecond,
	}
	key := core.JobKey(spec, cfg)

	// Clean reference run, no store involved.
	want, err := core.Run(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	eng := core.NewEngine(2)
	eng.SetStore(s)
	if _, err := eng.Run(spec, cfg); err != nil {
		t.Fatal(err)
	}
	s.Flush()
	entry := filepath.Join(dir, key+entrySuffix)
	clean, err := os.ReadFile(entry)
	if err != nil {
		t.Fatalf("entry not committed: %v", err)
	}

	damage := []struct {
		name  string
		wreck func(t *testing.T)
	}{
		{"truncated entry", func(t *testing.T) {
			if err := os.WriteFile(entry, clean[:len(clean)/2], 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"flipped byte", func(t *testing.T) {
			bad := append([]byte{}, clean...)
			bad[len(bad)-3] ^= 0x20
			if err := os.WriteFile(entry, bad, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"empty entry", func(t *testing.T) {
			if err := os.WriteFile(entry, nil, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, d := range damage {
		t.Run(d.name, func(t *testing.T) {
			d.wreck(t)
			// Also leave a mid-write temp file behind, as a killed
			// writer would.
			tmp := filepath.Join(dir, tmpPrefix+key+"-killed")
			if err := os.WriteFile(tmp, clean[:10], 0o644); err != nil {
				t.Fatal(err)
			}
			// "Next process": fresh store over the damaged directory.
			s2, err := Open(dir)
			if err != nil {
				t.Fatalf("store did not recover on open: %v", err)
			}
			if _, err := os.Stat(tmp); !os.IsNotExist(err) {
				t.Fatalf("leftover temp file survived Open: %v", err)
			}
			if _, ok := s2.Get(key); ok {
				t.Fatal("store served a damaged entry")
			}
			if _, err := os.Stat(entry); !os.IsNotExist(err) {
				t.Fatalf("damaged entry not self-deleted: %v", err)
			}
			if st := s2.Stats(); st.Corrupt != 1 {
				t.Fatalf("corrupt counter = %d, want 1", st.Corrupt)
			}
			// Recompute through a fresh engine: the read misses, the
			// engine recomputes, the write-behind restores the entry.
			eng2 := core.NewEngine(2)
			eng2.SetStore(s2)
			got, err := eng2.Run(spec, cfg)
			if err != nil {
				t.Fatal(err)
			}
			gotJSON, err := json.Marshal(got)
			if err != nil {
				t.Fatal(err)
			}
			if string(gotJSON) != string(wantJSON) {
				t.Fatalf("recomputed result differs from clean run:\n%s\nvs\n%s", gotJSON, wantJSON)
			}
			s2.Flush()
			healed, err := os.ReadFile(entry)
			if err != nil {
				t.Fatalf("entry not restored after recompute: %v", err)
			}
			if string(healed) != string(clean) {
				t.Fatal("restored entry differs from the original commit")
			}
		})
	}
}

// TestStoreEngineReadThrough proves the warm-cache contract across
// process restarts: a second engine over the same directory serves the
// byte-identical result without starting a single simulation.
func TestStoreEngineReadThrough(t *testing.T) {
	spec, err := core.SpecByName(8, core.NameBaseline)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.RunConfig{
		Bench: traffic.UniformRandom{N: 8}, LoadGFs: 0.25, Seed: 4,
		Warmup: 40 * sim.Nanosecond, Measure: 160 * sim.Nanosecond, Drain: 80 * sim.Nanosecond,
	}
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	eng := core.NewEngine(2)
	eng.SetStore(s)
	want, err := eng.Run(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	eng2 := core.NewEngine(2)
	eng2.SetStore(s2)
	got, err := eng2.Run(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, _ := json.Marshal(want)
	gotJSON, _ := json.Marshal(got)
	if string(gotJSON) != string(wantJSON) {
		t.Fatalf("store hit differs from computed result:\n%s\nvs\n%s", gotJSON, wantJSON)
	}
	if snap := eng2.Snapshot(); snap.Started != 0 {
		t.Fatalf("warm-cache run started %d simulations, want 0", snap.Started)
	}
	if st := s2.Stats(); st.Hits != 1 {
		t.Fatalf("store hits = %d, want 1", st.Hits)
	}
}

// TestStoreEvictionOldestFirst pins the GC's LRU order: with explicit
// access stamps, shrinking the budget must delete exactly the coldest
// entries and leave the rest readable.
func TestStoreEvictionOldestFirst(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	res := core.RunResult{Network: "X", Benchmark: "B", MeasuredPackets: 5}
	keys := make([]string, 6)
	for i := range keys {
		keys[i] = fmt.Sprintf("%064x", i+1)
		s.Put(keys[i], res)
	}
	s.Flush()
	// Stamp ascending access times an hour in the past so the test does
	// not depend on filesystem timestamp granularity.
	base := time.Now().Add(-time.Hour)
	for i, k := range keys {
		ts := base.Add(time.Duration(i) * time.Minute)
		if err := os.Chtimes(s.path(k+entrySuffix), ts, ts); err != nil {
			t.Fatal(err)
		}
	}
	fi, err := os.Stat(s.path(keys[0] + entrySuffix))
	if err != nil {
		t.Fatal(err)
	}
	// Budget for the three newest entries: SetMaxBytes sweeps immediately.
	s.SetMaxBytes(3 * fi.Size())
	for i, k := range keys {
		_, ok := s.Get(k)
		if want := i >= 3; ok != want {
			t.Errorf("after eviction, Get(keys[%d]) = %v, want %v", i, ok, want)
		}
	}
	if st := s.Stats(); st.Evictions != 3 {
		t.Fatalf("Evictions = %d, want 3", st.Evictions)
	}
}

// TestStoreEvictionBoundsWritePath checks the budget holds under a
// stream of writes: the opportunistic write-path sweep plus the Flush
// sweep must keep the committed bytes at or under the budget.
func TestStoreEvictionBoundsWritePath(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	res := core.RunResult{Network: "Y", Benchmark: "B", MeasuredPackets: 9}
	probe := fmt.Sprintf("%064x", 0xfade)
	s.Put(probe, res)
	s.Flush()
	fi, err := os.Stat(s.path(probe + entrySuffix))
	if err != nil {
		t.Fatal(err)
	}
	size := fi.Size()
	s.SetMaxBytes(4 * size)
	const n = 20
	for i := 0; i < n; i++ {
		s.Put(fmt.Sprintf("%064x", i+1), res)
	}
	s.Flush()
	left, err := s.Len()
	if err != nil {
		t.Fatal(err)
	}
	if left > 4 {
		t.Fatalf("%d entries after flush, budget fits 4", left)
	}
	if st := s.Stats(); st.Evictions < uint64(n+1-left) {
		t.Fatalf("Evictions = %d, want >= %d (wrote %d, %d left)", st.Evictions, n+1-left, n+1, left)
	}
	// The survivors are still intact reads, and an unbounded store (the
	// default) would never have evicted: flip the budget off and write
	// again to prove eviction stops.
	s.SetMaxBytes(0)
	evicted := s.Stats().Evictions
	s.Put(fmt.Sprintf("%064x", 0xbeef), res)
	s.Flush()
	if st := s.Stats(); st.Evictions != evicted {
		t.Fatalf("eviction ran with budget disabled: %d -> %d", evicted, st.Evictions)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestStoreVerdicts: verdicts round-trip apart from results, and a
// damaged verdict entry is a counted, deleted miss like a damaged result.
func TestStoreVerdicts(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	sat, stable := fmt.Sprintf("%064x", 1), fmt.Sprintf("%064x", 2)
	s.PutVerdict(sat, true)
	s.PutVerdict(stable, false)
	s.PutVerdict("../escape", true)
	s.Flush()
	if got, ok := s.GetVerdict(sat); !ok || !got {
		t.Fatalf("saturated verdict read back as %v, %v", got, ok)
	}
	if got, ok := s.GetVerdict(stable); !ok || got {
		t.Fatalf("stable verdict read back as %v, %v", got, ok)
	}
	if _, ok := s.Get(sat); ok {
		t.Fatal("a verdict key served a result")
	}
	if n, err := s.Len(); err != nil || n != 2 {
		t.Fatalf("Len = %d, %v; want the 2 verdicts", n, err)
	}
	path := filepath.Join(dir, stable+verdictSuffix)
	if err := os.WriteFile(path, frame(magic, []byte("false")), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.GetVerdict(stable); ok {
		t.Fatal("a verdict framed as a result was served")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("damaged verdict entry not deleted: %v", err)
	}
	if st := s.Stats(); st.Corrupt != 1 || st.Hits != 2 || st.Misses != 2 || st.Writes != 2 {
		t.Fatalf("stats %+v", st)
	}
}

// TestStoreServesRepeatedSaturation: a saturation search repeated by a
// new engine over the reopened store (another process sharing the
// cache) simulates nothing and misses nothing, though most of its
// probes stopped at their verdicts the first time.
func TestStoreServesRepeatedSaturation(t *testing.T) {
	dir := t.TempDir()
	spec := core.OptHybridSpeculative(8)
	cfg := core.SatConfig{
		Base: core.RunConfig{Bench: traffic.Multicast{N: 8, Frac: 0.10}, Seed: 2016,
			Warmup: 120 * sim.Nanosecond, Measure: 400 * sim.Nanosecond, Drain: 300 * sim.Nanosecond},
		Iters: 7,
	}
	search := func() ([]byte, core.EngineSnapshot) {
		s, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		e := core.NewEngine(2)
		e.SetStore(s)
		res, err := e.Saturation(spec, cfg)
		if err != nil {
			t.Fatal(err)
		}
		s.Close()
		out, _ := json.Marshal(res)
		return out, e.Snapshot()
	}
	cold, coldSnap := search()
	warm, warmSnap := search()
	if string(cold) != string(warm) {
		t.Fatalf("warm search differs:\n%s\nvs\n%s", warm, cold)
	}
	if coldSnap.Started == 0 {
		t.Fatal("the cold search simulated nothing")
	}
	if warmSnap.Started != 0 || warmSnap.Store.Misses != 0 || warmSnap.Store.Hits == 0 {
		t.Fatalf("warm search: %d simulations, store %+v", warmSnap.Started, warmSnap.Store)
	}
}
