// Package store is the crash-safe persistent result store behind the
// experiment engine's in-memory memo.
//
// Every simulation in this model is a pure function of (spec, config),
// and the engine already derives a canonical SHA-256 job key from that
// pair — so a result computed once is valid forever, for every process
// and every user. The store makes that durable: one file per job key
// under a cache directory, written atomically (temp file + fsync +
// rename) and framed with a CRC-32C so a torn or bit-rotted entry is
// detected on read, deleted, and recomputed instead of ever being
// served. A store that loses power mid-write recovers to a fully
// functional state on the next Open with zero manual intervention.
//
// Beside results, the store keeps saturation-probe verdicts
// (core.VerdictStore): one file per verdict key with its own suffix and
// magic, framed and written the same way, so a saturation search
// repeated in another process is answered from disk even for probes
// that stopped before their end.
//
// Writes are behind-the-read-path: Put enqueues onto a bounded pool of
// background writers and degrades to a synchronous write when the pool
// is busy, so cache persistence never drops entries and never grows an
// unbounded goroutine backlog. All store failures are soft — a broken
// disk turns the store into a pass-through, never a crash.
package store

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"asyncnoc/internal/core"
)

// Entry framing: a fixed magic, the payload length, and a CRC-32C
// (Castagnoli) of the payload, followed by the payload: the canonical
// JSON encoding of the RunResult, or "true"/"false" for a verdict. The
// length makes truncation detectable even when the torn tail happens to
// CRC-match a prefix; the magic rejects foreign files dropped into the
// cache directory.
const (
	magic        = "ANOCRS1\n"
	verdictMagic = "ANOCSV1\n"
	headerSize   = len(magic) + 4 + 4 // magic + length + crc
)

// castagnoli is the CRC-32C table (same polynomial the flit-level fault
// layer uses, reused here at the persistence layer).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Encode frames a RunResult as a store entry: header (magic, payload
// length, CRC-32C) followed by the JSON payload.
func Encode(res core.RunResult) ([]byte, error) {
	payload, err := json.Marshal(res)
	if err != nil {
		return nil, fmt.Errorf("store: encode: %w", err)
	}
	return frame(magic, payload), nil
}

// frame prefixes payload with the entry header.
func frame(magic string, payload []byte) []byte {
	buf := make([]byte, 0, headerSize+len(payload))
	buf = append(buf, magic...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(payload, castagnoli))
	return append(buf, payload...)
}

// Decode parses and verifies a store entry. Any framing violation —
// short header, wrong magic, length mismatch, checksum mismatch,
// invalid JSON — returns an error; the caller treats every decode error
// as a cache miss and deletes the entry (self-healing).
func Decode(data []byte) (core.RunResult, error) {
	var zero core.RunResult
	payload, err := unframe(magic, data)
	if err != nil {
		return zero, err
	}
	dec := json.NewDecoder(bytes.NewReader(payload))
	dec.DisallowUnknownFields()
	var res core.RunResult
	if err := dec.Decode(&res); err != nil {
		return zero, fmt.Errorf("store: payload: %w", err)
	}
	return res, nil
}

// unframe verifies an entry's header and returns its payload.
func unframe(magic string, data []byte) ([]byte, error) {
	if len(data) < headerSize {
		return nil, fmt.Errorf("store: entry truncated: %d bytes < %d-byte header", len(data), headerSize)
	}
	if !bytes.Equal(data[:len(magic)], []byte(magic)) {
		return nil, fmt.Errorf("store: bad magic %q", data[:len(magic)])
	}
	length := binary.LittleEndian.Uint32(data[len(magic):])
	sum := binary.LittleEndian.Uint32(data[len(magic)+4:])
	payload := data[headerSize:]
	if uint32(len(payload)) != length {
		return nil, fmt.Errorf("store: payload length %d != declared %d", len(payload), length)
	}
	if got := crc32.Checksum(payload, castagnoli); got != sum {
		return nil, fmt.Errorf("store: checksum mismatch: %08x != %08x", got, sum)
	}
	return payload, nil
}

// decodeVerdict parses and verifies a verdict entry.
func decodeVerdict(data []byte) (bool, error) {
	payload, err := unframe(verdictMagic, data)
	if err != nil {
		return false, err
	}
	switch string(payload) {
	case "true":
		return true, nil
	case "false":
		return false, nil
	}
	return false, fmt.Errorf("store: verdict payload %q", payload)
}

// tmpPrefix marks in-progress writes; leftovers from a crashed process
// are swept on Open and ignored by reads (they never match a job key).
const tmpPrefix = ".tmp-"

// entrySuffix and verdictSuffix are the on-disk extensions of committed
// results and verdicts.
const (
	entrySuffix   = ".res"
	verdictSuffix = ".sat"
)

// committed reports whether a directory entry is a committed result or
// verdict.
func committed(name string) bool {
	return (strings.HasSuffix(name, entrySuffix) || strings.HasSuffix(name, verdictSuffix)) &&
		!strings.HasPrefix(name, tmpPrefix)
}

// defaultWriters bounds the write-behind pool; beyond it, Put degrades
// to a synchronous write instead of queueing without bound.
const defaultWriters = 4

// Store is a content-addressed persistent result store: one file per
// job key, checksum-verified reads, atomic writes. Safe for concurrent
// use by any number of goroutines (and, via the atomic-rename
// discipline, by concurrent processes sharing the directory).
type Store struct {
	dir string

	mu      sync.Mutex
	closed  bool
	pending sync.WaitGroup
	slots   chan struct{}

	// maxBytes is the eviction budget (0 = unbounded); approxBytes is a
	// running estimate of committed bytes, re-baselined by every sweep,
	// that lets the write path trigger a sweep without rescanning the
	// directory on each commit. sweepMu serializes sweeps.
	maxBytes    atomic.Int64
	approxBytes atomic.Int64
	sweepMu     sync.Mutex

	stats struct {
		sync.Mutex
		core.StoreStats
	}
}

// Open opens (creating if needed) a store rooted at dir and sweeps
// temp files left behind by a crashed writer. The swept files are the
// only recovery work a crash ever needs: committed entries are always
// complete (rename is atomic) and torn entries self-delete on read.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: open %s: %w", dir, err)
	}
	names, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("store: open %s: %w", dir, err)
	}
	for _, de := range names {
		if strings.HasPrefix(de.Name(), tmpPrefix) {
			os.Remove(filepath.Join(dir, de.Name())) //nolint:errcheck // best-effort sweep
		}
	}
	return &Store{dir: dir, slots: make(chan struct{}, defaultWriters)}, nil
}

// Dir returns the cache directory.
func (s *Store) Dir() string { return s.dir }

// validKey reports whether key is a well-formed job key (64 lowercase
// hex digits — a SHA-256). Anything else is rejected before it can name
// a path, so keys from untrusted sources (URLs) cannot traverse out of
// the cache directory.
func validKey(key string) bool {
	if len(key) != 64 {
		return false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// path is the file of the entry name in the cache directory.
func (s *Store) path(name string) string { return filepath.Join(s.dir, name) }

// Get looks a job key up. A missing file is a plain miss; a present but
// corrupt or truncated entry is counted, deleted, and reported as a
// miss so the caller recomputes — the store never serves bad data.
func (s *Store) Get(key string) (core.RunResult, bool) {
	var res core.RunResult
	ok := s.get(key, entrySuffix, func(data []byte) (err error) {
		res, err = Decode(data)
		return err
	})
	return res, ok
}

// GetVerdict looks a verdict key up (core.VerdictStore), under the same
// rules and counters as Get.
func (s *Store) GetVerdict(key string) (saturated, ok bool) {
	ok = s.get(key, verdictSuffix, func(data []byte) (err error) {
		saturated, err = decodeVerdict(data)
		return err
	})
	return saturated, ok
}

// get reads the entry key+suffix and hands it to decode.
func (s *Store) get(key, suffix string, decode func([]byte) error) bool {
	if !validKey(key) {
		return false
	}
	path := s.path(key + suffix)
	data, err := os.ReadFile(path)
	if err != nil {
		s.count(func(st *core.StoreStats) { st.Misses++ })
		return false
	}
	if err := decode(data); err != nil {
		// Self-heal: drop the bad entry so the next write replaces it.
		os.Remove(path) //nolint:errcheck // best effort
		s.count(func(st *core.StoreStats) { st.Misses++; st.Corrupt++ })
		return false
	}
	s.count(func(st *core.StoreStats) { st.Hits++ })
	// Touch the entry so the size-budget GC sees it as recently used.
	// Best-effort: relatime mounts make kernel-maintained atimes coarse,
	// so the store bumps both timestamps explicitly (the fallback atime
	// reader uses mtime, which this also keeps fresh).
	if s.maxBytes.Load() > 0 {
		now := time.Now()
		os.Chtimes(path, now, now) //nolint:errcheck // best effort
	}
	return true
}

// SetMaxBytes sets the eviction budget: whenever the committed entries
// exceed max bytes, the least-recently-accessed entries are deleted
// until the total fits again (a disk-level LRU over the content-
// addressed cache). max <= 0 disables eviction. The budget is enforced
// by an immediate sweep, after every Flush, and opportunistically from
// the write path once enough bytes have been committed to matter —
// evicting an entry is always safe because every entry is a pure
// recomputable function of its job key.
func (s *Store) SetMaxBytes(max int64) {
	s.maxBytes.Store(max)
	if max > 0 {
		s.sweep()
	}
}

// MaxBytes returns the current eviction budget (0 = unbounded).
func (s *Store) MaxBytes() int64 { return s.maxBytes.Load() }

// sweep scans the cache directory and, when the committed bytes exceed
// the budget, deletes oldest-access entries until the total fits. The
// scan also re-baselines the approximate byte counter that the write
// path uses to decide when the next sweep is due. Errors are soft, like
// every other store failure.
func (s *Store) sweep() {
	max := s.maxBytes.Load()
	if max <= 0 {
		return
	}
	s.sweepMu.Lock()
	defer s.sweepMu.Unlock()
	des, err := os.ReadDir(s.dir)
	if err != nil {
		return
	}
	type entry struct {
		name  string
		size  int64
		atime time.Time
	}
	entries := make([]entry, 0, len(des))
	var total int64
	for _, de := range des {
		name := de.Name()
		if !committed(name) {
			continue
		}
		fi, err := de.Info()
		if err != nil {
			continue
		}
		entries = append(entries, entry{name: name, size: fi.Size(), atime: atime(fi)})
		total += fi.Size()
	}
	if total > max {
		sort.Slice(entries, func(i, j int) bool { return entries[i].atime.Before(entries[j].atime) })
		var evicted uint64
		for _, e := range entries {
			if total <= max {
				break
			}
			if err := os.Remove(s.path(e.name)); err != nil {
				continue
			}
			total -= e.size
			evicted++
		}
		if evicted > 0 {
			s.count(func(st *core.StoreStats) { st.Evictions += evicted })
		}
	}
	s.approxBytes.Store(total)
}

// Put persists a result under its job key. The write happens on a
// background writer when a slot is free (write-behind) and synchronously
// otherwise (backpressure — the caller already paid for a full
// simulation; a disk write is noise). Errors are counted, not raised:
// the store is a cache, and a failed write only costs a future
// recompute. Put after Close is a no-op.
func (s *Store) Put(key string, res core.RunResult) {
	if !validKey(key) {
		return
	}
	data, err := Encode(res)
	if err != nil {
		s.count(func(st *core.StoreStats) { st.WriteErrors++ })
		return
	}
	s.put(key+entrySuffix, data)
}

// PutVerdict persists a verdict under its key (core.VerdictStore), like
// Put.
func (s *Store) PutVerdict(key string, saturated bool) {
	if !validKey(key) {
		return
	}
	s.put(key+verdictSuffix, frame(verdictMagic, strconv.AppendBool(nil, saturated)))
}

// put commits the entry file name on a background writer or inline.
func (s *Store) put(name string, data []byte) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.pending.Add(1)
	s.mu.Unlock()
	select {
	case s.slots <- struct{}{}:
		go func() {
			defer s.pending.Done()
			s.write(name, data)
			<-s.slots
		}()
	default:
		defer s.pending.Done()
		s.write(name, data)
	}
}

// write commits one entry atomically: temp file in the same directory,
// full write, fsync, rename onto the final name, best-effort directory
// sync. A reader (this process or another sharing the directory) sees
// either no entry or a complete one — never a torn write.
func (s *Store) write(name string, data []byte) {
	fail := func() { s.count(func(st *core.StoreStats) { st.WriteErrors++ }) }
	f, err := os.CreateTemp(s.dir, tmpPrefix+name+"-*")
	if err != nil {
		fail()
		return
	}
	tmp := f.Name()
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp) //nolint:errcheck
		fail()
		return
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp) //nolint:errcheck
		fail()
		return
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp) //nolint:errcheck
		fail()
		return
	}
	if err := os.Rename(tmp, s.path(name)); err != nil {
		os.Remove(tmp) //nolint:errcheck
		fail()
		return
	}
	// Directory sync makes the rename itself durable; failure here only
	// risks losing the entry on a power cut, never serving a bad one.
	if d, err := os.Open(s.dir); err == nil {
		d.Sync() //nolint:errcheck
		d.Close()
	}
	s.count(func(st *core.StoreStats) { st.Writes++ })
	// Opportunistic GC: once the running estimate crosses the budget,
	// this writer pays for a sweep (background writers absorb it for
	// free; a synchronous caller already paid for a full simulation).
	if max := s.maxBytes.Load(); max > 0 && s.approxBytes.Add(int64(len(data))) > max {
		s.sweep()
	}
}

// Flush blocks until every write accepted so far has committed, then
// enforces the eviction budget (if one is set) so a flushed store is
// both durable and within bounds.
func (s *Store) Flush() {
	s.pending.Wait()
	s.sweep()
}

// Close flushes pending writes and stops accepting new ones. Gets keep
// working after Close (reads have no queue to drain).
func (s *Store) Close() error {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.pending.Wait()
	s.sweep()
	return nil
}

// Stats snapshots the store's health counters.
func (s *Store) Stats() core.StoreStats {
	s.stats.Lock()
	defer s.stats.Unlock()
	return s.stats.StoreStats
}

func (s *Store) count(f func(*core.StoreStats)) {
	s.stats.Lock()
	f(&s.stats.StoreStats)
	s.stats.Unlock()
}

// Len counts committed entries, results and verdicts (diagnostics and
// tests).
func (s *Store) Len() (int, error) {
	des, err := os.ReadDir(s.dir)
	if err != nil {
		return 0, err
	}
	n := 0
	for _, de := range des {
		if committed(de.Name()) {
			n++
		}
	}
	return n, nil
}
