package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"strconv"
	"testing"

	"asyncnoc/internal/chiplet"
	"asyncnoc/internal/fault"
	"asyncnoc/internal/network"
	"asyncnoc/internal/sim"
	"asyncnoc/internal/traffic"
)

// referenceJobKey is the job key formula JobKey replaced, kept as the
// differential reference: the canonical key formatted into a string and
// the key text written into a streaming hash.
func referenceJobKey(spec network.Spec, cfg RunConfig) string {
	h := sha256.New()
	if spec.Mesh == nil {
		fmt.Fprintf(h, "spec|%s", referenceCanonicalKey(spec))
	} else {
		fmt.Fprint(h, referenceCanonicalKey(spec))
	}
	fmt.Fprintf(h, "|cfg|%#v|%s|%d|%d|%d|%d|%d",
		cfg.Bench, strconv.FormatFloat(cfg.LoadGFs, 'x', -1, 64),
		cfg.Seed, cfg.Warmup, cfg.Measure, cfg.Drain, cfg.MaxEvents)
	return hex.EncodeToString(h.Sum(nil))
}

// referenceCanonicalKey is network.Spec.CanonicalKey as a Sprintf.
func referenceCanonicalKey(s network.Spec) string {
	if s.Mesh != nil {
		return fmt.Sprintf("mesh|%s|%dx%d|%d|%v|%s", s.Name, s.Mesh.W, s.Mesh.H, s.PacketLen, s.Serial, s.Strategy)
	}
	key := fmt.Sprintf("%s|%d|%d|%d|%v|%d|%d|%v|%s|%d|%d|%+v",
		s.Name, s.N, s.PacketLen, s.Scheme, s.SpecLevels,
		s.SpecKind, s.NonSpecKind, s.Serial, s.Strategy, s.Protocol, s.SyncPeriod,
		s.Faults)
	if s.Chiplet != nil {
		key += fmt.Sprintf("|chiplet|%+v", *s.Chiplet)
	}
	return key
}

// TestJobKeyMatchesReference: JobKey and CanonicalKey give the
// reference formula's bytes on every kind of spec the engine keys, so
// stores written by earlier versions stay warm.
func TestJobKeyMatchesReference(t *testing.T) {
	windows := func(b traffic.Benchmark) []RunConfig {
		return []RunConfig{
			{Bench: b, LoadGFs: 0.4, Seed: 2016, Warmup: 120 * sim.Nanosecond, Measure: 400 * sim.Nanosecond, Drain: 300 * sim.Nanosecond},
			{Bench: b, LoadGFs: 0.1 + 0.2, Seed: math.MaxUint64, Warmup: 1, Measure: sim.Nanosecond, MaxEvents: math.MaxUint64},
			{Bench: b, LoadGFs: 3.9e-7, Seed: 0, Drain: -1, MaxEvents: 50_000},
		}
	}
	type job struct {
		spec  network.Spec
		bench []traffic.Benchmark
	}
	var jobs []job
	mot := func(s network.Spec) { jobs = append(jobs, job{s, traffic.StandardSuite(s.N)}) }
	for _, s := range AllSpecs(8) {
		mot(s)
	}
	mot(WithStrategy(OptNonSpeculative(8), "PathBased"))
	mot(WithStrategy(OptNonSpeculative(8), "DPM"))
	levels := OptHybridSpeculative(8)
	levels.SpecLevels = []bool{true, false, true}
	mot(levels)
	mot(Synchronous(OptHybridSpeculative(8)))
	faulty := BasicHybridSpeculative(8)
	faulty.Faults = fault.Config{Seed: 7, CorruptRate: 1e-3, DropRate: 1e-3, Stuck: []fault.Stuck{{Tree: 2, Heap: 1, After: 5}}}
	mot(faulty)
	for _, s := range []network.Spec{MeshTree(4, 4), MeshSerial(4, 4)} {
		jobs = append(jobs, job{s, []traffic.Benchmark{traffic.UniformRandom{N: 16}, traffic.Multicast{N: 16, Frac: 0.1}}})
	}
	p := chiplet.Default(2, 2)
	composed := job{spec: WithChiplet(OptHybridSpeculative(4), p)}
	for _, name := range []string{"UniformRandom", "Multicast5", "Multicast10"} {
		b, err := chiplet.ByName(p, 4, name)
		if err != nil {
			t.Fatal(err)
		}
		composed.bench = append(composed.bench, b)
	}
	jobs = append(jobs, composed)

	n := 0
	for _, j := range jobs {
		if got, want := j.spec.CanonicalKey(), referenceCanonicalKey(j.spec); got != want {
			t.Errorf("%s: canonical key %q, want %q", j.spec.Name, got, want)
		}
		for _, b := range j.bench {
			for _, cfg := range windows(b) {
				if got, want := JobKey(j.spec, cfg), referenceJobKey(j.spec, cfg); got != want {
					t.Errorf("%s/%s %+v: key %s, want %s", j.spec.Name, b.Name(), cfg, got, want)
				}
				n++
			}
		}
	}
	if n < 150 {
		t.Fatalf("checked %d keys, want at least 150", n)
	}
}
