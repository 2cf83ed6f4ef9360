package asyncnoc_test

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"asyncnoc"
	"asyncnoc/internal/obs"
)

func shortCfg(n int) asyncnoc.RunConfig {
	return asyncnoc.RunConfig{
		Bench:   asyncnoc.UniformRandom(n),
		LoadGFs: 0.3,
		Seed:    1,
		Warmup:  100 * asyncnoc.Nanosecond,
		Measure: 300 * asyncnoc.Nanosecond,
		Drain:   300 * asyncnoc.Nanosecond,
	}
}

// The instrument surface must observe exactly the run a manual
// Build + attach + Collect harness observes: same trace bytes, same
// result, on a MoT die, a 2D mesh and a chiplet composition.
func TestTraceInstrumentMatchesManualAttach(t *testing.T) {
	chip := asyncnoc.WithChiplet(asyncnoc.OptHybridSpeculative(4), asyncnoc.ChipletSerial(2, 2))
	for _, tc := range []struct {
		spec asyncnoc.NetworkSpec
		cfg  asyncnoc.RunConfig
	}{
		{asyncnoc.OptHybridSpeculative(8), shortCfg(8)},
		{asyncnoc.MeshTree(4, 4), shortCfg(16)},
		{chip, chipletCfg(t, chip)},
	} {
		t.Run(tc.spec.Name, func(t *testing.T) {
			cfg := tc.cfg
			var manual bytes.Buffer
			nw, err := asyncnoc.Build(tc.spec, cfg)
			if err != nil {
				t.Fatal(err)
			}
			mt := &asyncnoc.TraceInstrument{Out: &manual}
			if err := mt.Attach(nw); err != nil {
				t.Fatal(err)
			}
			nw.Sched.RunUntil(cfg.Warmup + cfg.Measure + cfg.Drain)
			wantRes := asyncnoc.Collect(nw, cfg)
			if err := mt.Finish(); err != nil {
				t.Fatal(err)
			}

			var instrumented bytes.Buffer
			tr := &asyncnoc.TraceInstrument{Out: &instrumented}
			cfg.Instruments = []asyncnoc.Instrument{tr}
			gotRes, err := asyncnoc.Run(tc.spec, cfg)
			if err != nil {
				t.Fatal(err)
			}

			if !bytes.Equal(manual.Bytes(), instrumented.Bytes()) {
				t.Errorf("instrumented trace differs from Build+Attach trace (%d vs %d bytes)",
					manual.Len(), instrumented.Len())
			}
			if tr.Sink == nil || tr.Sink.Events() == 0 {
				t.Error("TraceInstrument saw no events")
			}
			if gotRes != wantRes {
				t.Errorf("instrumented result diverged:\n got %+v\nwant %+v", gotRes, wantRes)
			}
			if n, err := asyncnoc.ValidateTrace(&instrumented); err != nil || n == 0 {
				t.Errorf("trace invalid after %d events: %v", n, err)
			}
		})
	}
}

// A VCD-instrumented run dumps its handshakes and still reports the
// per-level fanout counters every RunResult carries.
func TestVCDAndUtilizationInstruments(t *testing.T) {
	var vcdOut bytes.Buffer
	vi := &asyncnoc.VCDInstrument{Out: &vcdOut}
	cfg := shortCfg(8)
	cfg.Instruments = []asyncnoc.Instrument{vi}
	res, err := asyncnoc.Run(asyncnoc.OptHybridSpeculative(8), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if vcdOut.Len() == 0 {
		t.Error("VCDInstrument produced no dump")
	}
	if !strings.Contains(vcdOut.String(), "$enddefinitions") {
		t.Error("VCD dump missing header")
	}
	if res.Levels == 0 || res.ForwardsPerLevel[0] == 0 {
		t.Errorf("run counted no root forwards: levels %d, forwards %v", res.Levels, res.ForwardsPerLevel)
	}
}

// Instrumented runs must bypass the engine memo: two runs of an equal
// (spec, config) pair must each stream their own trace.
func TestEngineDoesNotMemoizeInstrumentedRuns(t *testing.T) {
	eng := asyncnoc.NewEngine(2)
	spec := asyncnoc.OptHybridSpeculative(8)
	var first, second bytes.Buffer
	for i, out := range []*bytes.Buffer{&first, &second} {
		cfg := shortCfg(8)
		cfg.Instruments = []asyncnoc.Instrument{&asyncnoc.TraceInstrument{Out: out}}
		if _, err := eng.Run(spec, cfg); err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
	}
	if first.Len() == 0 || second.Len() == 0 {
		t.Fatalf("memoized instrumented run skipped tracing (%d, %d bytes)", first.Len(), second.Len())
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Error("equal instrumented runs produced different traces")
	}
}

func TestConfigErrorAggregatesAllFields(t *testing.T) {
	bad := asyncnoc.RunConfig{
		LoadGFs: -1,
		Warmup:  -1,
		Measure: 0,
		Drain:   -1,
	}
	err := bad.Validate()
	if err == nil {
		t.Fatal("invalid config accepted")
	}
	var ce *asyncnoc.ConfigError
	if !errors.As(err, &ce) {
		t.Fatalf("Validate returned %T, want *ConfigError", err)
	}
	var fields []string
	for _, f := range ce.Fields {
		fields = append(fields, f.Field)
	}
	want := []string{"Bench", "LoadGFs", "Warmup", "Measure", "Drain"}
	if len(fields) != len(want) {
		t.Fatalf("ConfigError fields %v, want %v", fields, want)
	}
	for i := range want {
		if fields[i] != want[i] {
			t.Fatalf("ConfigError fields %v, want %v", fields, want)
		}
	}
	for _, f := range want {
		if !strings.Contains(err.Error(), f) {
			t.Errorf("error message %q missing field %s", err.Error(), f)
		}
	}
}

func TestDefaultRunConfig(t *testing.T) {
	cfg := asyncnoc.DefaultRunConfig(8)
	if err := cfg.Validate(); err != nil {
		t.Fatalf("DefaultRunConfig invalid: %v", err)
	}
	if cfg.Warmup != 320*asyncnoc.Nanosecond ||
		cfg.Measure != 3200*asyncnoc.Nanosecond ||
		cfg.Drain != 800*asyncnoc.Nanosecond {
		t.Errorf("windows %v/%v/%v, want the paper's 320/3200/800 ns", cfg.Warmup, cfg.Measure, cfg.Drain)
	}
	if cfg.LoadGFs != 0.4 || cfg.Seed != 1 {
		t.Errorf("load %v seed %d, want 0.4 and 1", cfg.LoadGFs, cfg.Seed)
	}
	if cfg.Bench == nil || cfg.Bench.Name() != "UniformRandom" {
		t.Errorf("benchmark %v, want UniformRandom", cfg.Bench)
	}
}

// A mesh is a network like a MoT die: a trace instrument observes its
// run without changing the result, and its forward events name the
// router's tile with heap and level 0. A VCD dump, whose wires are
// fanout-tree nodes, fails naming the mesh.
func TestMeshInstruments(t *testing.T) {
	spec := asyncnoc.MeshTree(2, 2)
	want, err := asyncnoc.RunMesh(spec, shortCfg(4))
	if err != nil {
		t.Fatal(err)
	}
	var trace bytes.Buffer
	cfg := shortCfg(4)
	cfg.Instruments = []asyncnoc.Instrument{&asyncnoc.TraceInstrument{Out: &trace}}
	got, err := asyncnoc.RunMesh(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("the trace instrument changed the result:\n%+v\n%+v", got, want)
	}
	if _, err := obs.ValidateTrace(bytes.NewReader(trace.Bytes())); err != nil {
		t.Fatalf("mesh trace fails the schema: %v", err)
	}
	forwards := 0
	for _, line := range strings.Split(trace.String(), "\n") {
		if strings.HasPrefix(line, `{"kind":"forward"`) {
			forwards++
			if !strings.Contains(line, `"heap":0,"level":0,`) {
				t.Fatalf("mesh forward event %s: want heap 0, level 0", line)
			}
		}
	}
	if forwards == 0 {
		t.Error("the mesh trace has no forward events")
	}
	cfg.Instruments = []asyncnoc.Instrument{&asyncnoc.VCDInstrument{Out: &bytes.Buffer{}}}
	if _, err := asyncnoc.RunMesh(spec, cfg); err == nil || !strings.Contains(err.Error(), spec.Name) {
		t.Errorf("VCD on a mesh: %v, want an error naming %s", err, spec.Name)
	}
}
