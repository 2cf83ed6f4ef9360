package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"asyncnoc/internal/core"
	"asyncnoc/internal/fault"
	"asyncnoc/internal/network"
	"asyncnoc/internal/sim"
	"asyncnoc/internal/traffic"
)

func testCfgN(n int) core.RunConfig {
	return core.RunConfig{
		Bench: traffic.UniformRandom{N: n}, LoadGFs: 0.3, Seed: 11,
		Warmup:  50 * sim.Nanosecond,
		Measure: 150 * sim.Nanosecond,
		Drain:   150 * sim.Nanosecond,
	}
}

// attachTrace chains a JSONL sink over w onto nw through the trace
// instrument and returns the sink.
func attachTrace(t *testing.T, nw *network.Network, w io.Writer) *TraceSink {
	t.Helper()
	ti := &TraceInstrument{Out: w}
	if err := ti.Attach(nw); err != nil {
		t.Fatal(err)
	}
	return ti.Sink
}

// traceRun builds, traces, and runs one simulation, returning the JSONL.
func traceRun(t *testing.T, spec network.Spec, cfg core.RunConfig) []byte {
	t.Helper()
	nw, err := core.Build(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	sink := attachTrace(t, nw, &buf)
	nw.Sched.RunUntil(cfg.Warmup + cfg.Measure + cfg.Drain)
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestTraceDeterministicAndValid(t *testing.T) {
	spec := core.OptHybridSpeculative(8)
	a := traceRun(t, spec, testCfgN(8))
	b := traceRun(t, spec, testCfgN(8))
	if !bytes.Equal(a, b) {
		t.Fatal("trace of identical (spec, config) not byte-identical")
	}
	n, err := ValidateTrace(bytes.NewReader(a))
	if err != nil {
		t.Fatalf("trace invalid: %v", err)
	}
	if n == 0 {
		t.Fatal("empty trace")
	}
	// A speculative network under load must show the full fault-free
	// lifecycle, including throttled speculative copies.
	for _, kind := range []string{`"inject"`, `"forward"`, `"throttle"`, `"deliver"`} {
		if !bytes.Contains(a, []byte(kind)) {
			t.Errorf("trace has no %s events", kind)
		}
	}
}

func TestTraceCoversFaultLifecycle(t *testing.T) {
	spec := core.OptHybridSpeculative(8)
	// Drop hard enough that the retry budget runs out for some packet,
	// with timeouts short enough that write-offs land inside the run.
	spec.Faults = fault.Config{
		Seed: 3, DropRate: 0.3, MaxRetries: 1,
		RetryTimeoutPs: 20_000, MaxBackoffPs: 40_000,
	}
	cfg := testCfgN(8)
	out := traceRun(t, spec, cfg)
	if _, err := ValidateTrace(bytes.NewReader(out)); err != nil {
		t.Fatalf("fault trace invalid: %v", err)
	}
	for _, kind := range []string{`"retransmit"`, `"drop"`} {
		if !bytes.Contains(out, []byte(kind)) {
			t.Errorf("fault trace has no %s events", kind)
		}
	}
}

func TestTracePreservesChainedObserver(t *testing.T) {
	nw, err := core.Build(core.OptHybridSpeculative(8), testCfgN(8))
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	nw.Trace = func(network.TraceEvent) { seen++ }
	var buf bytes.Buffer
	sink := attachTrace(t, nw, &buf)
	nw.Sched.RunUntil(10 * sim.Nanosecond)
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	if seen == 0 || int64(seen) != sink.Events() {
		t.Errorf("chained observer saw %d events, sink %d", seen, sink.Events())
	}
}

func TestValidateTraceRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"not json":        "garbage\n",
		"unknown kind":    `{"kind":"warp","t":1,"pkt":1,"src":0}` + "\n",
		"missing field":   `{"kind":"deliver","t":1,"pkt":1,"src":0,"flit":0,"attempt":0}` + "\n",
		"extra field":     `{"kind":"drop","t":1,"pkt":1,"src":0,"attempt":1,"bogus":2}` + "\n",
		"float timestamp": `{"kind":"drop","t":1.5,"pkt":1,"src":0,"attempt":1}` + "\n",
		"negative time":   `{"kind":"drop","t":-1,"pkt":1,"src":0,"attempt":1}` + "\n",
		"empty dests":     `{"kind":"inject","t":1,"pkt":1,"src":0,"dests":[]}` + "\n",
		"time goes back": `{"kind":"drop","t":5,"pkt":1,"src":0,"attempt":1}` + "\n" +
			`{"kind":"drop","t":4,"pkt":1,"src":0,"attempt":1}` + "\n",
	}
	for name, in := range cases {
		if _, err := ValidateTrace(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if n, err := ValidateTrace(strings.NewReader("")); n != 0 || err != nil {
		t.Errorf("empty stream: n=%d err=%v", n, err)
	}
}

// errWriter fails every write after the first failAfter bytes.
type errWriter struct{ n, failAfter int }

func (w *errWriter) Write(p []byte) (int, error) {
	w.n += len(p)
	if w.n > w.failAfter {
		return 0, errors.New("disk full")
	}
	return len(p), nil
}

func TestTraceSinkLatchesWriteError(t *testing.T) {
	nw, err := core.Build(core.OptHybridSpeculative(8), testCfgN(8))
	if err != nil {
		t.Fatal(err)
	}
	ti := &TraceInstrument{Out: &errWriter{failAfter: 256}}
	if err := ti.Attach(nw); err != nil {
		t.Fatal(err)
	}
	nw.Sched.RunUntil(100 * sim.Nanosecond)
	if ti.Finish() == nil {
		t.Fatal("write error swallowed")
	}
}

func TestMonitorServesVarsAndPprof(t *testing.T) {
	eng := core.NewEngine(2)
	prog := NewProgress(4)
	prog.JobDone()
	m, err := StartMonitor("127.0.0.1:0", eng, prog)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if _, err := eng.Run(core.OptNonSpeculative(4), testCfgN(4)); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get("http://" + m.Addr() + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var vars map[string]json.RawMessage
	if err := json.Unmarshal(body, &vars); err != nil {
		t.Fatalf("/debug/vars not JSON: %v", err)
	}
	var engVars struct {
		Workers   int     `json:"workers"`
		Completed uint64  `json:"completed"`
		HitRate   float64 `json:"memo_hit_rate"`
	}
	if err := json.Unmarshal(vars["asyncnoc.engine"], &engVars); err != nil {
		t.Fatalf("engine var malformed: %v", err)
	}
	if engVars.Workers != 2 || engVars.Completed != 1 {
		t.Errorf("engine vars %+v", engVars)
	}
	var progVars struct {
		Done  int64 `json:"done"`
		Total int64 `json:"total"`
	}
	if err := json.Unmarshal(vars["asyncnoc.progress"], &progVars); err != nil {
		t.Fatalf("progress var malformed: %v", err)
	}
	if progVars.Done != 1 || progVars.Total != 4 {
		t.Errorf("progress vars %+v", progVars)
	}

	resp, err = http.Get("http://" + m.Addr() + "/debug/pprof/heap?debug=1")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("pprof heap status %d", resp.StatusCode)
	}
}

func TestEngineSnapshotCounters(t *testing.T) {
	eng := core.NewEngine(1)
	spec, cfg := core.OptNonSpeculative(4), testCfgN(4)
	if _, err := eng.Run(spec, cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(spec, cfg); err != nil { // memo hit
		t.Fatal(err)
	}
	s := eng.Snapshot()
	if s.Started != 1 || s.Completed != 1 || s.InFlight() != 0 {
		t.Errorf("snapshot %+v", s)
	}
	if s.Hits != 1 || s.Misses != 1 || s.HitRate() != 0.5 {
		t.Errorf("memo counters %+v", s)
	}
}

func TestProfileHelpers(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	stop, err := StartCPUProfile(cpu)
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	heap := filepath.Join(dir, "heap.pprof")
	if err := WriteHeapProfile(heap); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpu, heap} {
		if st, err := os.Stat(p); err != nil || st.Size() == 0 {
			t.Errorf("profile %s missing or empty", p)
		}
	}
}
