package main

import (
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// parseInputs must read allocs/op whether or not a benchmark reports
// custom metrics between ns/op and the -benchmem columns; a missed
// allocs/op column would read as zero and pass the zero-alloc gate.
func TestParseInputsCustomMetrics(t *testing.T) {
	out := `goos: linux
BenchmarkKernelCancel-2   	100000000	        11.76 ns/op	       0 B/op	       0 allocs/op
BenchmarkNITransaction-2   	  189435	      8493 ns/op	       163.0 events/op	        52.10 ns/event	      16 B/op	       2 allocs/op
BenchmarkFig6aLatency   	       1	17500000000 ns/op
PASS
`
	path := filepath.Join(t.TempDir(), "bench.txt")
	if err := os.WriteFile(path, []byte(out), 0o644); err != nil {
		t.Fatal(err)
	}
	samples, err := parseInputs([]string{path})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]sample{
		"BenchmarkKernelCancel":  {ns: []float64{11.76}, allocs: []float64{0}},
		"BenchmarkNITransaction": {ns: []float64{8493}, allocs: []float64{2}},
		"BenchmarkFig6aLatency":  {ns: []float64{17500000000}, allocs: []float64{0}},
	}
	if len(samples) != len(want) {
		t.Fatalf("parsed %d benchmarks, want %d", len(samples), len(want))
	}
	for name, w := range want {
		got := samples[name]
		if got == nil || !slices.Equal(got.ns, w.ns) || !slices.Equal(got.allocs, w.allocs) {
			t.Errorf("%s: parsed %+v, want %+v", name, got, w)
		}
	}
}

// A -count run is judged by its median, so one slow sample does not
// fail the gate, and a benchmark with fewer samples than -count fails
// whatever its reading.
func TestMedianGate(t *testing.T) {
	base := &Baseline{Benchmarks: map[string]Entry{
		"BenchmarkKernelScheduleDispatch": {NsPerOp: 22},
		"BenchmarkFig6aLatency":           {NsPerOp: 1e9, AllocsPerOp: 1000},
	}}
	noisy := map[string]*sample{
		"BenchmarkKernelScheduleDispatch": {ns: []float64{21, 22, 26.3, 21.5, 22.5}, allocs: make([]float64, 5)},
	}
	if checked, failed := printDeltaTable(base, noisy, 0.10, 0.01, 5); checked != 1 || failed != 0 {
		t.Errorf("median of a noisy -count 5 run: checked %d, failed %d; want 1, 0", checked, failed)
	}
	single := map[string]*sample{
		"BenchmarkKernelScheduleDispatch": {ns: []float64{21}, allocs: []float64{0}},
	}
	if _, failed := printDeltaTable(base, single, 0.10, 0.01, 5); failed != 1 {
		t.Errorf("one sample under -count 5: failed %d, want 1", failed)
	}
	allocs := map[string]*sample{
		"BenchmarkFig6aLatency": {ns: []float64{1e9, 1e9}, allocs: []float64{1000, 1030}},
	}
	if _, failed := printDeltaTable(base, allocs, 0.10, 0.01, 1); failed != 1 {
		t.Errorf("median allocs 1015 against 1000 +1%%: failed %d, want 1", failed)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median(3,1,2) = %v", got)
	}
}
