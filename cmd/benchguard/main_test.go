package main

import (
	"os"
	"path/filepath"
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
		"BenchmarkKernelCancel":  {ns: 11.76, allocs: 0, count: 1},
		"BenchmarkNITransaction": {ns: 8493, allocs: 2, count: 1},
		"BenchmarkFig6aLatency":  {ns: 17500000000, allocs: 0, count: 1},
	}
	if len(samples) != len(want) {
		t.Fatalf("parsed %d benchmarks, want %d", len(samples), len(want))
	}
	for name, w := range want {
		got := samples[name]
		if got == nil || *got != w {
			t.Errorf("%s: parsed %+v, want %+v", name, got, w)
		}
	}
}
