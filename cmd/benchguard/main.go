// Command benchguard gates benchmark regressions against a checked-in
// baseline. It parses `go test -bench -benchmem` output (files given as
// arguments, or stdin) and compares every benchmark that appears in the
// baseline:
//
//   - wall clock: ns/op above baseline by more than -tolerance fails;
//   - allocations: a zero-alloc baseline fails on any allocation at all
//     (the kernel's steady-state guarantee), a non-zero baseline fails
//     above -alloc-tolerance (absorbing runtime noise in end-to-end runs).
//
// Each benchmark is judged by the median of its samples, so one
// descheduled sample of a `go test -count N` run does not decide the
// gate; every row prints the sample count and the ns/op range. -count N
// requires at least N samples of every checked benchmark (fewer fail),
// so a single reading can never stand in for a median. Benchmarks
// missing from the input are reported but do not fail the gate, so
// partial runs can be checked; an input matching nothing fails. -update
// rewrites the baseline with the observed medians instead of checking.
//
// -json PATH additionally writes the observed medians as
// machine-readable JSON, pass or fail.
//
// Machines differ, so the committed baseline is a ratchet for one
// reference machine (CI); after a legitimate improvement, refresh it with:
//
//	make bench-smoke BENCHGUARD_FLAGS=-update
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"runtime"
	"slices"
	"sort"
	"strconv"
)

// Entry is one benchmark's baseline numbers.
type Entry struct {
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// Baseline is the checked-in gate file. PrePRReference preserves
// historical numbers for documentation; it is never checked against.
type Baseline struct {
	Note           string           `json:"note,omitempty"`
	Benchmarks     map[string]Entry `json:"benchmarks"`
	PrePRReference map[string]Entry `json:"pre_pr_reference,omitempty"`
}

// sample collects the observed runs of one benchmark.
type sample struct {
	ns, allocs []float64
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count); xs is not modified.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func (s *sample) nsPerOp() float64     { return median(s.ns) }
func (s *sample) allocsPerOp() float64 { return median(s.allocs) }

// spread renders the sample count and the ns/op range.
func (s *sample) spread() string {
	lo, hi := slices.Min(s.ns), slices.Max(s.ns)
	return fmt.Sprintf("n=%d %.4g..%.4g", len(s.ns), lo, hi)
}

// benchLine matches one result line; the -N GOMAXPROCS suffix is folded
// into the name match so baselines are machine-width independent. Custom
// b.ReportMetric units (e.g. events/op) print between ns/op and the
// -benchmem columns, so allocs/op is found anywhere after ns/op.
var benchLine = regexp.MustCompile(
	`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([0-9.e+]+) ns/op(?:.*\s([0-9.e+]+) allocs/op)?`)

func main() {
	baselinePath := flag.String("baseline", "bench/baseline.json", "baseline JSON path")
	tolerance := flag.Float64("tolerance", 0.10, "allowed relative ns/op regression")
	allocTol := flag.Float64("alloc-tolerance", 0.01, "allowed relative allocs/op regression (non-zero baselines)")
	update := flag.Bool("update", false, "rewrite the baseline with observed numbers instead of checking")
	jsonPath := flag.String("json", "", "also write observed numbers as JSON to this path")
	count := flag.Int("count", 1, "minimum samples per checked benchmark (judged by their median)")
	flag.Parse()

	samples, err := parseInputs(flag.Args())
	if err != nil {
		fatal(err)
	}
	if len(samples) == 0 {
		fatal(fmt.Errorf("no benchmark results found in input"))
	}

	base, err := readBaseline(*baselinePath)
	if err != nil {
		fatal(err)
	}
	if *update {
		printDeltaTable(base, samples, *tolerance, *allocTol, *count)
		if err := writeBaseline(*baselinePath, base, samples); err != nil {
			fatal(err)
		}
		if err := writeJSON(*jsonPath, samples); err != nil {
			fatal(err)
		}
		fmt.Printf("benchguard: baseline %s updated with %d benchmarks\n", *baselinePath, len(samples))
		return
	}

	checked, failed := printDeltaTable(base, samples, *tolerance, *allocTol, *count)
	if err := writeJSON(*jsonPath, samples); err != nil {
		fatal(err)
	}
	if checked == 0 {
		fatal(fmt.Errorf("no input benchmark matched the baseline"))
	}
	if failed > 0 {
		fatal(fmt.Errorf("%d benchmark(s) regressed", failed))
	}
}

// writeJSON emits the observed numbers machine-readably; path=="" is a
// no-op so callers can pass the flag through unconditionally.
func writeJSON(path string, samples map[string]*sample) error {
	if path == "" {
		return nil
	}
	type obs struct {
		NsPerOp     float64 `json:"ns_per_op"`
		AllocsPerOp float64 `json:"allocs_per_op"`
		Samples     int     `json:"samples"`
	}
	out := struct {
		NumCPU     int            `json:"num_cpu"`
		GoMaxProcs int            `json:"gomaxprocs"`
		Benchmarks map[string]obs `json:"benchmarks"`
	}{
		NumCPU:     runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Benchmarks: make(map[string]obs, len(samples)),
	}
	for name, s := range samples {
		out.Benchmarks[name] = obs{
			NsPerOp:     s.nsPerOp(),
			AllocsPerOp: s.allocsPerOp(),
			Samples:     len(s.ns),
		}
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// printDeltaTable reports every baseline benchmark as one row — old vs
// observed median vs the gate threshold, for both ns/op and allocs/op,
// and the samples behind the median — and returns how many were
// checked and how many regressed. A benchmark with fewer than count
// samples fails. It prints on pass, fail, and update alike, so
// improvements are as visible as regressions.
func printDeltaTable(base *Baseline, samples map[string]*sample, tolerance, allocTol float64, count int) (checked, failed int) {
	names := make([]string, 0, len(base.Benchmarks))
	for name := range base.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Printf("benchguard: %-38s %32s  %32s  %-24s %s\n", "benchmark",
		"ns/op old -> new (limit)", "allocs/op old -> new (limit)", "samples ns/op range", "status")
	for _, name := range names {
		want := base.Benchmarks[name]
		s, ok := samples[name]
		if !ok {
			fmt.Printf("benchguard: %-38s not in input (skipped)\n", name)
			continue
		}
		checked++
		ns := s.nsPerOp()
		allocs := s.allocsPerOp()
		nsLimit := want.NsPerOp * (1 + tolerance)
		// A zero-alloc baseline is exact: any allocation at all fails.
		allocLimit := want.AllocsPerOp * (1 + allocTol)
		status := "ok"
		switch {
		case len(s.ns) < count:
			status = fmt.Sprintf("FAIL %d sample(s), -count wants %d", len(s.ns), count)
			failed++
		case ns > nsLimit:
			status = "FAIL wall clock"
			failed++
		case want.AllocsPerOp == 0 && allocs > 0:
			status = "FAIL allocs (baseline is zero-alloc)"
			failed++
		case want.AllocsPerOp > 0 && allocs > allocLimit:
			status = "FAIL allocs"
			failed++
		}
		fmt.Printf("benchguard: %-38s %32s  %32s  %-24s %s\n", name,
			deltaCell(want.NsPerOp, ns, nsLimit),
			deltaCell(want.AllocsPerOp, allocs, allocLimit),
			s.spread(), status)
	}
	return checked, failed
}

// deltaCell renders "old -> new (limit) +x%" for one metric.
func deltaCell(old, got, limit float64) string {
	cell := fmt.Sprintf("%.4g -> %.4g (%.4g)", old, got, limit)
	if old > 0 {
		cell += fmt.Sprintf(" %+.1f%%", (got-old)/old*100)
	}
	return cell
}

func parseInputs(paths []string) (map[string]*sample, error) {
	samples := make(map[string]*sample)
	scan := func(r io.Reader) error {
		sc := bufio.NewScanner(r)
		sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
		for sc.Scan() {
			m := benchLine.FindStringSubmatch(sc.Text())
			if m == nil {
				continue
			}
			ns, err := strconv.ParseFloat(m[2], 64)
			if err != nil {
				continue
			}
			var allocs float64
			if m[3] != "" {
				allocs, _ = strconv.ParseFloat(m[3], 64)
			}
			s := samples[m[1]]
			if s == nil {
				s = &sample{}
				samples[m[1]] = s
			}
			s.ns = append(s.ns, ns)
			s.allocs = append(s.allocs, allocs)
		}
		return sc.Err()
	}
	if len(paths) == 0 {
		return samples, scan(os.Stdin)
	}
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			return nil, err
		}
		err = scan(f)
		f.Close()
		if err != nil {
			return nil, err
		}
	}
	return samples, nil
}

func readBaseline(path string) (*Baseline, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return &Baseline{Benchmarks: map[string]Entry{}}, nil
	}
	if err != nil {
		return nil, err
	}
	var b Baseline
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if b.Benchmarks == nil {
		b.Benchmarks = map[string]Entry{}
	}
	return &b, nil
}

func writeBaseline(path string, base *Baseline, samples map[string]*sample) error {
	for name, s := range samples {
		base.Benchmarks[name] = Entry{
			NsPerOp:     s.nsPerOp(),
			AllocsPerOp: s.allocsPerOp(),
		}
	}
	data, err := json.MarshalIndent(base, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchguard:", err)
	os.Exit(1)
}
