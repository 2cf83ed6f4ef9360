package main

import (
	"fmt"
	"math"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"

	"asyncnoc"
)

// Module names host time is attributed to; every span carries one.
const (
	modSim     = "sim"
	modNetwork = "network"
	modRouting = "routing"
	modCore    = "core"
	modChiplet = "chiplet"
	modMesh    = "mesh"
	modStore   = "store"
	modService = "service"
)

var modules = []string{modSim, modNetwork, modRouting, modCore, modChiplet, modMesh, modStore, modService}

// span is one timed call from the benchmark into a module's public
// function.
type span struct {
	module, name string
	dur          time.Duration
}

// pass collects what one execution of a workload's fixed operation set
// measured. Spans are recorded only when traced is set; operation
// latencies always are, since the end-to-end metrics need them.
type pass struct {
	traced bool
	spans  []span

	wall       time.Duration
	cpu        time.Duration // process CPU time (user+system) of the timed section
	allocBytes uint64
	ops        []float64 // wall-clock latency of each unit operation, ms
	opsCPU     []float64 // process CPU time of each unit operation, ms
	steps      []float64 // process CPU time of every timed call, in pass order, s
	results    []runRecord
	counts     map[string]float64 // deterministic counts, compared across passes
	layer      map[string]float64 // per-layer values measured in this pass
	attempted  int
	failures   []string
	setups     []float64            // seconds per set-up repetition
	samples    map[string][]float64 // per-metric latency samples (e.g. warm requests)
}

// runRecord is one simulated result that feeds the sim_* metrics and the
// determinism checks.
type runRecord struct {
	label string
	res   asyncnoc.RunResult
}

func newPass(traced bool) *pass {
	return &pass{traced: traced, counts: map[string]float64{}, layer: map[string]float64{}, samples: map[string][]float64{}}
}

// begin starts a span; the returned time is zero when the pass is not
// traced, so untraced passes pay no clock reads for spans.
func (p *pass) begin() time.Time {
	if !p.traced {
		return time.Time{}
	}
	return time.Now()
}

// end closes a span opened by begin.
func (p *pass) end(start time.Time, module, name string) {
	if p.traced {
		p.add(module, name, time.Since(start))
	}
}

// add records a span whose duration the caller measured anyway.
func (p *pass) add(module, name string, d time.Duration) {
	if p.traced {
		p.spans = append(p.spans, span{module: module, name: name, dur: d})
	}
}

// stamp is one reading of both host clocks.
type stamp struct {
	wall time.Time
	cpu  time.Duration
}

func now() stamp { return stamp{wall: time.Now(), cpu: cpuTime()} }

// since returns the wall-clock and process CPU time elapsed since s.
func (s stamp) since() (wall, cpu time.Duration) {
	return time.Since(s.wall), cpuTime() - s.cpu
}

// op records the host latency of one unit operation that started at s
// and returns its wall-clock duration.
func (p *pass) op(s stamp) time.Duration {
	wall, cpu := s.since()
	p.opTimes(wall, cpu)
	return wall
}

func (p *pass) opTimes(wall, cpu time.Duration) {
	p.ops = append(p.ops, ms(wall))
	p.opsCPU = append(p.opsCPU, ms(cpu))
	p.steps = append(p.steps, cpu.Seconds())
}

// step records the CPU time of a timed call that is not a unit operation.
func (p *pass) step(s stamp) {
	_, cpu := s.since()
	p.steps = append(p.steps, cpu.Seconds())
}

// fail records one failed operation.
func (p *pass) fail(format string, args ...any) {
	p.failures = append(p.failures, fmt.Sprintf(format, args...))
}

// spanSum returns the total duration of the spans matching module and
// (when non-empty) name.
func (p *pass) spanSum(module, name string) (time.Duration, int) {
	var d time.Duration
	n := 0
	for _, s := range p.spans {
		if s.module == module && (name == "" || s.name == name) {
			d += s.dur
			n++
		}
	}
	return d, n
}

// heapSampler tracks the peak live heap while a pass runs, sampling the
// runtime's gauge on its own goroutine.
type heapSampler struct {
	stop, done chan struct{}
	peak       uint64
}

// heapMetric is the heap marked live by the latest GC: unlike the bytes
// in heap objects it excludes garbage, so its peak does not depend on
// when collections happen to run.
const heapMetric = "/gc/heap/live:bytes"

func readMetric(name string) uint64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{}), peak: readMetric(heapMetric)}
	go func() {
		defer close(h.done)
		t := time.NewTicker(2 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-t.C:
				if v := readMetric(heapMetric); v > h.peak {
					h.peak = v
				}
			}
		}
	}()
	return h
}

// finish stops the sampler, waits for its goroutine and returns the peak.
func (h *heapSampler) finish() uint64 {
	close(h.stop)
	<-h.done
	if v := readMetric(heapMetric); v > h.peak {
		h.peak = v
	}
	return h.peak
}

// cpuTime returns the process's CPU time so far (user plus system).
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty slice).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	f := pos - float64(i)
	return s[i]*(1-f) + s[i+1]*f
}

// geomean returns the geometric mean of the positive values in xs.
func geomean(xs []float64) float64 {
	sum, n := 0.0, 0
	for _, x := range xs {
		if x > 0 {
			sum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

func frac(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
