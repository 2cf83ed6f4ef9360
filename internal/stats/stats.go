// Package stats provides the small set of descriptive statistics used by
// the measurement pipeline and the test suite.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Mean returns the arithmetic mean, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// StdDev returns the sample standard deviation (n-1 denominator), or 0
// when fewer than two samples exist.
func StdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(xs)-1))
}

// Percentile returns the p-th percentile (0..100) by linear interpolation
// between closest ranks. An empty slice yields 0 (no samples, no signal —
// matching Mean); p outside [0,100] panics, as it is always a caller bug.
//
// Each call copies and sorts the input; callers that need several
// percentiles of the same samples should build a Summary once instead.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return percentileSorted(sorted, p)
}

// percentileSorted is the closest-ranks interpolation shared by
// Percentile and Summary; xs must be non-empty and ascending.
func percentileSorted(xs []float64, p float64) float64 {
	if p < 0 || p > 100 {
		panic(fmt.Sprintf("stats: percentile %v outside [0,100]", p))
	}
	if len(xs) == 1 {
		return xs[0]
	}
	rank := p / 100 * float64(len(xs)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return xs[lo]
	}
	frac := rank - float64(lo)
	return xs[lo]*(1-frac) + xs[hi]*frac
}

// Summary is a sort-once descriptive summary of a sample set: the input
// is copied and sorted exactly once at construction, after which every
// percentile query is O(1). Mean and standard deviation are accumulated
// over the input in its original order, so they are bit-identical to
// Mean(xs) and StdDev(xs) on the unsorted slice.
//
// The zero value (and a nil *Summary) behaves as an empty sample set,
// yielding zeros everywhere — matching the empty-slice conventions of the
// package-level functions.
type Summary struct {
	sorted       []float64
	mean, stddev float64
}

// NewSummary builds a summary of xs. The input is not retained or
// mutated.
func NewSummary(xs []float64) *Summary {
	return NewSummaryOwned(append([]float64(nil), xs...))
}

// NewSummaryOwned builds a summary of xs without copying it: the
// summary takes ownership of xs and sorts it in place, so the caller
// must not use xs afterwards.
func NewSummaryOwned(xs []float64) *Summary {
	s := &Summary{sorted: xs, mean: Mean(xs), stddev: StdDev(xs)}
	sort.Float64s(s.sorted)
	return s
}

// Count returns the number of samples summarized.
func (s *Summary) Count() int {
	if s == nil {
		return 0
	}
	return len(s.sorted)
}

// Mean returns the arithmetic mean, or 0 for an empty summary.
func (s *Summary) Mean() float64 {
	if s == nil {
		return 0
	}
	return s.mean
}

// StdDev returns the sample standard deviation (n-1 denominator), or 0
// when fewer than two samples exist.
func (s *Summary) StdDev() float64 {
	if s == nil {
		return 0
	}
	return s.stddev
}

// Min returns the smallest sample, or 0 for an empty summary.
func (s *Summary) Min() float64 {
	if s.Count() == 0 {
		return 0
	}
	return s.sorted[0]
}

// Max returns the largest sample, or 0 for an empty summary.
func (s *Summary) Max() float64 {
	if s.Count() == 0 {
		return 0
	}
	return s.sorted[len(s.sorted)-1]
}

// Percentile returns the p-th percentile without re-sorting; it agrees
// exactly with the package-level Percentile on the same samples.
func (s *Summary) Percentile(p float64) float64 {
	if s.Count() == 0 {
		return 0
	}
	return percentileSorted(s.sorted, p)
}

// P50 returns the median.
func (s *Summary) P50() float64 { return s.Percentile(50) }

// P95 returns the 95th percentile.
func (s *Summary) P95() float64 { return s.Percentile(95) }

// P99 returns the 99th percentile.
func (s *Summary) P99() float64 { return s.Percentile(99) }

// Histogram buckets the summarized samples into `bins` equal-width bins,
// with the same conventions as the package-level Histogram.
func (s *Summary) Histogram(bins int) []Bin {
	if s == nil {
		return nil
	}
	return Histogram(s.sorted, bins)
}

// Median returns the 50th percentile.
func Median(xs []float64) float64 { return Percentile(xs, 50) }

// Min returns the smallest value, or 0 for an empty slice.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the largest value, or 0 for an empty slice.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Bin is one histogram bucket.
type Bin struct {
	// Lo and Hi bound the bucket [Lo, Hi).
	Lo, Hi float64
	// Count is the number of samples inside.
	Count int
}

// Histogram buckets the samples into `bins` equal-width bins spanning
// [min, max]. The last bin is closed on both ends. An empty slice yields
// nil; a non-positive bin count panics, as it is always a caller bug.
func Histogram(xs []float64, bins int) []Bin {
	if len(xs) == 0 {
		return nil
	}
	if bins < 1 {
		panic("stats: non-positive bin count")
	}
	lo, hi := Min(xs), Max(xs)
	if lo == hi {
		return []Bin{{Lo: lo, Hi: hi, Count: len(xs)}}
	}
	width := (hi - lo) / float64(bins)
	out := make([]Bin, bins)
	for i := range out {
		out[i].Lo = lo + float64(i)*width
		out[i].Hi = lo + float64(i+1)*width
	}
	for _, x := range xs {
		idx := int((x - lo) / width)
		if idx >= bins {
			idx = bins - 1
		}
		out[idx].Count++
	}
	return out
}

// FormatHistogram renders an ASCII histogram with proportional bars.
func FormatHistogram(bins []Bin, barWidth int) string {
	maxCount := 0
	for _, b := range bins {
		if b.Count > maxCount {
			maxCount = b.Count
		}
	}
	var sb strings.Builder
	for _, b := range bins {
		n := 0
		if maxCount > 0 {
			// Float math: b.Count * barWidth overflows int for the
			// sample counts of long soak runs, turning the bar length
			// negative (and strings.Repeat panics on negative counts).
			n = int(float64(b.Count) * float64(barWidth) / float64(maxCount))
		}
		fmt.Fprintf(&sb, "%8.2f-%-8.2f %6d %s\n", b.Lo, b.Hi, b.Count, strings.Repeat("#", n))
	}
	return sb.String()
}
