package chiplet

import (
	"fmt"

	"asyncnoc/internal/packet"
	"asyncnoc/internal/rng"
	"asyncnoc/internal/traffic"
)

// The hierarchical benchmarks mirror the single-die suite but address
// the full dies x dieN destination space, which exceeds one DestSet
// mask. They implement traffic.WideBenchmark: NextWideDests fills one
// local destination mask per die; NextDests panics, because a flat
// mask cannot express a composed network's destinations.

// MaxMulticastDies bounds how many dies one multicast packet addresses:
// the hierarchical analogue of the paper's "small local regions" —
// multicast regions span a handful of dies, not the whole interposer.
const MaxMulticastDies = 4

func panicFlat(name string) packet.DestSet {
	panic(fmt.Sprintf("chiplet: benchmark %s addresses a composed network; use NextWideDests", name))
}

// UniformRandom sends each packet to one uniformly random destination
// anywhere in the composed system.
type UniformRandom struct {
	P    *Params
	DieN int
}

// Name implements traffic.Benchmark.
func (UniformRandom) Name() string { return "UniformRandom" }

// GoString renders the benchmark by value, the parameters behind P
// included, so equal benchmarks print alike whatever P's address
// (core.JobKey hashes this form).
func (b UniformRandom) GoString() string {
	return fmt.Sprintf("chiplet.UniformRandom{P:%s, DieN:%d}", paramsGoString(b.P), b.DieN)
}

// NextDests implements traffic.Benchmark by panicking; the destination
// space does not fit one mask.
func (b UniformRandom) NextDests(int, *rng.Source) packet.DestSet { return panicFlat(b.Name()) }

// NextWideDests implements traffic.WideBenchmark.
func (b UniformRandom) NextWideDests(_ int, byDie []packet.DestSet, r *rng.Source) {
	for i := range byDie {
		byDie[i] = 0
	}
	d := r.Intn(b.P.Dies() * b.DieN)
	byDie[d/b.DieN] = packet.Dest(d % b.DieN)
}

// Multicast injects multicast packets at rate Frac — a destination
// region of 1..MaxMulticastDies dies, each receiving a random local
// subset — and uniform-random unicast otherwise. Frac 0.05 and 0.10
// are the hierarchical Multicast5 and Multicast10.
type Multicast struct {
	P    *Params
	DieN int
	Frac float64
}

// Name implements traffic.Benchmark.
func (b Multicast) Name() string { return fmt.Sprintf("Multicast%d", int(b.Frac*100+0.5)) }

// GoString renders the benchmark by value (see UniformRandom.GoString).
func (b Multicast) GoString() string {
	return fmt.Sprintf("chiplet.Multicast{P:%s, DieN:%d, Frac:%#v}", paramsGoString(b.P), b.DieN, b.Frac)
}

// paramsGoString renders composition parameters by value.
func paramsGoString(p *Params) string {
	if p == nil {
		return "nil"
	}
	return fmt.Sprintf("&%#v", *p)
}

// NextDests implements traffic.Benchmark by panicking.
func (b Multicast) NextDests(int, *rng.Source) packet.DestSet { return panicFlat(b.Name()) }

// NextWideDests implements traffic.WideBenchmark.
func (b Multicast) NextWideDests(_ int, byDie []packet.DestSet, r *rng.Source) {
	for i := range byDie {
		byDie[i] = 0
	}
	if !r.Bool(b.Frac) {
		d := r.Intn(b.P.Dies() * b.DieN)
		byDie[d/b.DieN] = packet.Dest(d % b.DieN)
		return
	}
	maxDies := b.P.Dies()
	if maxDies > MaxMulticastDies {
		maxDies = MaxMulticastDies
	}
	for {
		k := 1 + r.Intn(maxDies)
		// The die order is drawn in place: byDie holds the permutation
		// until its first k entries are read out.
		rng.Perm(r, byDie)
		var order [MaxMulticastDies]int
		for i := range order[:k] {
			order[i] = int(byDie[i])
		}
		total := 0
		for i := range byDie {
			byDie[i] = 0
		}
		for _, die := range order[:k] {
			s := localSubset(b.DieN, r)
			byDie[die] = s
			total += s.Count()
		}
		if total >= 2 {
			return
		}
	}
}

// localSubset draws a non-empty local destination mask: each local
// destination joins with probability 1/2, redrawn until at least one
// is in.
func localSubset(n int, r *rng.Source) packet.DestSet {
	for {
		var s packet.DestSet
		for d := 0; d < n; d++ {
			if r.Bool(0.5) {
				s = s.Add(d)
			}
		}
		if !s.Empty() {
			return s
		}
	}
}

// ByName resolves a hierarchical benchmark reporting name for a
// composition of dieN-radix dies.
func ByName(p *Params, dieN int, name string) (traffic.WideBenchmark, error) {
	switch name {
	case "UniformRandom":
		return UniformRandom{P: p, DieN: dieN}, nil
	case "Multicast5":
		return Multicast{P: p, DieN: dieN, Frac: 0.05}, nil
	case "Multicast10":
		return Multicast{P: p, DieN: dieN, Frac: 0.10}, nil
	}
	return nil, fmt.Errorf("chiplet: unknown benchmark %q (have UniformRandom, Multicast5, Multicast10)", name)
}
