package experiments

import (
	"fmt"

	"asyncnoc/internal/core"
	"asyncnoc/internal/fault"
	"asyncnoc/internal/network"
	"asyncnoc/internal/sim"
	"asyncnoc/internal/traffic"
)

// DefaultFaultRates is the fault-rate grid of the robustness sweep: from
// one fault per hundred thousand traversals up to one per thousand.
var DefaultFaultRates = []float64{1e-5, 1e-4, 1e-3}

// FaultSweep measures delivery robustness under transient link faults:
// the hybrid speculative network and the serial baseline run the
// Multicast10 benchmark at a fixed moderate load while every channel
// corrupts and drops flits at the given per-traversal rate, recovered by
// the network interfaces' CRC-checked retransmission protocol. The table
// demonstrates the headline property: 100% packet delivery as long as
// losses stay within the retry budget, at a quantified latency and
// retransmission cost.
func (s *Suite) FaultSweep(rates []float64) (*Table, error) {
	if len(rates) == 0 {
		rates = DefaultFaultRates
	}
	specs := []network.Spec{core.BasicHybridSpeculative(s.N), core.Baseline(s.N)}
	bench := traffic.Multicast{N: s.N, Frac: 0.10}
	var jobs []core.Job
	for _, spec := range specs {
		for _, rate := range rates {
			sp := spec
			sp.Faults = fault.Config{Seed: s.Seed, CorruptRate: rate, DropRate: rate}
			jobs = append(jobs, core.Job{Spec: sp, Cfg: core.RunConfig{
				Bench:   bench,
				LoadGFs: 0.3,
				Seed:    s.Seed,
				Warmup:  s.LatWarmup,
				Measure: s.LatMeasure,
				// The drain must outlast the full retransmission ladder
				// (three attempts under capped exponential backoff) for
				// packets faulted at the window's edge.
				Drain: s.LatDrain + 1500*sim.Nanosecond,
			}})
		}
	}
	results, err := s.Engine().RunJobs(jobs)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title: "Fault sweep: delivery under transient link faults (Multicast10, 0.3 GF/s)",
		Columns: []string{"network", "fault rate", "injected", "retries", "recovered",
			"lost", "completion", "avg lat (ns)"},
		Notes: []string{
			"per-traversal corrupt and drop rate applied on every channel; CRC-checked NI retransmission",
			fmt.Sprintf("retry budget %d attempts, base timeout %d ps, backoff capped at %d ps",
				fault.DefaultMaxRetries, fault.DefaultRetryTimeoutPs, fault.DefaultMaxBackoffPs),
		},
	}
	for i, r := range results {
		t.Rows = append(t.Rows, []string{
			r.Network,
			fmt.Sprintf("%.0e", rates[i%len(rates)]),
			fmt.Sprintf("%d", r.FaultsInjected),
			fmt.Sprintf("%d", r.Retries),
			fmt.Sprintf("%d", r.RecoveredFlits),
			fmt.Sprintf("%d", r.LostFlits),
			fmt.Sprintf("%.4f", r.Completion),
			fmt.Sprintf("%.2f", r.AvgLatencyNs),
		})
	}
	return t, nil
}
