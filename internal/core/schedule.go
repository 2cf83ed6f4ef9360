package core

import (
	"context"
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"

	"asyncnoc/internal/network"
	"asyncnoc/internal/packet"
	"asyncnoc/internal/sim"
)

// Injection is one entry of an explicit traffic schedule: at time At,
// source Src injects a packet to Dests. Schedules replay recorded or
// hand-crafted workloads instead of the synthetic Poisson benchmarks.
type Injection struct {
	At    sim.Time
	Src   int
	Dests packet.DestSet
}

// Schedule is a time-ordered list of injections.
type Schedule []Injection

// Validate checks the schedule against a network size.
func (s Schedule) Validate(n int) error {
	if len(s) == 0 {
		return fmt.Errorf("core: empty schedule")
	}
	for i, inj := range s {
		if inj.At < 0 {
			return fmt.Errorf("core: schedule[%d] at negative time %v", i, inj.At)
		}
		if inj.Src < 0 || inj.Src >= n {
			return fmt.Errorf("core: schedule[%d] source %d out of [0,%d)", i, inj.Src, n)
		}
		if inj.Dests.Empty() {
			return fmt.Errorf("core: schedule[%d] has no destinations", i)
		}
		if extra := inj.Dests &^ packet.Range(0, n); !extra.Empty() {
			return fmt.Errorf("core: schedule[%d] destinations %v out of range", i, extra)
		}
	}
	return nil
}

// ParseSchedule reads the CSV workload format, one injection per line
// (time_ns,src,dest[,dest...]), and validates it against a network of n
// terminals. name labels error messages (typically the file path): every
// malformed row is reported with its position, so truncated or corrupt
// recordings fail with a usable message instead of a downstream panic or
// a silently empty destination set. Destination cells go through
// packet.ParseDestSet, so duplicates in a row are rejected rather than
// silently deduplicated. A schedule it accepts passes Validate(n).
func ParseSchedule(r io.Reader, name string, n int) (Schedule, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1 // variable destination counts
	rows, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("%s: malformed CSV: %w", name, err)
	}
	var sched Schedule
	for i, row := range rows {
		if len(row) < 3 {
			return nil, fmt.Errorf("%s:%d: need time_ns,src,dest[,dest...], got %d field(s) (truncated row?)",
				name, i+1, len(row))
		}
		tns, err := strconv.ParseFloat(row[0], 64)
		if err != nil {
			return nil, fmt.Errorf("%s:%d: bad time %q: %v", name, i+1, row[0], err)
		}
		if tns < 0 {
			return nil, fmt.Errorf("%s:%d: negative time %v ns", name, i+1, tns)
		}
		if !(tns*1000 < math.MaxInt64) { // NaN, Inf, or past the simulated clock's range
			return nil, fmt.Errorf("%s:%d: time %v ns out of range", name, i+1, tns)
		}
		src, err := strconv.Atoi(row[1])
		if err != nil {
			return nil, fmt.Errorf("%s:%d: bad source %q: %v", name, i+1, row[1], err)
		}
		if src < 0 || src >= n {
			return nil, fmt.Errorf("%s:%d: source %d outside [0,%d)", name, i+1, src, n)
		}
		dests, err := packet.ParseDestSet(strings.Join(row[2:], ","), n)
		if err != nil {
			return nil, fmt.Errorf("%s:%d: %v", name, i+1, err)
		}
		sched = append(sched, Injection{At: sim.Time(tns * 1000), Src: src, Dests: dests})
	}
	if len(sched) == 0 {
		return nil, fmt.Errorf("%s: empty schedule", name)
	}
	return sched, nil
}

// End returns the latest injection time.
func (s Schedule) End() sim.Time {
	var end sim.Time
	for _, inj := range s {
		if inj.At > end {
			end = inj.At
		}
	}
	return end
}

// replayer injects schedule entries through a network; the event
// payload is the entry's index in the time-ordered schedule.
type replayer struct {
	nw      *network.Network
	ordered Schedule
}

// OnEvent implements sim.Handler.
func (rp *replayer) OnEvent(arg int64) {
	inj := rp.ordered[arg]
	if _, err := rp.nw.Inject(inj.Src, inj.Dests); err != nil {
		panic(err) // schedule validated by RunSchedule
	}
}

// RunSchedule replays an explicit schedule through a MoT die or a 2D
// mesh and measures every injected packet (the window spans the whole
// schedule). Drain bounds the extra simulated time after the last
// injection; the run also ends early once the event queue empties.
// Protocol violations surface as *ProtocolError and a wedged replay as
// *DeadlockError. A chiplet composition is rejected: schedule entries
// address destinations with one flat mask, which cannot express a
// composed network's hierarchical space.
func RunSchedule(spec network.Spec, sched Schedule, drain sim.Time) (res RunResult, err error) {
	defer RecoverViolations(spec.Name, &err)
	if spec.Chiplet != nil {
		return RunResult{}, fmt.Errorf("core: schedule replay does not support chiplet composition %s", spec.Name)
	}
	if drain < 0 {
		return RunResult{}, fmt.Errorf("core: negative drain %v", drain)
	}
	// The window spans the whole schedule: every scheduled packet is
	// measured.
	var r simRun
	if err := r.build(spec, RunConfig{Measure: sim.AddSat(sched.End(), drain)}, nil); err != nil {
		return RunResult{}, err
	}
	nw := r.nw
	if err := sched.Validate(nw.Spec.Terminals()); err != nil {
		return RunResult{}, err
	}
	nw.Rec.Reserve(len(sched))
	ordered := append(Schedule(nil), sched...)
	sort.SliceStable(ordered, func(i, j int) bool { return ordered[i].At < ordered[j].At })
	rp := &replayer{nw: nw, ordered: ordered}
	for i, inj := range ordered {
		nw.SchedFor(inj.Src).At(inj.At, rp, int64(i))
	}
	if _, err := r.run(context.Background(), nil); err != nil {
		return RunResult{}, err
	}
	return collect(nw, "schedule", 0), nil
}
