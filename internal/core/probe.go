package core

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"

	"asyncnoc/internal/metrics"
	"asyncnoc/internal/network"
)

// engineProber answers a saturation search's probes through an engine.
type engineProber struct {
	e    *Engine
	ctx  context.Context
	spec network.Spec
	base RunConfig
}

func (p engineProber) config(load float64) RunConfig {
	c := p.base
	c.LoadGFs = load
	return c
}

func (p engineProber) full(load float64) (RunResult, error) {
	return p.e.RunContext(p.ctx, p.spec, p.config(load))
}

func (p engineProber) probe(load float64, c metrics.SatCriterion) (satProbe, error) {
	return p.e.probe(p.ctx, p.spec, p.config(load), c)
}

// verdictKey names one probe's verdict: the job and the criterion.
type verdictKey struct {
	job  string
	crit metrics.SatCriterion
}

// storeKey is the verdict's key in a VerdictStore: a digest of the job
// key and the criterion, which can never equal a job key.
func (k verdictKey) storeKey() string {
	h := sha256.New()
	fmt.Fprintf(h, "verdict|%s|%s|%s", k.job,
		strconv.FormatFloat(k.crit.MaxLatencyNs, 'x', -1, 64),
		strconv.FormatFloat(k.crit.MinCompletion, 'x', -1, 64))
	return hex.EncodeToString(h.Sum(nil))
}

// verdictEntry is one verdict-memo slot. done is closed once sat/err
// are final; waiters block on it as on a memoEntry.
type verdictEntry struct {
	sat  bool
	err  error
	done chan struct{}
}

// probe answers whether cfg's load saturates under c. In order, it is
// answered by the job's full result in the memo, by the verdict memo,
// by the persistent store (a stored verdict, then a stored result), or
// by a simulation that stops as soon as the verdict is certain or the
// result is final (see RunContext). A
// result computed or in flight in the memo, and a verdict being
// decided by another search, are shared as claim shares results, and
// the hit and miss counts follow claim's rule: a miss is a probe the
// memo could not answer.
//
// Instrumented jobs, jobs for a remote delegate and chiplet
// compositions run to their end through RunContext. A chiplet
// composition registers a die-to-die leg only when it reaches its
// target die, so its measured set is not final when the window closes.
// A MoT die and a mesh register every measured packet at its creation.
func (e *Engine) probe(ctx context.Context, spec network.Spec, cfg RunConfig, c metrics.SatCriterion) (satProbe, error) {
	if len(cfg.Instruments) > 0 || spec.Chiplet != nil || e.remoteRunner() != nil {
		res, err := e.RunContext(ctx, spec, cfg)
		if err != nil {
			return nil, err
		}
		return finished(res, c), nil
	}
	if err := checkSpec(spec, cfg); err != nil {
		return nil, err
	}
	vk := verdictKey{job: JobKey(spec, cfg), crit: c}
	ent, v, compute := e.claimVerdict(vk)
	switch {
	case ent != nil:
		res, err := await(ctx, ent)
		if err != nil {
			return nil, err
		}
		return finished(res, c), nil
	case !compute:
		select {
		case <-v.done:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		if v.err != nil {
			return nil, v.err
		}
		return e.decided(ctx, spec, cfg, vk.job, v.sat), nil
	}
	p, keep, err := e.decide(ctx, spec, cfg, vk)
	e.settle(vk, v, p, keep, err)
	return p, err
}

// claimVerdict is claim for a probe: under one lock it finds the job's
// result (done or in flight) or the probe's verdict (decided or in
// flight), and on a miss registers an in-flight verdict entry that the
// caller must settle. The verdict memo holds at most the memo capacity
// of entries and starts over when full.
func (e *Engine) claimVerdict(vk verdictKey) (*memoEntry, *verdictEntry, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if ent, ok := e.memo[vk.job]; ok {
		e.hits++
		e.order.MoveToFront(ent.elem)
		return ent, nil, false
	}
	if v, ok := e.verdicts[vk]; ok {
		e.hits++
		return nil, v, false
	}
	e.misses++
	if len(e.verdicts) >= e.cap {
		clear(e.verdicts)
	}
	v := &verdictEntry{done: make(chan struct{})}
	e.verdicts[vk] = v
	return nil, v, true
}

// settle publishes a claimed probe's answer to its waiters. The verdict
// memo keeps it only when keep is set (the job has no result in the
// memo); an errored probe leaves it, as does any probe while the memo
// is disabled.
func (e *Engine) settle(vk verdictKey, v *verdictEntry, p satProbe, keep bool, err error) {
	if v.err = err; err == nil {
		v.sat = p.saturated()
	}
	close(v.done)
	e.mu.Lock()
	defer e.mu.Unlock()
	if cur, ok := e.verdicts[vk]; ok && cur == v && (err != nil || !keep || e.cap < 1) {
		delete(e.verdicts, vk)
	}
}

// decide answers a probe the memo could not. keep reports that the
// answer is a verdict without a memoized result. A simulation that
// becomes final before its verdict is certain (its mean within the
// verdict margin of the threshold) is published as a full run.
func (e *Engine) decide(ctx context.Context, spec network.Spec, cfg RunConfig, vk verdictKey) (p satProbe, keep bool, err error) {
	vs, _ := e.Store().(VerdictStore)
	if vs != nil {
		if sat, ok := vs.GetVerdict(vk.storeKey()); ok {
			return e.decided(ctx, spec, cfg, vk.job, sat), true, nil
		}
	}
	if res, ok := e.fromStore(vk.job); ok {
		e.memoize(vk.job, res)
		return finished(res, vk.crit), false, nil
	}

	if err := e.acquire(ctx); err != nil {
		return nil, false, err
	}
	e.started.Add(1)
	var (
		r       *simRun
		stopped bool
		v       metrics.Verdict
	)
	err = protect(spec.Name, func() (err error) {
		if r, err = startRun(spec, cfg, &e.nets); err != nil {
			return err
		}
		final := r.finalStop()
		stopped, err = r.g.run(ctx, func() bool {
			v = r.verdict(vk.crit)
			return v != metrics.Undecided || final != nil && final()
		})
		return err
	})
	// A probe that ran to its end, or stopped at a final result before
	// its verdict was certain, has its full result.
	full := !stopped || v == metrics.Undecided
	var res RunResult
	if err == nil && full {
		res = r.collect()
		e.countCut(stopped)
	}
	// Every run but a suspended stable probe is over.
	if r != nil && (err != nil || full || v == metrics.SaturatedVerdict) {
		r.close(err == nil)
	}
	e.releaseSlot()
	e.completed.Add(1)
	if err != nil {
		return nil, false, err
	}
	if full {
		// Undecided to the end or to a final result: a full run,
		// published as any run is.
		e.memoize(vk.job, res)
		e.toStore(vk.job, res)
		p, keep = finished(res, vk.crit), false
	} else if v == metrics.SaturatedVerdict {
		p, keep = doneProbe{sat: true}, true
	} else {
		p, keep = &engineProbe{e: e, ctx: ctx, spec: spec, cfg: cfg, key: vk.job, run: r}, true
	}
	// Every simulated probe leaves its verdict in the store, so that a
	// repeated search reads one entry per probe.
	if vs != nil {
		vs.PutVerdict(vk.storeKey(), p.saturated())
	}
	return p, keep, nil
}

// decided is the probe for a verdict known without a simulation.
func (e *Engine) decided(ctx context.Context, spec network.Spec, cfg RunConfig, key string, sat bool) satProbe {
	if sat {
		return doneProbe{sat: true}
	}
	return &engineProbe{e: e, ctx: ctx, spec: spec, cfg: cfg, key: key}
}

// engineProbe is a stable probe without a full result yet: either a
// simulation suspended at its verdict, or a verdict known without one.
type engineProbe struct {
	e    *Engine
	ctx  context.Context
	spec network.Spec
	cfg  RunConfig
	key  string
	// run is the suspended simulation (nil for a known verdict, and
	// once released).
	run *simRun
}

func (p *engineProbe) saturated() bool { return false }

// result runs the suspended simulation on to its end under a pool slot
// and publishes its result as RunKeyed does. Its claim counts neither a
// hit nor a miss and no new simulation is counted: the probe already
// was one. When the job is already in the memo or in flight, that
// result is shared instead. A known verdict runs the job through
// RunContext.
func (p *engineProbe) result() (RunResult, error) {
	r := p.run
	if r == nil {
		return p.e.RunContext(p.ctx, p.spec, p.cfg)
	}
	defer p.release()
	ent, compute := p.e.claim(p.key, false)
	if !compute {
		return await(p.ctx, ent)
	}
	if ent.err = p.e.acquire(p.ctx); ent.err == nil {
		ent.err = protect(p.spec.Name, func() error {
			cut, err := r.g.run(p.ctx, r.finalStop())
			if err != nil {
				return err
			}
			ent.res = r.collect()
			p.e.countCut(cut)
			return nil
		})
		p.e.releaseSlot()
	}
	if ent.err != nil {
		// A failed run's network is not reused.
		r.close(false)
		p.run = nil
	}
	p.e.finish(ent)
	if ent.err == nil {
		p.e.toStore(p.key, ent.res)
	}
	return ent.res, ent.err
}

// release ends the suspended simulation, which ran without an error.
func (p *engineProbe) release() {
	if p.run != nil {
		p.run.close(true)
		p.run = nil
	}
}
