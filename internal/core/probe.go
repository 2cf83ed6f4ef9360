package core

import (
	"context"
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

// storeKey is the verdict's key in a ResultStore: a digest of the job
// key and the criterion, which can never equal a job key. Like JobKey
// it hashes one stack buffer.
func (k verdictKey) storeKey() string {
	var buf [160]byte
	b := append(append(buf[:0], "verdict|"...), k.job...)
	b = strconv.AppendFloat(append(b, '|'), k.crit.MaxLatencyNs, 'x', -1, 64)
	b = strconv.AppendFloat(append(b, '|'), k.crit.MinCompletion, 'x', -1, 64)
	return hexDigest(b)
}

// probe answers whether cfg's load saturates under c. In order, it is
// answered by the job's full result in the memo, by the verdict memo,
// by the persistent store (a stored verdict, then a stored result), or
// by a simulation that stops as soon as the verdict is certain or the
// result is final (see RunContext). A result computed or in flight in
// the memo, and a verdict being decided by another search, are shared
// as claim shares results, and the hit and miss counts follow claim's
// rule: a miss is a probe the memo could not answer. A decided verdict
// stays in the verdict memo under finish's rule, as a result does: a
// canceled probe leaves it, a deterministic error stays.
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
		res, err := ent.await(ctx)
		if err != nil {
			return nil, err
		}
		return finished(res, c), nil
	case !compute:
		sat, err := v.await(ctx)
		if err != nil {
			return nil, err
		}
		return e.decided(ctx, spec, cfg, vk.job, sat), nil
	}
	p, memoized, err := e.decide(ctx, spec, cfg, vk)
	if v.err = err; err == nil {
		v.val = p.saturated()
	}
	// A job whose result is memoized answers its probes from the result.
	finish(e, &e.verdicts, v, memoized)
	return p, err
}

// claimVerdict is claim for a probe: under one lock it finds the job's
// result (done or in flight) or the probe's verdict (decided or in
// flight), and on a miss registers an in-flight verdict that the caller
// must finish.
func (e *Engine) claimVerdict(vk verdictKey) (*memoEntry[string, RunResult], *memoEntry[verdictKey, bool], bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if ent, ok := e.results.get(vk.job); ok {
		e.hits++
		return ent, nil, false
	}
	v, found := e.verdicts.claim(vk, e.cap)
	e.count(found)
	return nil, v, !found
}

// decide answers a probe the memo could not. memoized reports that the
// job's full result entered the result memo. A simulation that becomes
// final before its verdict is certain (its mean within the verdict
// margin of the threshold) is published as a full run.
func (e *Engine) decide(ctx context.Context, spec network.Spec, cfg RunConfig, vk verdictKey) (p satProbe, memoized bool, err error) {
	st := e.Store()
	var sk string
	if st != nil {
		sk = vk.storeKey()
		if sat, ok := st.GetVerdict(sk); ok {
			return e.decided(ctx, spec, cfg, vk.job, sat), false, nil
		}
		if res, ok := st.Get(vk.job); ok {
			e.memoize(vk.job, res)
			return finished(res, vk.crit), true, nil
		}
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
		stopped, err = r.run(ctx, func() bool {
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
		res = Collect(r.nw, r.cfg)
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
		if st != nil {
			st.Put(vk.job, res)
		}
		p, memoized = finished(res, vk.crit), true
	} else if v == metrics.SaturatedVerdict {
		p = doneProbe{sat: true}
	} else {
		p = &engineProbe{e: e, ctx: ctx, spec: spec, cfg: cfg, key: vk.job, run: r}
	}
	// Every simulated probe leaves its verdict in the store, so that a
	// repeated search reads one entry per probe.
	if st != nil {
		st.PutVerdict(sk, p.saturated())
	}
	return p, memoized, nil
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
		return ent.await(p.ctx)
	}
	if ent.err = p.e.acquire(p.ctx); ent.err == nil {
		ent.err = protect(p.spec.Name, func() error {
			cut, err := r.run(p.ctx, r.finalStop())
			if err != nil {
				return err
			}
			ent.val = Collect(r.nw, r.cfg)
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
	finish(p.e, &p.e.results, ent, false)
	if ent.err == nil {
		p.e.toStore(p.key, ent.val)
	}
	return ent.val, ent.err
}

// release ends the suspended simulation, which ran without an error.
func (p *engineProbe) release() {
	if p.run != nil {
		p.run.close(true)
		p.run = nil
	}
}
