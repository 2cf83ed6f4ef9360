package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"asyncnoc"
	"asyncnoc/internal/service"
)

// warmRequests is how many memo-served requests a pass sends: enough
// samples that the p99 has at least ten beyond it in every pass.
const warmRequests = 1000

var serviceLoads = []float64{0.2, 0.3, 0.4}

// server is one in-process asyncnocd: a server over its own engine on a
// loopback listener, and a client with its own connection pool.
type server struct {
	eng    *asyncnoc.Engine
	srv    *service.Server
	hs     *http.Server
	served chan error
	client *service.Client
	tr     *http.Transport
}

func startServer(eng *asyncnoc.Engine, st *asyncnoc.Store) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{eng: eng, srv: service.NewServer(eng, st), served: make(chan error, 1), tr: &http.Transport{}}
	s.hs = &http.Server{Handler: s.srv.Handler()}
	go func() { s.served <- s.hs.Serve(ln) }()
	s.client = service.NewClient("http://" + ln.Addr().String())
	s.client.HTTPClient = &http.Client{Transport: s.tr}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.client.Ready(ctx); err != nil {
		s.stop()
		return nil, fmt.Errorf("server not ready: %w", err)
	}
	return s, nil
}

// stop shuts the server down and waits for its serve loop to return.
func (s *server) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = s.hs.Shutdown(ctx) // a timed-out drain still ends in Close below
	_ = s.hs.Close()
	if err := <-s.served; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "nocbench: serve: %v\n", err)
	}
	s.tr.CloseIdleConnections()
}

// svc drives an in-process asyncnocd with one closed-loop client through
// three phases: distinct cold requests, memo-served repeats, and the cold
// requests again on a fresh engine over the same store.
type svc struct {
	c    config
	reqs []service.RunRequest

	dir string
	st  *asyncnoc.Store
	// first serves the cold and memo-served phases; fresh, over a new
	// engine, serves the store phase.
	first, fresh *server
	// lastEng keeps the last pass's memo for the engine-hit probe.
	lastEng *asyncnoc.Engine
}

func newService(c config) workload { return &svc{c: c} }

func (w *svc) setup() error {
	w.reqs = w.reqs[:0]
	for _, spec := range asyncnoc.AllNetworks(8) {
		for _, bench := range []string{"UniformRandom", "Multicast10"} {
			for _, load := range serviceLoads {
				w.reqs = append(w.reqs, service.RunRequest{
					Spec: spec, Bench: bench, LoadGFs: load, Seed: w.c.seed,
					WarmupPs: int64(quickLatWarmup), MeasurePs: int64(quickLatMeasure), DrainPs: int64(quickLatDrain),
				})
			}
		}
	}
	dir, err := os.MkdirTemp(w.c.scratch, "service-")
	if err != nil {
		return err
	}
	w.dir = dir
	if w.st, err = asyncnoc.OpenStore(dir); err != nil {
		return err
	}
	for _, s := range []**server{&w.first, &w.fresh} {
		eng := asyncnoc.NewEngine(w.c.nproc)
		eng.SetStore(w.st)
		if *s, err = startServer(eng, w.st); err != nil {
			return err
		}
	}
	return nil
}

// request sends one job and records its client-side latency under
// sample; isOp marks the workload's unit operation.
func (w *svc) request(p *pass, c *service.Client, req service.RunRequest, sample string, unit time.Duration, isOp bool) (service.RunResponse, time.Duration, bool) {
	p.attempted++
	t0 := now()
	resp, err := c.RunJob(context.Background(), req)
	d, cpu := t0.since()
	p.add(modService, "RunJob", d)
	if err != nil {
		p.fail("%s/%s load %v: %v", req.Spec.Name, req.Bench, req.LoadGFs, err)
		return resp, d, false
	}
	if isOp {
		p.opTimes(d, cpu)
	} else {
		p.steps = append(p.steps, cpu.Seconds())
	}
	p.samples[sample] = append(p.samples[sample], float64(d)/float64(unit))
	return resp, d, true
}

func (w *svc) run(p *pass) error {
	cold := make([]asyncnoc.RunResult, len(w.reqs))
	for i, req := range w.reqs {
		resp, _, ok := w.request(p, w.first.client, req, "cold_ms", time.Millisecond, false)
		if !ok {
			continue
		}
		label := req.Spec.Name + "/" + req.Bench + "/" + fmt.Sprint(req.LoadGFs)
		if resp.Result.Completion < 1 {
			p.fail("%s: completion %.4f below saturation", label, resp.Result.Completion)
		}
		cold[i] = resp.Result
		p.results = append(p.results, record(label, resp.Result))
		p.samples["server_ms"] = append(p.samples["server_ms"], resp.ElapsedMs)
	}
	for i := 0; i < warmRequests; i++ {
		req := w.reqs[i%len(w.reqs)]
		resp, d, ok := w.request(p, w.first.client, req, "warm_us", time.Microsecond, true)
		if !ok {
			continue
		}
		p.samples["http_us"] = append(p.samples["http_us"], float64(d)/float64(time.Microsecond)-resp.ElapsedMs*1000)
		if resp.Result != cold[i%len(w.reqs)] {
			p.fail("%s/%s: memo-served result differs from the cold one", req.Spec.Name, req.Bench)
		}
	}
	t0 := now()
	s := p.begin()
	w.st.Flush()
	p.end(s, modStore, "Flush")
	p.step(t0)
	before := w.st.Stats()
	flagged := 0
	for i, req := range w.reqs {
		resp, _, ok := w.request(p, w.fresh.client, req, "store_us", time.Microsecond, false)
		if !ok {
			continue
		}
		if resp.Cached {
			flagged++
		}
		if resp.Result != cold[i] {
			p.fail("%s/%s: store-served result differs from the cold one", req.Spec.Name, req.Bench)
		}
	}
	st := w.st.Stats()
	eng := w.first.eng.Snapshot()
	shed := w.first.srv.Snapshot().Shed + w.fresh.srv.Snapshot().Shed
	for k, v := range map[string]float64{
		"core.engine.sims":           float64(eng.Started),
		"core.engine.hits":           float64(eng.Hits),
		"store.hits":                 float64(st.Hits),
		"store.misses":               float64(st.Misses),
		"store.writes":               float64(st.Writes),
		"service.shed":               float64(shed),
		"service.store_served":       float64(st.Hits - before.Hits),
		"service.store_cached_flags": float64(flagged),
	} {
		p.counts[k] = v
		p.layer[k] = v
	}
	w.lastEng = w.first.eng
	return nil
}

func (w *svc) teardown() {
	for _, s := range []*server{w.first, w.fresh} {
		if s != nil {
			s.stop()
		}
	}
	w.first, w.fresh = nil, nil
	if w.st != nil {
		_ = w.st.Close() // Close only waits for pending writes; the directory goes next
		w.st = nil
	}
	if w.dir != "" {
		if err := os.RemoveAll(w.dir); err != nil {
			fmt.Fprintf(os.Stderr, "nocbench: %v\n", err)
		}
		w.dir = ""
	}
}

// probe times the layers under a warm request directly: an engine memo
// hit on the last pass's engine, and store reads and durable writes of
// the workload's keys in a scratch store.
func (w *svc) probe(layer map[string]float64) error {
	var hits []float64
	for rep := 0; rep < 20; rep++ {
		for _, req := range w.reqs {
			cfg, err := req.Config()
			if err != nil {
				return err
			}
			t0 := time.Now()
			if _, err := w.lastEng.Run(req.Spec, cfg); err != nil {
				return err
			}
			hits = append(hits, float64(time.Since(t0))/float64(time.Microsecond))
		}
	}
	layer["core.engine.hit_us"] = median(hits)

	dir, err := os.MkdirTemp(w.c.scratch, "store-probe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, err := asyncnoc.OpenStore(dir)
	if err != nil {
		return err
	}
	defer st.Close()
	var puts, gets []float64
	for _, req := range w.reqs {
		cfg, err := req.Config()
		if err != nil {
			return err
		}
		key := asyncnoc.JobKey(req.Spec, cfg)
		res, err := w.lastEng.Run(req.Spec, cfg)
		if err != nil {
			return err
		}
		t0 := time.Now()
		st.Put(key, res)
		st.Flush()
		puts = append(puts, float64(time.Since(t0))/float64(time.Microsecond))
		t0 = time.Now()
		got, ok := st.Get(key)
		gets = append(gets, float64(time.Since(t0))/float64(time.Microsecond))
		if !ok || got != res {
			return fmt.Errorf("store probe: %s did not read back", key)
		}
	}
	layer["store.put_us"] = median(puts)
	layer["store.get_us"] = median(gets)
	return nil
}

// verify checks every cold response against a direct Engine.Run of the
// same job on a separate engine.
func (w *svc) verify(first *pass) []string {
	var bad []string
	ref := asyncnoc.NewEngine(w.c.nproc)
	jobs := make([]asyncnoc.Job, 0, len(w.reqs))
	for _, req := range w.reqs {
		cfg, err := req.Config()
		if err != nil {
			return []string{err.Error()}
		}
		jobs = append(jobs, asyncnoc.Job{Spec: req.Spec, Cfg: cfg})
	}
	want, err := ref.RunJobs(jobs)
	if err != nil {
		return []string{fmt.Sprintf("reference runs: %v", err)}
	}
	if len(first.results) != len(want) {
		return []string{fmt.Sprintf("%d cold responses for %d jobs", len(first.results), len(want))}
	}
	for i, r := range first.results {
		if r.res != want[i] {
			bad = append(bad, fmt.Sprintf("%s: service result differs from a direct Engine.Run", r.label))
		}
	}
	return bad
}
