package service

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"asyncnoc/internal/chiplet"
	"asyncnoc/internal/core"
	"asyncnoc/internal/fault"
	"asyncnoc/internal/network"
	"asyncnoc/internal/sim"
	"asyncnoc/internal/store"
)

// testRunRequest builds a small, fast Fig.6a-style job (the same shape
// the crash-recovery tests use).
func testRunRequest(t testing.TB, seed uint64) RunRequest {
	t.Helper()
	spec, err := core.SpecByName(8, core.NameOptHybridSpec)
	if err != nil {
		t.Fatal(err)
	}
	return RunRequest{
		Spec: spec, Bench: "Multicast10", LoadGFs: 0.3, Seed: seed,
		WarmupPs:  int64(40 * sim.Nanosecond),
		MeasurePs: int64(160 * sim.Nanosecond),
		DrainPs:   int64(80 * sim.Nanosecond),
	}
}

// newTestService stands up a full stack: persistent store, engine,
// server, httptest listener, and a client with fast retries.
func newTestService(t testing.TB, tune func(*Server)) (*Server, *Client, *store.Store) {
	t.Helper()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	eng := core.NewEngine(2)
	eng.SetStore(st)
	srv := NewServer(eng, st)
	if tune != nil {
		tune(srv)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	t.Cleanup(func() { st.Close() }) //nolint:errcheck
	c := NewClient(hs.URL)
	c.baseBackoff = 2 * time.Millisecond
	c.maxBackoff = 20 * time.Millisecond
	return srv, c, st
}

// TestServiceRunCacheHit: the second submission of an identical job is
// served from the cache (Cached=true), the result is byte-identical,
// and the committed entry is retrievable by job key.
func TestServiceRunCacheHit(t *testing.T) {
	_, c, st := newTestService(t, nil)
	req := testRunRequest(t, 3)
	ctx := context.Background()
	first, err := c.RunJob(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if first.Cached {
		t.Fatal("cold run reported Cached=true")
	}
	second, err := c.RunJob(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Fatal("second identical run not served from cache")
	}
	a, _ := json.Marshal(first.Result)
	b, _ := json.Marshal(second.Result)
	if string(a) != string(b) {
		t.Fatalf("cached result differs:\n%s\nvs\n%s", a, b)
	}
	st.Flush()
	job, ok, err := c.Job(ctx, first.Key)
	if err != nil || !ok {
		t.Fatalf("GET /v1/jobs/%s: ok=%v err=%v", first.Key, ok, err)
	}
	if j, _ := json.Marshal(job.Result); string(j) != string(a) {
		t.Fatalf("stored entry differs from run response:\n%s\nvs\n%s", j, a)
	}
	if _, ok, err := c.Job(ctx, strings.Repeat("0", 64)); err != nil || ok {
		t.Fatalf("unknown key: ok=%v err=%v, want miss without error", ok, err)
	}
}

// TestServiceChipletRunCached: a repeated chiplet job is served from the
// cache under the same key. Each request decodes its own composition
// parameters, so the key must not depend on where they live.
func TestServiceChipletRunCached(t *testing.T) {
	srv, c, _ := newTestService(t, nil)
	spec, err := core.SpecByName(4, core.NameOptHybridSpec)
	if err != nil {
		t.Fatal(err)
	}
	req := RunRequest{
		Spec: core.WithChiplet(spec, chiplet.Default(2, 2)), Bench: "Multicast10", LoadGFs: 0.3, Seed: 5,
		WarmupPs: int64(40 * sim.Nanosecond), MeasurePs: int64(160 * sim.Nanosecond), DrainPs: int64(80 * sim.Nanosecond),
	}
	ctx := context.Background()
	first, err := c.RunJob(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	second, err := c.RunJob(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Cached || second.Key != first.Key {
		t.Fatalf("repeated chiplet job: cached=%v, keys %s vs %s", second.Cached, second.Key, first.Key)
	}
	if second.Result != first.Result {
		t.Fatal("cached chiplet result differs")
	}
	if n := srv.Engine.Snapshot().Started; n != 1 {
		t.Fatalf("engine simulated %d runs, want 1", n)
	}
}

// TestServiceMeshRun: a request whose spec carries a Mesh size runs on
// the mesh, with its benchmark resolved over the tiles, byte-identical
// to a local run and cached on repeat; a MoT spec's JSON has no Mesh
// field; and an invalid mesh request is a 400 naming the field.
func TestServiceMeshRun(t *testing.T) {
	_, c, _ := newTestService(t, nil)
	req := testRunRequest(t, 4)
	if js, _ := json.Marshal(req.Spec); strings.Contains(string(js), "Mesh") {
		t.Errorf("a MoT spec encodes a Mesh field: %s", js)
	}
	req.Spec = core.MeshTree(4, 4)
	cfg, err := req.Config()
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.Run(req.Spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i, cached := range []bool{false, true} {
		got, err := c.RunJob(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if got.Cached != cached || got.Result != want {
			t.Errorf("mesh run %d: cached %v, result %+v; want cached %v, %+v", i, got.Cached, got.Result, cached, want)
		}
	}
	tooBig := req
	tooBig.Spec = core.MeshTree(13, 5)
	faulty := req
	faulty.Spec.Faults = fault.Config{Seed: 1, DropRate: 1e-3}
	for field, bad := range map[string]RunRequest{"Mesh": tooBig, "Faults": faulty} {
		_, err := c.RunJob(ctx, bad)
		var apiErr *APIError
		if !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadRequest || !strings.Contains(apiErr.Msg, field) {
			t.Errorf("invalid mesh request (%s): %v, want a 400 naming %s", field, err, field)
		}
	}
}

// TestServiceStoreServedIsCached: a fresh engine over a warm store
// serves the job from disk without simulating, and the response says so.
func TestServiceStoreServedIsCached(t *testing.T) {
	srv, c, st := newTestService(t, nil)
	req := testRunRequest(t, 4)
	ctx := context.Background()
	first, err := c.RunJob(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	st.Flush()

	fresh := NewServer(core.NewEngine(2), st)
	fresh.Engine.SetStore(st)
	hs := httptest.NewServer(fresh.Handler())
	t.Cleanup(hs.Close)
	got, err := NewClient(hs.URL).RunJob(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Cached {
		t.Fatal("store-served response reported Cached=false")
	}
	if got.Result != first.Result {
		t.Fatalf("store-served result differs:\n%+v\nvs\n%+v", got.Result, first.Result)
	}
	if n := fresh.Engine.Snapshot().Started; n != 0 {
		t.Fatalf("fresh engine simulated %d runs, want 0 (store hit)", n)
	}
	if n := srv.Engine.Snapshot().Started; n != 1 {
		t.Fatalf("first engine simulated %d runs, want 1", n)
	}
}

// TestServiceSheddingAndClientRetry: with a single admission slot held
// by a blocked job, a raw request is shed with 429 + Retry-After, and
// the retrying client rides out the shed window to success.
func TestServiceSheddingAndClientRetry(t *testing.T) {
	release := make(chan struct{})
	var srv *Server
	srv, c, _ := newTestService(t, func(s *Server) {
		s.MaxQueue = 1
		s.retryAfter = 1900 * time.Millisecond // fractional: the header must round up
		s.Engine.SetRemote(func(_ context.Context, spec network.Spec, cfg core.RunConfig) (core.RunResult, error) {
			<-release
			return core.RunResult{Network: spec.Name, Benchmark: cfg.Bench.Name(), LoadGFs: cfg.LoadGFs}, nil
		})
	})
	ctx := context.Background()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := c.RunJob(ctx, testRunRequest(t, 1)); err != nil {
			t.Error(err)
		}
	}()
	// Wait until the blocker owns the only admission slot.
	for deadline := time.Now().Add(5 * time.Second); srv.Snapshot().Queued == 0; {
		if time.Now().After(deadline) {
			t.Fatal("blocker never admitted")
		}
		time.Sleep(time.Millisecond)
	}

	// A raw request (no retries) is shed immediately.
	body, _ := json.Marshal(testRunRequest(t, 2))
	resp, err := http.Post(c.BaseURL+"/v1/run", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	// The hint must be the ceiling of the configured 1.9s, not the
	// truncation: "1" would invite clients back while still shedding.
	if got := resp.Header.Get("Retry-After"); got != "2" {
		t.Fatalf("429 Retry-After = %q, want %q (ceiling of 1.9s)", got, "2")
	}
	var e ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e.Kind != ErrKindShed {
		t.Fatalf("shed body: %+v err=%v", e, err)
	}

	// The retrying client keeps backing off until the slot frees.
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := c.RunJob(ctx, testRunRequest(t, 2)); err != nil {
			t.Errorf("retrying client did not recover: %v", err)
		}
	}()
	time.Sleep(10 * time.Millisecond) // let it eat at least one 429
	close(release)
	wg.Wait()
	if snap := srv.Snapshot(); snap.Shed == 0 || snap.Done < 2 {
		t.Fatalf("snapshot %+v: want shed > 0 and 2 completed jobs", snap)
	}
}

// TestServiceDeadline: a request-level timeout cancels the simulation
// mid-run and surfaces as 504/timeout; the worker does not leak (the
// next request on the same engine succeeds).
func TestServiceDeadline(t *testing.T) {
	srv, c, _ := newTestService(t, nil)
	c.maxAttempts = 1 // 504 is retryable; keep the test to one attempt
	req := testRunRequest(t, 5)
	req.MeasurePs = int64(400000 * sim.Nanosecond) // heavy enough to outlive 1ms
	req.TimeoutMs = 1
	_, err := c.RunJob(context.Background(), req)
	var apiErr *APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("error %T (%v), want *APIError", err, err)
	}
	if apiErr.Status != http.StatusGatewayTimeout || apiErr.Kind != ErrKindTimeout {
		t.Fatalf("got %d/%s, want 504/%s", apiErr.Status, apiErr.Kind, ErrKindTimeout)
	}
	if snap := srv.Snapshot(); snap.Timeouts != 1 {
		t.Fatalf("timeout counter = %d, want 1", snap.Timeouts)
	}
	// Engine is healthy afterwards.
	if _, err := c.RunJob(context.Background(), testRunRequest(t, 6)); err != nil {
		t.Fatalf("engine unhealthy after timeout: %v", err)
	}
}

// TestServiceDrain: after BeginDrain, readyz reports unavailable and new
// jobs are refused with 503/draining, while healthz still answers.
func TestServiceDrain(t *testing.T) {
	srv, c, _ := newTestService(t, nil)
	ctx := context.Background()
	if err := c.Ready(ctx); err != nil {
		t.Fatalf("fresh server not ready: %v", err)
	}
	srv.BeginDrain()
	if err := c.Ready(ctx); err == nil {
		t.Fatal("draining server still reports ready")
	}
	body, _ := json.Marshal(testRunRequest(t, 7))
	resp, err := http.Post(c.BaseURL+"/v1/run", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
	var e ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e.Kind != ErrKindDraining {
		t.Fatalf("drain body: %+v err=%v", e, err)
	}
	hr, err := http.Get(c.BaseURL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	var h HealthResponse
	if err := json.NewDecoder(hr.Body).Decode(&h); err != nil || h.Status != "draining" {
		t.Fatalf("healthz while draining: %+v err=%v", h, err)
	}
	if snap := srv.Snapshot(); snap.Refused != 1 {
		t.Fatalf("refused counter = %d, want 1", snap.Refused)
	}
}

// TestReadyProbesOnce: Ready sends exactly one GET /readyz against a
// server that keeps answering 503, and returns that answer at once
// instead of backing off through the retry policy.
func TestReadyProbesOnce(t *testing.T) {
	var probes atomic.Int32
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		probes.Add(1)
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer hs.Close()
	err := NewClient(hs.URL).Ready(context.Background())
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusServiceUnavailable {
		t.Fatalf("Ready against a draining server: %v, want a 503 *APIError", err)
	}
	if n := probes.Load(); n != 1 {
		t.Fatalf("Ready sent %d requests, want 1", n)
	}
}

// TestServiceBadRequest: malformed jobs fail fast with 400 and are not
// retried by the client.
func TestServiceBadRequest(t *testing.T) {
	_, c, _ := newTestService(t, nil)
	ctx := context.Background()
	req := testRunRequest(t, 8)
	req.Bench = "NoSuchBenchmark"
	_, err := c.RunJob(ctx, req)
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadRequest || apiErr.Kind != ErrKindBadRequest {
		t.Fatalf("bad benchmark: %v, want 400/%s", err, ErrKindBadRequest)
	}
	// Unknown JSON fields are rejected, not silently dropped.
	resp, err := http.Post(c.BaseURL+"/v1/run", "application/json",
		strings.NewReader(`{"spec":{},"bench":"UniformRandom","surprise":1}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown field: status %d, want 400", resp.StatusCode)
	}
}

// TestServiceRejectsTrailingData: a run or sweep body must hold exactly
// one JSON value. Trailing garbage and a second request are bad
// requests; trailing whitespace is not.
func TestServiceRejectsTrailingData(t *testing.T) {
	srv, _, _ := newTestService(t, nil)
	h := srv.Handler()
	run := testRunRequest(t, 12)
	runBody, err := json.Marshal(run)
	if err != nil {
		t.Fatal(err)
	}
	sweepBody, err := json.Marshal(SweepRequest{
		Spec: run.Spec, Bench: run.Bench, Seed: run.Seed,
		WarmupPs: run.WarmupPs, MeasurePs: run.MeasurePs, DrainPs: run.DrainPs,
		Points: 1, MaxFraction: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	post := func(path, body string) (int, ErrorResponse) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
		var e ErrorResponse
		if rec.Code != http.StatusOK {
			if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
				t.Fatalf("%s: status %d with a body that is no ErrorResponse: %q", path, rec.Code, rec.Body)
			}
		}
		return rec.Code, e
	}
	for _, route := range []struct{ path, body string }{
		{"/v1/run", string(runBody)},
		{"/v1/sweep", string(sweepBody)},
	} {
		if code, e := post(route.path, route.body+"\n"); code != http.StatusOK {
			t.Fatalf("%s: one value and a newline: status %d (%s), want 200", route.path, code, e.Error)
		}
		for _, trailing := range []string{"garbage", route.body} {
			code, e := post(route.path, route.body+trailing)
			if code != http.StatusBadRequest || e.Kind != ErrKindBadRequest {
				t.Errorf("%s with trailing %.20q: status %d kind %q, want 400 %s", route.path, trailing, code, e.Kind, ErrKindBadRequest)
			}
		}
	}
}

// TestWriteJSONEncodesBeforeStatus: a value that cannot be encoded
// answers 500 with an ErrorResponse, not its status with an empty body.
func TestWriteJSONEncodesBeforeStatus(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, RunResponse{ElapsedMs: math.NaN()})
	var e ErrorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || rec.Code != http.StatusInternalServerError || e.Kind != ErrKindInternal {
		t.Fatalf("NaN response: status %d body %q (%v), want 500 with kind %s", rec.Code, rec.Body, err, ErrKindInternal)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type %q", ct)
	}
	rec = httptest.NewRecorder()
	writeJSON(rec, http.StatusAccepted, RunResponse{Key: "k", ElapsedMs: 1.5})
	var got RunResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil || rec.Code != http.StatusAccepted || got.Key != "k" || got.ElapsedMs != 1.5 {
		t.Fatalf("plain response: status %d body %q (%v)", rec.Code, rec.Body, err)
	}
}

// TestDecodeResponseKeepsNoPooledBytes: decoded values and error
// messages stay intact after their read buffer goes back to the pool
// and is overwritten by the next response.
func TestDecodeResponseKeepsNoPooledBytes(t *testing.T) {
	respond := func(status int, body string) *http.Response {
		rec := httptest.NewRecorder()
		rec.WriteHeader(status)
		rec.WriteString(body) //nolint:errcheck
		return rec.Result()
	}
	var first RunResponse
	if err := decodeResponse(respond(http.StatusOK, `{"key":"aaaaaaaa"}`), &first); err != nil {
		t.Fatal(err)
	}
	plain := decodeResponse(respond(http.StatusBadGateway, "upstream gone"), &RunResponse{})
	var second RunResponse
	if err := decodeResponse(respond(http.StatusOK, `{"key":"bbbbbbbb","elapsed_ms":2}`), &second); err != nil {
		t.Fatal(err)
	}
	big := decodeResponse(respond(http.StatusBadGateway, strings.Repeat("x", 2*maxPooledBuf)), &RunResponse{})
	decodeResponse(respond(http.StatusBadGateway, strings.Repeat("y", 4096)), &RunResponse{})
	if first.Key != "aaaaaaaa" || second.Key != "bbbbbbbb" {
		t.Errorf("decoded keys %q, %q changed after their buffer was reused", first.Key, second.Key)
	}
	if plain == nil || plain.Kind != "http" || plain.Msg != "upstream gone" {
		t.Errorf("plain-text error %+v changed after its buffer was reused", plain)
	}
	if big == nil || big.Msg != strings.Repeat("x", 2*maxPooledBuf) {
		t.Errorf("large error body not kept whole")
	}
}

// TestServiceSweep: a sweep request returns the requested number of
// curve points through the service path.
func TestServiceSweep(t *testing.T) {
	_, c, _ := newTestService(t, nil)
	run := testRunRequest(t, 9)
	resp, err := c.Sweep(context.Background(), SweepRequest{
		Spec: run.Spec, Bench: run.Bench, Seed: run.Seed,
		WarmupPs: run.WarmupPs, MeasurePs: run.MeasurePs, DrainPs: run.DrainPs,
		Points: 2, MaxFraction: 0.8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Points) != 2 {
		t.Fatalf("sweep returned %d points, want 2", len(resp.Points))
	}
	if resp.Network != run.Spec.Name || resp.Benchmark != run.Bench {
		t.Fatalf("sweep labels: %q/%q", resp.Network, resp.Benchmark)
	}
}

// TestClientRemoteMatchesLocal: Client.Run against a live server
// returns a result byte-identical to a local core.Run of the same job,
// and the server's store ends up holding the entry.
func TestClientRemoteMatchesLocal(t *testing.T) {
	_, c, st := newTestService(t, nil)
	req := testRunRequest(t, 11)
	cfg, err := req.Config()
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.Run(req.Spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Run(context.Background(), req.Spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(want)
	b, _ := json.Marshal(got.Result)
	if string(a) != string(b) {
		t.Fatalf("remote result differs from local:\n%s\nvs\n%s", b, a)
	}
	st.Flush()
	if n, err := st.Len(); err != nil || n != 1 {
		t.Fatalf("server store entries = %d (err=%v), want 1", n, err)
	}
}

// TestBackoffDelayPolicy: capped exponential with jitter in [50%, 100%],
// raised to the server's Retry-After hint but never past the cap.
func TestBackoffDelayPolicy(t *testing.T) {
	base, max := 100*time.Millisecond, time.Second
	for attempt := 0; attempt < 12; attempt++ {
		for i := 0; i < 50; i++ {
			d := backoffDelay(attempt, base, max, nil)
			full := base << uint(attempt)
			if full > max || full <= 0 {
				full = max
			}
			if d < full/2 || d > full {
				t.Fatalf("attempt %d: delay %v outside [%v, %v]", attempt, d, full/2, full)
			}
		}
	}
	hint := &APIError{Status: 429, retryAfter: 10 * time.Second}
	if d := backoffDelay(0, base, max, hint); d != max {
		t.Fatalf("Retry-After hint not capped: %v, want %v", d, max)
	}
	short := &APIError{Status: 429, retryAfter: time.Millisecond}
	if d := backoffDelay(3, base, max, short); d < (base<<3)/2 {
		t.Fatalf("short Retry-After lowered the backoff: %v", d)
	}
}

// TestParseRetryAfterForms: both RFC 9110 forms decode — delta-seconds
// and HTTP-date — and anything non-positive, past, or malformed clamps
// to 0 (no extra wait).
func TestParseRetryAfterForms(t *testing.T) {
	now := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	cases := []struct {
		in   string
		want time.Duration
	}{
		{"", 0},
		{"7", 7 * time.Second},
		{"0", 0},
		{"-3", 0}, // negative delta clamps, never becomes a huge uint
		{now.Add(90 * time.Second).UTC().Format(http.TimeFormat), 90 * time.Second},
		{now.Add(-time.Minute).UTC().Format(http.TimeFormat), 0}, // stale date = come back now
		{"Wed, 32 Feb 2026 99:99:99 GMT", 0},                     // malformed date
		{"soon", 0},
	}
	for _, tc := range cases {
		if got := parseRetryAfter(tc.in, now); got != tc.want {
			t.Errorf("parseRetryAfter(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

// BenchmarkServiceWarmRequest: one memo-served RunJob per op, client
// and server in process over loopback. It measures the HTTP/JSON path
// and the engine's memo hit, not a simulation.
func BenchmarkServiceWarmRequest(b *testing.B) {
	_, c, _ := newTestService(b, nil)
	req := testRunRequest(b, 3)
	ctx := context.Background()
	if _, err := c.RunJob(ctx, req); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := c.RunJob(ctx, req)
		if err != nil {
			b.Fatal(err)
		}
		if !resp.Cached {
			b.Fatal("warm request was not served from the memo")
		}
	}
}
