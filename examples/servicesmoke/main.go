// Command servicesmoke is the client half of `make service-smoke`: it
// submits the same Fig.6a-style job to a running asyncnocd twice, then
// the same job on a 4x4 mesh twice, and asserts the service contract for
// each — the first run computes (or, with -expect-warm, is served from
// the persistent store), the second is a cache hit served fast (the
// handler never starts a simulation).
//
//	servicesmoke -server http://127.0.0.1:8080
//
// The process exits 0 only when every assertion holds; the Makefile
// target owns starting the server, sending it SIGTERM afterwards, and
// checking the clean drain.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"asyncnoc"
)

func main() {
	var (
		server  = flag.String("server", "http://127.0.0.1:8080", "asyncnocd base URL")
		hitMs   = flag.Float64("hit-ms", 10, "cache hits must be served within this many milliseconds")
		waitFor = flag.Duration("wait", 10*time.Second, "how long to wait for the server to become ready")
		warm    = flag.Bool("expect-warm", false, "require the first run to be served from the persistent store (restart check)")
		dump    = flag.Bool("print-request", false, "print the smoke job as RunRequest JSON (for curl) and exit")
	)
	flag.Parse()

	if *dump {
		data, err := json.Marshal(smokeRequest())
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(data))
		return
	}

	c := asyncnoc.NewServiceClient(*server)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	// Wait for readiness; the server may still be binding its store.
	readyCtx, readyCancel := context.WithTimeout(ctx, *waitFor)
	defer readyCancel()
	for {
		if err := c.Ready(readyCtx); err == nil {
			break
		} else if readyCtx.Err() != nil {
			fatal(fmt.Errorf("server at %s never became ready: %w", *server, err))
		}
		time.Sleep(50 * time.Millisecond)
	}

	for _, job := range []struct {
		name string
		req  asyncnoc.RunRequest
	}{{"mot", smokeRequest()}, {"mesh", meshRequest()}} {
		smoke(ctx, c, job.name, job.req, *warm, *hitMs)
	}
}

// smoke submits req twice and asserts the service contract for it: the
// first response computes (or, warm, is a store hit), the second is a
// fast, byte-identical cache hit, and the committed entry is addressable
// by its job key.
func smoke(ctx context.Context, c *asyncnoc.Client, name string, req asyncnoc.RunRequest, warm bool, hitMs float64) {
	first, err := c.RunJob(ctx, req)
	if err != nil {
		fatal(fmt.Errorf("%s: first run: %w", name, err))
	}
	// A fresh process has a cold memo: only the persistent store can
	// serve its first response, which it must after a restart.
	if first.Cached != warm {
		fatal(fmt.Errorf("%s: first run in a fresh process reported cached=%v with -expect-warm=%v", name, first.Cached, warm))
	}
	if warm && first.ElapsedMs >= hitMs {
		// After a restart the memo is cold but the store is not: the
		// first run must be a disk hit, not a recompute.
		fatal(fmt.Errorf("%s: restarted server recomputed (%.2fms); persistent store not serving", name, first.ElapsedMs))
	}
	fmt.Printf("service-smoke: %s first run %s in %.1fms (latency %.2fns)\n",
		name, first.Key[:12], first.ElapsedMs, first.Result.AvgLatencyNs)

	second, err := c.RunJob(ctx, req)
	if err != nil {
		fatal(fmt.Errorf("%s: second run: %w", name, err))
	}
	if !second.Cached {
		fatal(fmt.Errorf("%s: second identical run was not a cache hit", name))
	}
	if second.ElapsedMs >= hitMs {
		fatal(fmt.Errorf("%s: cache hit took %.2fms, want < %.0fms", name, second.ElapsedMs, hitMs))
	}
	a, _ := json.Marshal(first.Result)
	b, _ := json.Marshal(second.Result)
	if string(a) != string(b) {
		fatal(fmt.Errorf("%s: cached result differs from computed result", name))
	}

	// The committed entry is addressable by its job key. Commits are
	// write-behind, so the entry may land a moment after the run response;
	// poll briefly instead of racing the background writer.
	var job asyncnoc.RunResponse
	var ok bool
	for i := 0; ; i++ {
		job, ok, err = c.Job(ctx, first.Key)
		if err != nil || ok || i >= 40 {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	if err != nil || !ok {
		fatal(fmt.Errorf("%s: GET /v1/jobs/%s: ok=%v err=%v", name, first.Key, ok, err))
	} else if j, _ := json.Marshal(job.Result); string(j) != string(a) {
		fatal(fmt.Errorf("%s: stored entry differs from run response", name))
	}

	fmt.Printf("service-smoke: %s warm hit in %.2fms, byte-identical, addressable by key\n", name, second.ElapsedMs)
}

// smokeRequest is the canonical smoke job: one Fig.6a point on the
// paper's headline network at loadsweep-scale windows.
func smokeRequest() asyncnoc.RunRequest {
	spec, err := asyncnoc.NetworkByName(8, "OptHybridSpeculative")
	if err != nil {
		fatal(err)
	}
	return asyncnoc.RunRequest{
		Spec: spec, Bench: "Multicast10", LoadGFs: 0.3, Seed: 6,
		WarmupPs:  int64(200 * asyncnoc.Nanosecond),
		MeasurePs: int64(1200 * asyncnoc.Nanosecond),
		DrainPs:   int64(600 * asyncnoc.Nanosecond),
	}
}

// meshRequest is the smoke job on a 4x4 tree-multicast mesh: the same
// benchmark and windows over its 16 tiles.
func meshRequest() asyncnoc.RunRequest {
	req := smokeRequest()
	req.Spec = asyncnoc.MeshTree(4, 4)
	return req
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "servicesmoke:", err)
	os.Exit(1)
}
