// Command servicesmoke is the client half of `make service-smoke`: it
// submits the same Fig.6a-style job to a running asyncnocd twice and
// asserts the service contract — the first run computes (or, with
// -expect-warm, is served from the persistent store), the second is a
// cache hit served fast (the handler never starts a simulation).
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

	first, err := c.RunJob(ctx, smokeRequest())
	if err != nil {
		fatal(fmt.Errorf("first run: %w", err))
	}
	// A fresh process has a cold memo: only the persistent store can
	// serve its first response, which it must after a restart.
	if first.Cached != *warm {
		fatal(fmt.Errorf("first run in a fresh process reported cached=%v with -expect-warm=%v", first.Cached, *warm))
	}
	if *warm && first.ElapsedMs >= *hitMs {
		// After a restart the memo is cold but the store is not: the
		// first run must be a disk hit, not a recompute.
		fatal(fmt.Errorf("restarted server recomputed (%.2fms); persistent store not serving", first.ElapsedMs))
	}
	fmt.Printf("service-smoke: first run %s in %.1fms (latency %.2fns)\n",
		first.Key[:12], first.ElapsedMs, first.Result.AvgLatencyNs)

	second, err := c.RunJob(ctx, smokeRequest())
	if err != nil {
		fatal(fmt.Errorf("second run: %w", err))
	}
	if !second.Cached {
		fatal(fmt.Errorf("second identical run was not a cache hit"))
	}
	if second.ElapsedMs >= *hitMs {
		fatal(fmt.Errorf("cache hit took %.2fms, want < %.0fms", second.ElapsedMs, *hitMs))
	}
	a, _ := json.Marshal(first.Result)
	b, _ := json.Marshal(second.Result)
	if string(a) != string(b) {
		fatal(fmt.Errorf("cached result differs from computed result"))
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
		fatal(fmt.Errorf("GET /v1/jobs/%s: ok=%v err=%v", first.Key, ok, err))
	} else if j, _ := json.Marshal(job.Result); string(j) != string(a) {
		fatal(fmt.Errorf("stored entry differs from run response"))
	}

	fmt.Printf("service-smoke: warm hit in %.2fms, byte-identical, addressable by key\n", second.ElapsedMs)
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

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "servicesmoke:", err)
	os.Exit(1)
}
