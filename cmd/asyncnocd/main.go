// Command asyncnocd serves the simulation-as-a-service API: an
// HTTP/JSON front end over the parallel experiment engine and the
// crash-safe persistent result store.
//
//	asyncnocd -addr :8080 -cache-dir /var/cache/asyncnoc
//
// Endpoints:
//
//	POST /v1/run        submit one simulation (RunRequest JSON)
//	POST /v1/sweep      submit one latency-vs-load sweep
//	GET  /v1/jobs/{key} fetch a stored result by job key
//	GET  /healthz       liveness (200 while the process runs)
//	GET  /readyz        readiness (503 while draining or overloaded)
//	GET  /debug/vars    expvar counters (engine memo, store health, admission)
//
// Robustness: at most -max-queue jobs are admitted at once (the rest
// are shed with 429 + Retry-After); every job runs under -request-timeout
// and is canceled mid-simulation when it expires; SIGINT/SIGTERM stops
// admission, drains in-flight jobs for up to -drain-timeout, flushes
// the store, and exits 0.
package main

import (
	"context"
	"expvar"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"asyncnoc/internal/core"
	"asyncnoc/internal/obs"
	"asyncnoc/internal/service"
	"asyncnoc/internal/store"
)

func main() {
	var (
		addr       = flag.String("addr", ":8080", "listen address")
		cacheDir   = flag.String("cache-dir", "", "persistent result store directory (empty = memo only)")
		cacheMax   = flag.Int64("cache-max-bytes", 0, "cache size budget; least-recently-accessed entries are evicted beyond it (0 = unbounded)")
		workers    = flag.Int("workers", 0, "simulation parallelism (0 = GOMAXPROCS)")
		maxQueue   = flag.Int("max-queue", service.DefaultMaxQueue, "admitted-job bound; arrivals beyond it are shed with 429")
		reqTimeout = flag.Duration("request-timeout", service.DefaultRequestTimeout, "per-request deadline")
		drainTime  = flag.Duration("drain-timeout", 30*time.Second, "graceful-shutdown drain deadline")
		memoCap    = flag.Int("memo-cap", core.DefaultMemoCapacity, "in-memory memo capacity (entries)")
	)
	flag.Parse()

	eng := core.NewEngine(*workers)
	eng.SetMemoCapacity(*memoCap)
	var st *store.Store
	if *cacheDir != "" {
		var err error
		st, err = store.Open(*cacheDir)
		if err != nil {
			fatal(err)
		}
		eng.SetStore(st)
		if *cacheMax > 0 {
			// The startup sweep trims a cache left oversized by an earlier
			// run (or a larger budget) before any job is admitted.
			st.SetMaxBytes(*cacheMax)
			fmt.Fprintf(os.Stderr, "asyncnocd: persistent store at %s (budget %d bytes, %d evicted on startup)\n",
				st.Dir(), *cacheMax, st.Stats().Evictions)
		} else {
			fmt.Fprintf(os.Stderr, "asyncnocd: persistent store at %s\n", st.Dir())
		}
	}

	srv := service.NewServer(eng, eng.Store())
	srv.MaxQueue = *maxQueue
	srv.RequestTimeout = *reqTimeout

	obs.PublishVars(eng, nil)
	mux := http.NewServeMux()
	mux.Handle("/", srv.Handler())
	mux.Handle("/debug/vars", expvar.Handler())
	expvar.Publish("asyncnoc.server", expvar.Func(func() any {
		snap := srv.Snapshot()
		return map[string]any{
			"queued": snap.Queued, "queue_cap": snap.QueueCap,
			"admitted": snap.Admitted, "done": snap.Done,
			"shed": snap.Shed, "refused": snap.Refused,
			"timeouts": snap.Timeouts, "sim_errors": snap.SimErrors,
			"draining": snap.Draining,
		}
	}))

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	httpSrv := &http.Server{Handler: mux}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()
	// Print the bound address (not the flag): with -addr :0 the kernel
	// picks the port, and scripts parse this line to find it.
	fmt.Fprintf(os.Stderr, "asyncnocd: serving on %s (workers=%d, max-queue=%d)\n",
		ln.Addr(), eng.Workers(), *maxQueue)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-errCh:
		fatal(err)
	case s := <-sig:
		fmt.Fprintf(os.Stderr, "asyncnocd: %s: draining (up to %s)\n", s, *drainTime)
	}

	// Graceful shutdown: stop admitting (readyz flips to 503, new jobs
	// are refused), let admitted jobs finish under the drain deadline,
	// then flush the store so every computed result is durable.
	srv.BeginDrain()
	ctx, cancel := context.WithTimeout(context.Background(), *drainTime)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "asyncnocd: drain deadline expired: %v\n", err)
	}
	if st != nil {
		if err := st.Close(); err != nil {
			fatal(err)
		}
		stats := st.Stats()
		fmt.Fprintf(os.Stderr, "asyncnocd: store flushed (%d writes, %d hits, %d misses, %d corrupt healed, %d evicted)\n",
			stats.Writes, stats.Hits, stats.Misses, stats.Corrupt, stats.Evictions)
	}
	snap := srv.Snapshot()
	fmt.Fprintf(os.Stderr, "asyncnocd: clean drain: %d jobs done, %d shed, %d refused while draining\n",
		snap.Done, snap.Shed, snap.Refused)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "asyncnocd:", err)
	os.Exit(1)
}
