// Command raderd serves race analysis over HTTP — the daemon face of the
// paper's record-once/analyze-many workflow (§8). Traces recorded with
// rader -record are uploaded to /analyze and replayed under any detector
// server-side; named built-in programs analyze and sweep without an
// upload. Verdicts are memoized in an LRU cache addressed by the trace's
// SHA-256 content digest, so resubmitting a trace costs one cache lookup.
//
// Usage:
//
//	raderd -addr :8735 -workers 8 -queue 16 -store-dir /var/lib/raderd
//	rader -remote http://localhost:8735 -replay t.trace
//
// Endpoints: POST /analyze, POST /sweep, GET /sweep/{id}, PUT/HEAD
// /traces/{digest}, GET /healthz, GET /readyz, GET /metrics (Prometheus
// text). The usual Go debug surfaces ride along: GET /debug/pprof/*
// (CPU, heap, goroutine profiles) and GET /debug/vars (the metric series
// as flat JSON, plus expvar's standard memstats). Every request is logged
// structured (log/slog) to stderr under the same per-request ID its
// /debug/requests entry carries; -quiet silences the log. Capacity, cache
// and per-job limits are flags; see docs/SERVICE.md for the full API and
// failure-mode table.
//
// With -store-dir the daemon is crash-safe: verdicts and uploaded traces
// live in a disk-backed content-addressed store, sweep jobs are
// journaled and re-enqueued after a crash, and a startup recovery scan
// quarantines any torn or corrupt file instead of dying on it. SIGTERM
// triggers a graceful drain: /readyz flips to 503 first (so balancers
// stop routing here), in-flight work finishes up to -drain-timeout, and
// /healthz stays 200 until the process actually exits. See
// docs/ROBUSTNESS.md for the durability model.
package main

import (
	"context"
	"expvar"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/service"
)

// Exit codes: 0 clean shutdown, 2 configuration or listen failure.
const (
	exitOK    = 0
	exitError = 2
)

func main() {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, sig))
}

// run is main with its dependencies injected: tests drive it with their
// own listener address and shutdown channel.
func run(args []string, stdout, stderr io.Writer, shutdown <-chan os.Signal) int {
	fs := flag.NewFlagSet("raderd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr        = fs.String("addr", ":8735", "listen address")
		workers     = fs.Int("workers", 4, "max concurrent analyses")
		queue       = fs.Int("queue", 0, "max queued requests beyond the workers (0 = 2x workers); overflow is shed with 429")
		cacheSize   = fs.Int("cache", 256, "result-cache capacity in entries")
		eventBudget = fs.Int64("event-budget", 50_000_000, "per-job event budget (-1 = unlimited)")
		jobTimeout  = fs.Duration("job-timeout", 60*time.Second, "per-job wall-time bound")
		sweepWkrs   = fs.Int("sweep-workers", 0, "per-sweep parallelism (0 = workers)")
		maxUpload   = fs.Int64("max-upload", 64<<20, "max uploaded trace bytes (per chunk for resumable ingest)")
		keepJobs    = fs.Int("keep-jobs", 64, "finished sweep jobs retained for polling")
		cacheBytes  = fs.Int64("cache-bytes", 64<<20, "result-cache capacity in bytes")
		storeDir    = fs.String("store-dir", "", "root of the durable trace+verdict store (empty = in-memory only)")
		drainWait   = fs.Duration("drain-timeout", 30*time.Second, "graceful-shutdown bound: how long to wait for in-flight work before exiting")
		quiet       = fs.Bool("quiet", false, "suppress per-request structured logs")
	)
	if err := fs.Parse(args); err != nil {
		return exitError
	}

	logDst := io.Writer(stderr)
	if *quiet {
		logDst = io.Discard
	}
	logger := slog.New(slog.NewTextHandler(logDst, nil))

	srv, err := service.Open(service.Config{
		Workers:        *workers,
		QueueDepth:     *queue,
		CacheEntries:   *cacheSize,
		CacheBytes:     *cacheBytes,
		StoreDir:       *storeDir,
		EventBudget:    *eventBudget,
		JobTimeout:     *jobTimeout,
		SweepWorkers:   *sweepWkrs,
		MaxUploadBytes: *maxUpload,
		KeepJobs:       *keepJobs,
		Logger:         logger,
	})
	if err != nil {
		// A daemon that cannot open its durable store must fail loudly —
		// limping along non-durable would silently break the crash-safety
		// contract clients rely on.
		fmt.Fprintln(stderr, "raderd:", err)
		return exitError
	}
	publishDebugVars(srv)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(stderr, "raderd:", err)
		return exitError
	}
	hs := &http.Server{Handler: debugMux(srv)}
	fmt.Fprintf(stdout, "raderd listening on %s (workers=%d queue=%d cache=%d)\n",
		ln.Addr(), *workers, *queue, *cacheSize)
	if banner := srv.RecoveryBanner(); banner != "" {
		fmt.Fprintf(stdout, "raderd: store %s: %s\n", *storeDir, banner)
	}

	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		fmt.Fprintln(stderr, "raderd:", err)
		return exitError
	case <-shutdown:
		// Graceful drain, in contract order: readiness goes dark first
		// (srv.Drain flips /readyz to 503 and refuses new work at
		// admission), in-flight requests and journaled jobs get up to
		// -drain-timeout to finish, and only then does the listener — and
		// with it /healthz — go away. Work that does not finish in time
		// stays journaled in the store and re-runs on the next start.
		fmt.Fprintln(stdout, "raderd: draining")
		ctx, cancel := context.WithTimeout(context.Background(), *drainWait)
		defer cancel()
		if err := srv.Drain(ctx); err != nil {
			fmt.Fprintln(stderr, "raderd: drain:", err)
		}
		if err := hs.Shutdown(ctx); err != nil {
			fmt.Fprintln(stderr, "raderd: shutdown:", err)
			return exitError
		}
		fmt.Fprintln(stdout, "raderd: drained, exiting")
		return exitOK
	}
}

// debugMux serves the service routes and the standard Go debug surfaces:
// net/http/pprof's profile handlers and expvar's /debug/vars, recorded by
// the same service wrapper as every other route. The pprof handlers are
// registered explicitly because the daemon mounts its own mux — the
// package's DefaultServeMux side effects never apply here.
func debugMux(srv *service.Server) http.Handler {
	debug := http.NewServeMux()
	debug.HandleFunc("/debug/pprof/", pprof.Index)
	debug.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	debug.HandleFunc("/debug/pprof/profile", pprof.Profile)
	debug.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	debug.HandleFunc("/debug/pprof/trace", pprof.Trace)
	debug.Handle("/debug/vars", expvar.Handler())
	mux := http.NewServeMux()
	mux.Handle("/", srv.Handler())
	mux.Handle("/debug/pprof/", srv.Record(debug))
	mux.Handle("/debug/vars", srv.Record(debug))
	return mux
}

// The expvar registry is process-global and Publish panics on duplicates,
// but run() is re-entered by tests — so the "raderd" var is published once
// and reads through an atomic pointer to whichever server is current.
var (
	debugSrv    atomic.Pointer[service.Server]
	publishOnce sync.Once
)

func publishDebugVars(srv *service.Server) {
	debugSrv.Store(srv)
	publishOnce.Do(func() {
		expvar.Publish("raderd", expvar.Func(func() any {
			if s := debugSrv.Load(); s != nil {
				return s.MetricsSnapshot()
			}
			return nil
		}))
	})
}
