// Command emts-serve runs the EMTS scheduling service: an HTTP/JSON API over
// every scheduler in the repository, with a bounded worker pool, admission
// control, request deadlines, a canonical-hash response cache, Prometheus
// metrics, and graceful shutdown.
//
// Usage:
//
//	emts-serve [-addr :8080] [-workers N] [-queue 64] [-timeout 30s]
//	           [-cache 256] [-max-tasks 20000] [-max-islands 16]
//	           [-quiet] [-instance id]
//	           [-graph-entries 64] [-table-entries 128]
//	           [-max-jobs 256] [-job-ttl 10m] [-sse-keepalive 15s]
//	           [-no-governor]
//	           [-pprof addr] [-mutex-profile-fraction 0] [-block-profile-rate 0]
//
// Negative -graph-entries and -table-entries disable graph/table interning
// and -no-governor disables the CPU governor, the two pieces of the
// cross-request performance layer, for A/B measurement; responses are
// bit-identical either way.
//
// -pprof starts net/http/pprof on a second listener (e.g. localhost:6060),
// kept off the service address so profiles are never internet-facing by
// accident. See README "Profiling" for the workflow.
//
// Endpoints:
//
//	POST   /v1/schedule          schedule a PTG (see README "Serving")
//	POST   /v1/jobs              submit an async job (same body; 202 + id)
//	GET    /v1/jobs/{id}         poll job status/result
//	GET    /v1/jobs/{id}/result  the raw final response (byte-identical to
//	                             the synchronous answer)
//	GET    /v1/jobs/{id}/events  SSE per-generation progress stream
//	DELETE /v1/jobs/{id}         cancel; mid-run returns the incumbent as a
//	                             "cancelled-with-result" anytime answer
//	GET    /v1/algorithms        list accepted algorithm and model names
//	GET    /healthz              liveness
//	GET    /readyz               readiness (503 while draining)
//	GET    /metrics              Prometheus text metrics
//
// SIGINT/SIGTERM initiate a graceful shutdown: readiness flips to 503,
// queued requests finish, then the listener closes.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"emts/internal/server"
)

func main() {
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		workers   = flag.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
		queue     = flag.Int("queue", 64, "admission queue depth (overflow returns 429)")
		timeout   = flag.Duration("timeout", 30*time.Second, "per-request compute deadline (negative disables)")
		cache     = flag.Int("cache", 256, "response cache entries (negative disables)")
		maxTasks  = flag.Int("max-tasks", 20000, "largest accepted graph (negative disables)")
		maxIsl    = flag.Int("max-islands", 0, "largest accepted islands request (0 = default 16, negative disables)")
		drainWait = flag.Duration("drain", time.Minute, "shutdown drain budget")
		quiet     = flag.Bool("quiet", false, "suppress request logs")
		instance  = flag.String("instance", "", "instance id stamped on responses as X-Emts-Instance (empty omits the header)")

		graphEntries = flag.Int("graph-entries", 0, "interned-graph LRU entries (0 = default 64, negative disables)")
		tableEntries = flag.Int("table-entries", 0, "interned-table LRU entries (0 = default 128, negative disables)")
		maxJobs      = flag.Int("max-jobs", 0, "async job store bound (0 = default 256, negative disables /v1/jobs)")
		jobTTL       = flag.Duration("job-ttl", 0, "finished-job retention for polling and SSE replay (0 = default 10m)")
		sseKeepalive = flag.Duration("sse-keepalive", 0, "SSE keep-alive comment period (0 = default 15s)")
		noGovernor   = flag.Bool("no-governor", false, "disable the CPU governor (A/B switch)")

		pprofAddr     = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060; empty disables)")
		mutexFraction = flag.Int("mutex-profile-fraction", 0, "runtime.SetMutexProfileFraction value (0 disables)")
		blockRate     = flag.Int("block-profile-rate", 0, "runtime.SetBlockProfileRate value in ns (0 disables)")
	)
	flag.Parse()
	var logW io.Writer = os.Stderr
	if *quiet {
		logW = nil
	}
	cfg := server.Config{
		Workers:         *workers,
		QueueDepth:      *queue,
		RequestTimeout:  *timeout,
		CacheEntries:    *cache,
		MaxTasks:        *maxTasks,
		MaxIslands:      *maxIsl,
		LogWriter:       logW,
		InstanceID:      *instance,
		GraphEntries:    *graphEntries,
		TableEntries:    *tableEntries,
		MaxJobs:         *maxJobs,
		JobTTL:          *jobTTL,
		SSEKeepAlive:    *sseKeepalive,
		DisableGovernor: *noGovernor,
	}
	if *mutexFraction > 0 {
		runtime.SetMutexProfileFraction(*mutexFraction)
	}
	if *blockRate > 0 {
		runtime.SetBlockProfileRate(*blockRate)
	}
	if *pprofAddr != "" {
		go servePprof(*pprofAddr)
	}
	if err := serve(*addr, cfg, *drainWait); err != nil {
		fmt.Fprintln(os.Stderr, "emts-serve:", err)
		os.Exit(1)
	}
}

// servePprof exposes the net/http/pprof handlers on their own listener and
// mux — deliberately not the service mux, so the profiling surface is bound
// to a loopback address while the API faces the network. Failure to listen is
// logged, not fatal: profiling is an operator convenience.
func servePprof(addr string) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	srv := &http.Server{Addr: addr, Handler: mux, ReadHeaderTimeout: 10 * time.Second}
	fmt.Fprintf(os.Stderr, "emts-serve: pprof on %s\n", addr)
	if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "emts-serve: pprof listener:", err)
	}
}

func serve(addr string, cfg server.Config, drainWait time.Duration) error {
	svc := server.New(cfg)
	httpSrv := &http.Server{
		Addr:              addr,
		Handler:           svc.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	errCh := make(chan error, 1)
	go func() {
		fmt.Fprintf(os.Stderr, "emts-serve: listening on %s\n", addr)
		errCh <- httpSrv.ListenAndServe()
	}()

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		return err // listener failed before any signal
	case sig := <-sigCh:
		fmt.Fprintf(os.Stderr, "emts-serve: %s, draining\n", sig)
	}

	ctx, cancel := context.WithTimeout(context.Background(), drainWait)
	defer cancel()
	// Drain order: service first (readiness flips, queue drains, workers
	// idle), then the HTTP listener (open connections finish their writes).
	if err := svc.Shutdown(ctx); err != nil {
		return err
	}
	if err := httpSrv.Shutdown(ctx); err != nil {
		return err
	}
	if err := <-errCh; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	fmt.Fprintln(os.Stderr, "emts-serve: drained, bye")
	return nil
}
