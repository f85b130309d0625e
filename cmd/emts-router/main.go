// Command emts-router is the horizontal scale-out tier of the scheduling
// service: a stateless reverse proxy that rendezvous-hashes each
// /v1/schedule request's graph digest onto a set of emts-serve backends, so
// every backend's content-addressed caches (graph/table interns, response
// cache) stay hot for their own slice of the key space instead of holding N
// duplicated copies of the whole working set (DESIGN.md §15).
//
// Usage:
//
//	emts-router -backends 127.0.0.1:8081,127.0.0.1:8082,127.0.0.1:8083
//	            [-addr :8080] [-health-interval 500ms] [-health-timeout 2s]
//	            [-eject-after 3] [-readmit-after 2] [-upstream-timeout 2m]
//	            [-idle-conns 32] [-max-bytes 8388608] [-drain 1m]
//
// Backends may be given as host:port or full http:// URLs; the spelling on
// the command line is the backend's routing identity, so keep it stable
// across restarts (a renamed backend gets a reshuffled key range).
//
// Endpoints:
//
//	POST /v1/schedule  routed by graph digest (retry-once on connection refused)
//	POST /v1/jobs      async submit, routed by the same graph digest
//	     /v1/jobs/...  polls, results, SSE event streams (unbuffered
//	                   pass-through), and cancels, routed by the graph digest
//	                   embedded in the job id — the backend that ran the
//	                   submit owns every later request for that job
//	GET  /healthz      router liveness
//	GET  /readyz       routability (503 while draining or no healthy backends)
//	GET  /metrics      per-backend counters, latency histograms, ejections,
//	                   rebalances, affinity hit counters
//	(anything else)    spread over the healthy backends by a request counter
//
// SIGINT/SIGTERM drain gracefully: readiness flips to 503, in-flight proxied
// requests finish, then the listener closes.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"emts/internal/route"
)

func main() {
	var (
		addr           = flag.String("addr", ":8080", "listen address")
		backends       = flag.String("backends", "", "comma-separated backend addresses (host:port or URL); required")
		healthInterval = flag.Duration("health-interval", 500*time.Millisecond, "interval between /readyz probe rounds")
		healthTimeout  = flag.Duration("health-timeout", 2*time.Second, "per-probe timeout")
		ejectAfter     = flag.Int("eject-after", 3, "consecutive probe failures that eject a backend")
		readmitAfter   = flag.Int("readmit-after", 2, "consecutive probe successes that re-admit a backend")
		upstreamTO     = flag.Duration("upstream-timeout", 2*time.Minute, "per-request upstream timeout")
		idleConns      = flag.Int("idle-conns", 32, "idle connections kept per backend")
		maxBytes       = flag.Int64("max-bytes", 8<<20, "largest accepted request body")
		drainWait      = flag.Duration("drain", time.Minute, "shutdown drain budget")
	)
	flag.Parse()
	if err := serve(*addr, *backends, route.HealthConfig{
		Interval:     *healthInterval,
		Timeout:      *healthTimeout,
		EjectAfter:   *ejectAfter,
		ReadmitAfter: *readmitAfter,
	}, *upstreamTO, *idleConns, *maxBytes, *drainWait); err != nil {
		fmt.Fprintln(os.Stderr, "emts-router:", err)
		os.Exit(1)
	}
}

// parseBackends maps the -backends flag to route.Backend values. The given
// spelling is the ID; the URL gains an http:// scheme when missing.
func parseBackends(spec string) ([]route.Backend, error) {
	var out []route.Backend
	for _, f := range strings.Split(spec, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		url := f
		if !strings.Contains(url, "://") {
			url = "http://" + url
		}
		out = append(out, route.Backend{ID: f, URL: strings.TrimSuffix(url, "/")})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no backends in -backends")
	}
	return out, nil
}

func serve(addr, backendSpec string, health route.HealthConfig, upstreamTO time.Duration, idleConns int, maxBytes int64, drainWait time.Duration) error {
	backends, err := parseBackends(backendSpec)
	if err != nil {
		return err
	}
	router, err := route.New(route.Config{
		Backends:            backends,
		Health:              health,
		UpstreamTimeout:     upstreamTO,
		MaxRequestBytes:     maxBytes,
		MaxIdleConnsPerHost: idleConns,
	})
	if err != nil {
		return err
	}
	httpSrv := &http.Server{
		Addr:              addr,
		Handler:           router.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	errCh := make(chan error, 1)
	go func() {
		fmt.Fprintf(os.Stderr, "emts-router: listening on %s, %d backends\n", addr, len(backends))
		errCh <- httpSrv.ListenAndServe()
	}()

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		return err // listener failed before any signal
	case sig := <-sigCh:
		fmt.Fprintf(os.Stderr, "emts-router: %s, draining\n", sig)
	}

	ctx, cancel := context.WithTimeout(context.Background(), drainWait)
	defer cancel()
	// Drain order mirrors emts-serve: routing tier first (readyz flips, the
	// in-flight proxied requests complete), then the listener.
	if err := router.Shutdown(ctx); err != nil {
		return err
	}
	if err := httpSrv.Shutdown(ctx); err != nil {
		return err
	}
	if err := <-errCh; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	fmt.Fprintln(os.Stderr, "emts-router: drained, bye")
	return nil
}
