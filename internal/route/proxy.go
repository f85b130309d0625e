package route

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// Config parametrizes a Router. Backends is required; everything else has
// defaults.
type Config struct {
	// Backends is the full membership (health decides the effective set).
	Backends []Backend
	// Health tunes the /readyz prober.
	Health HealthConfig
	// UpstreamTimeout bounds one proxied request (default 2m — above the
	// backend's own compute deadline, so the backend's 504 wins the race and
	// reaches the client with its taxonomy intact).
	UpstreamTimeout time.Duration
	// MaxRequestBytes bounds a schedule request body (default 8 MiB,
	// matching the backend's admission limit).
	MaxRequestBytes int64
	// MaxIdleConnsPerHost sizes the per-backend connection pool (default 32).
	// Keeping connections warm matters: every routed request to a backend
	// reuses the pool for that host, so the steady state is zero dials.
	MaxIdleConnsPerHost int
}

func (c Config) withDefaults() Config {
	if c.UpstreamTimeout <= 0 {
		c.UpstreamTimeout = 2 * time.Minute
	}
	if c.MaxRequestBytes <= 0 {
		c.MaxRequestBytes = 8 << 20
	}
	if c.MaxIdleConnsPerHost <= 0 {
		c.MaxIdleConnsPerHost = 32
	}
	return c
}

// Router is the stateless routing tier: an http.Handler that forwards every
// request to the rendezvous choice for its key. Schedule requests and job
// submissions are keyed by their graph digest, the id-addressed job
// endpoints by the digest their job id leads with, and everything else by a
// request counter. Create with New, expose via Handler, stop with Shutdown.
type Router struct {
	cfg     Config
	checker *Checker
	client  *http.Client
	// sseClient shares the transport but has no overall timeout: an SSE
	// progress stream legitimately outlives UpstreamTimeout (keep-alive
	// comments keep it non-idle), and its lifetime is bounded by the
	// client's own connection via the request context instead.
	sseClient *http.Client
	metrics   *routerMetrics
	mux       *http.ServeMux

	inflight sync.WaitGroup
	draining atomic.Bool
	seq      atomic.Uint64 // counter key of the unkeyed routes
}

// New builds the router and starts its health checker.
func New(cfg Config) (*Router, error) {
	cfg = cfg.withDefaults()
	checker, err := NewChecker(cfg.Backends, cfg.Health)
	if err != nil {
		return nil, err
	}
	transport := &http.Transport{
		// The backend set is tiny and fixed, so cap the pool per host, not
		// globally, and keep idle connections around for the full keep-alive
		// window: the hot path must not redial.
		MaxIdleConns:        cfg.MaxIdleConnsPerHost * (len(cfg.Backends) + 1),
		MaxIdleConnsPerHost: cfg.MaxIdleConnsPerHost,
		IdleConnTimeout:     90 * time.Second,
		// No decompression or caching surprises between tiers.
		DisableCompression: true,
	}
	r := &Router{
		cfg:       cfg,
		checker:   checker,
		client:    &http.Client{Transport: transport, Timeout: cfg.UpstreamTimeout},
		sseClient: &http.Client{Transport: transport},
		metrics:   newRouterMetrics(checker),
	}
	mux := http.NewServeMux()
	// Job submissions route by the same graph-digest key as /v1/schedule;
	// the id-addressed endpoints (poll, result, SSE, cancel) recover that
	// key from the job id so they land on the owning backend. SSE event
	// streams go through the untimed client: their lifetime is the client
	// connection, not UpstreamTimeout.
	mux.HandleFunc("POST /v1/schedule", r.proxy(r.client, bodyKey))
	mux.HandleFunc("POST /v1/jobs", r.proxy(r.client, bodyKey))
	mux.HandleFunc("/v1/jobs/", r.proxy(r.client, jobKey))
	mux.HandleFunc("/v1/jobs/{id}/events", r.proxy(r.sseClient, jobKey))
	mux.HandleFunc("GET /healthz", r.handleHealthz)
	mux.HandleFunc("GET /readyz", r.handleReadyz)
	mux.HandleFunc("GET /metrics", r.handleMetrics)
	mux.HandleFunc("/", r.proxy(r.client, r.counterKey))
	r.mux = mux
	return r, nil
}

// Handler returns the router's HTTP surface.
func (r *Router) Handler() http.Handler { return r.mux }

// Table exposes the current healthy snapshot (diagnostics and tests).
func (r *Router) Table() *Table { return r.checker.Table() }

// Shutdown drains the router: readiness flips to 503, the health checker
// stops, and in-flight proxied requests run to completion (bounded by ctx).
func (r *Router) Shutdown(ctx context.Context) error {
	r.draining.Store(true)
	r.checker.Stop()
	done := make(chan struct{})
	go func() {
		r.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
		r.client.CloseIdleConnections()
		return nil
	case <-ctx.Done():
		return fmt.Errorf("route: drain interrupted: %w", ctx.Err())
	}
}

// proxy returns the handler of one route. It reads the body, takes the
// request's key, picks the rendezvous choice from one table snapshot,
// forwards through client and relays the answer. Routes differ only in
// where the key comes from and, for SSE, in the client.
func (r *Router) proxy(client *http.Client, keyOf func(*http.Request, []byte) [32]byte) http.HandlerFunc {
	return func(w http.ResponseWriter, req *http.Request) {
		r.inflight.Add(1)
		defer r.inflight.Done()

		body, ok := r.readBody(w, req)
		if !ok {
			return
		}
		key := keyOf(req, body)
		// One table snapshot per request: membership changes mid-flight never
		// split a request's pick/retry pair across two views.
		table := r.checker.Table()
		backend, ok := table.Pick(key[:], "")
		if !ok {
			r.metrics.noBackend.Add(1)
			writeError(w, http.StatusServiceUnavailable, ErrNoBackends.Error())
			return
		}
		resp, start, err := r.forwardVia(client, req, backend, body)
		if err != nil && req.Context().Err() == nil && retriable(err) {
			// Connection refused: the process is gone right now, faster than
			// the prober can notice. Replay once onto the next rendezvous
			// choice, the backend a table without the refusing member would
			// pick. For a job, that backend answers the authoritative 404
			// and owns any resubmit of the same graph.
			if next, ok := table.Pick(key[:], backend.ID); ok {
				r.metrics.retries.Add(1)
				r.metrics.observe(backend.ID, -1, 0, "", "")
				backend = next
				resp, start, err = r.forwardVia(client, req, backend, body)
			}
		}
		r.finish(w, req, backend, resp, start, err)
	}
}

// bodyKey keys a schedule request or a job submission by its graph digest
// (RequestKey). A body without a graph keys by its whole digest: still
// deterministic, and the chosen backend owns the 400.
func bodyKey(_ *http.Request, body []byte) [32]byte {
	key, _ := RequestKey(body)
	return key
}

// jobKey keys an id-addressed job request by the graph digest its job id
// leads with (JobKey), so it lands on the backend that owns the job.
func jobKey(req *http.Request, _ []byte) [32]byte {
	key, _ := JobKey(req.URL.Path)
	return key
}

// counterKey keys a request whose answer does not depend on the backend
// (GET /v1/algorithms and the like) by the router's request counter, which
// spreads such requests over the healthy backends.
func (r *Router) counterKey(*http.Request, []byte) (key [32]byte) {
	binary.LittleEndian.PutUint64(key[:], r.seq.Add(1))
	return key
}

// readBody reads the request body under MaxRequestBytes. On failure it
// answers the client itself, as the backend's own body read does: 413 naming
// the limit for an over-limit body, 400 for any other read error.
func (r *Router) readBody(w http.ResponseWriter, req *http.Request) ([]byte, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, req.Body, r.cfg.MaxRequestBytes))
	if err == nil {
		return body, true
	}
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		writeError(w, http.StatusRequestEntityTooLarge, fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit))
	} else {
		writeError(w, http.StatusBadRequest, "reading body: "+err.Error())
	}
	return nil, false
}

// forwardVia sends one upstream request through client and returns the
// undrained response plus the instant the attempt started (for latency
// accounting in finish).
func (r *Router) forwardVia(client *http.Client, req *http.Request, b Backend, body []byte) (*http.Response, time.Time, error) {
	start := time.Now()
	up, err := http.NewRequestWithContext(req.Context(), req.Method, b.URL+req.URL.RequestURI(), bytes.NewReader(body))
	if err != nil {
		return nil, start, err
	}
	copyHeader(up.Header, req.Header, "Content-Type")
	copyHeader(up.Header, req.Header, "Accept")
	copyHeader(up.Header, req.Header, "X-Request-Id")
	copyHeader(up.Header, req.Header, "Last-Event-ID")
	resp, err := client.Do(up)
	return resp, start, err
}

// statusClientClosed is the conventional status of a request whose client
// hung up before the answer, the code emts-serve files such a request under.
const statusClientClosed = 499

// finish relays the upstream verdict to the client and records metrics.
func (r *Router) finish(w http.ResponseWriter, req *http.Request, b Backend, resp *http.Response, start time.Time, err error) {
	if err != nil {
		switch {
		case req.Context().Err() != nil:
			// The client hung up before the backend answered, which is no
			// fault of the backend's. The 499 goes nowhere but keeps the
			// metrics true.
			r.metrics.observe(b.ID, statusClientClosed, time.Since(start).Seconds(), "", "")
			writeError(w, statusClientClosed, "client cancelled")
		case errors.Is(err, context.DeadlineExceeded):
			r.metrics.observe(b.ID, -1, 0, "", "")
			writeError(w, http.StatusGatewayTimeout, "upstream deadline exceeded")
		default:
			r.metrics.observe(b.ID, -1, 0, "", "")
			writeError(w, http.StatusBadGateway, "upstream unreachable: "+b.ID)
		}
		return
	}
	defer resp.Body.Close()
	h := w.Header()
	copyHeader(h, resp.Header, "Content-Type")
	copyHeader(h, resp.Header, "X-Emts-Cache")
	copyHeader(h, resp.Header, "X-Emts-Interned")
	copyHeader(h, resp.Header, "X-Emts-Instance")
	copyHeader(h, resp.Header, "X-Request-Id")
	copyHeader(h, resp.Header, "Retry-After")
	copyHeader(h, resp.Header, "Location")
	copyHeader(h, resp.Header, "X-Accel-Buffering")
	h.Set("X-Emts-Backend", b.ID)
	w.WriteHeader(resp.StatusCode)
	if strings.HasPrefix(resp.Header.Get("Content-Type"), "text/event-stream") {
		// SSE must not buffer: relay each upstream chunk as it arrives and
		// flush immediately, so progress events and keep-alive comments reach
		// the client in real time instead of pooling in the proxy.
		streamCopy(w, resp.Body)
	} else {
		io.Copy(w, resp.Body)
	}
	r.metrics.observe(b.ID, resp.StatusCode, time.Since(start).Seconds(),
		resp.Header.Get("X-Emts-Cache"), resp.Header.Get("X-Emts-Interned"))
}

// streamCopy relays src to w flushing after every chunk (SSE pass-through).
func streamCopy(w http.ResponseWriter, src io.Reader) {
	f, _ := w.(http.Flusher)
	if f != nil {
		f.Flush() // release the headers before the first (possibly slow) event
	}
	buf := make([]byte, 32*1024)
	for {
		n, err := src.Read(buf)
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				return
			}
			if f != nil {
				f.Flush()
			}
		}
		if err != nil {
			return
		}
	}
}

func (r *Router) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	io.WriteString(w, "ok\n")
}

// handleReadyz mirrors the backend contract: 200 while routable, 503 when
// draining or when the healthy set is empty, JSON detail either way.
func (r *Router) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	healthy := r.checker.Table().Len()
	code := http.StatusOK
	if r.draining.Load() || healthy == 0 {
		code = http.StatusServiceUnavailable
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	fmt.Fprintf(w, "{\"draining\":%v,\"healthy_backends\":%d,\"backends\":%d}\n",
		r.draining.Load(), healthy, len(r.cfg.Backends))
}

func (r *Router) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	r.metrics.WriteTo(w)
}

// retriable reports whether a forward error is safe to replay on another
// backend: only connection refusals qualify (the request never reached a
// handler, so replaying cannot double-execute side effects; scheduling is
// idempotent anyway, but refusal keeps the rule conservative).
func retriable(err error) bool {
	if errors.Is(err, syscall.ECONNREFUSED) {
		return true
	}
	var opErr *net.OpError
	return errors.As(err, &opErr) && opErr.Op == "dial"
}

// copyHeader copies one header key when present.
func copyHeader(dst, src http.Header, key string) {
	if v := src.Get(key); v != "" {
		dst.Set(key, v)
	}
}

// writeError emits the router's JSON error shape (same field name as the
// backend's, so clients parse one format).
func writeError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	b, _ := json.Marshal(struct {
		Error string `json:"error"`
	}{msg})
	w.Write(append(b, '\n'))
}
