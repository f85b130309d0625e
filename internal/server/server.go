// Package server implements emts-serve: a stdlib-only HTTP/JSON scheduling
// service in front of the simulator's by-name interface (package sim).
//
// # Request lifecycle
//
// POST /v1/schedule carries a PTG (the dag JSON codec), a cluster, a model
// name, an algorithm name, and a seed. The handler decodes the envelope in
// one pass with a dag.Scanner, which delimits the graph's raw bytes without
// decoding them; bodies outside the scanner's plain JSON subset go to
// encoding/json, which alone decides their acceptance and error text. The
// graph's raw bytes are looked up in the graph intern (intern.RawKey); a
// miss decodes them (dag.UnmarshalGraph, the same scanner-or-encoding/json
// split) and appends the canonical encoding the keys digest. The handler
// validates the request with typed errors (400) and, last, resolves the model
// and algorithm names to a sim.Plan: an unknown name is a 400 that takes no
// queue slot, builds no table, creates no job and labels no metric, and an
// alias keys, caches and labels as its canonical name. The handler then
// consults a canonical-hash response cache (an intern.LRU, the one the graph
// and table interns use), and admits the request to a depth-limited queue in
// front of a bounded worker pool; queue overflow returns 429 with
// Retry-After. The worker builds or reuses the V×P table (model.NewTable
// fills Amdahl and Synthetic rows without a per-cell interface call; a task
// with no positive finite time is the client's 400) and runs the plan. Each
// admitted request carries a context assembled from the client connection
// and the per-request deadline, and the evolutionary algorithm observes
// that context before every epoch (ea.Run: every generation, or
// every migration interval with islands > 1) — a dropped connection or an
// expired deadline stops an in-flight optimization within one epoch, at
// zero cost on the hot fitness path.
//
// Because every scheduler in the repository is deterministic under a fixed
// seed, the response body is a pure function of the request (wall-clock
// observables live in logs and /metrics only), which is what makes the
// response cache exact: repeat submissions are byte-identical replays.
//
// # Operations
//
// /healthz reports process liveness, /readyz flips to 503 the moment
// shutdown begins (so load balancers drain ahead of the listener closing),
// and /metrics exposes Prometheus text series, written by internal/metrics
// as emts-router's are: request counts, queue depth, in-flight gauge, cache
// hit/miss counters, and per-algorithm latency histograms. Shutdown stops
// admission, drains the queue, and waits for the workers to go idle.
package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"emts/internal/dag"
	"emts/internal/intern"
	"emts/internal/jobs"
	"emts/internal/model"
	"emts/internal/platform"
	"emts/internal/sim"
)

// Config parametrizes a Server. The zero value gets sensible defaults from
// New.
type Config struct {
	// Workers bounds the number of concurrent schedule computations
	// (default: GOMAXPROCS).
	Workers int
	// QueueDepth bounds the admission queue in front of the workers
	// (default 64). A full queue answers 429 with Retry-After.
	QueueDepth int
	// RequestTimeout is the per-request compute deadline (default 30s;
	// negative disables). Requests may lower it via timeout_ms, never raise
	// it.
	RequestTimeout time.Duration
	// CacheEntries bounds the canonical-hash response cache (default 256;
	// negative disables caching).
	CacheEntries int
	// MaxTasks rejects graphs larger than this at admission (default 20000;
	// negative disables the limit).
	MaxTasks int
	// MaxIslands rejects requests asking for more EA islands than this at
	// admission (default 16; negative disables the limit). Each island runs
	// its own subpopulation, so the cap bounds per-request memory the same
	// way MaxTasks bounds graph size.
	MaxIslands int
	// LogWriter receives JSON-line request logs (nil disables logging).
	LogWriter io.Writer
	// InstanceID, when non-empty, is stamped on every response as the
	// X-Emts-Instance header. The routing tier's tests and smoke harness use
	// it to assert which backend actually served a request.
	InstanceID string
	// GraphEntries bounds the interned-graph LRU (default 64; negative
	// disables graph interning: every request then decodes its graph).
	GraphEntries int
	// TableEntries bounds the interned-table LRU (default 128; negative
	// disables table interning: every request then builds its table).
	// Responses are bit-identical whatever the two bounds (interned objects
	// are immutable and keyed by content), so negative values of both are
	// the interning A/B switch.
	TableEntries int
	// DisableGovernor turns off the global CPU governor: every run then
	// fans out to GOMAXPROCS EA workers regardless of concurrent load.
	// Responses are bit-identical either way (ea results are independent of
	// worker count) — the switch exists for A/B measurement and the
	// determinism meta-tests.
	DisableGovernor bool
	// MaxJobs bounds the async job store behind /v1/jobs (default 256;
	// negative disables the job API entirely — the routes are then not
	// registered). A full store answers 429, like queue admission.
	MaxJobs int
	// JobTTL is how long a finished job's result and event log stay
	// available for polling and SSE replay (default 10m).
	JobTTL time.Duration
	// SSEKeepAlive is the comment-frame period on idle /v1/jobs/{id}/events
	// streams, keeping proxies from severing them (default 15s).
	SSEKeepAlive time.Duration
}

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.RequestTimeout == 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 256
	}
	if c.MaxTasks == 0 {
		c.MaxTasks = 20000
	}
	if c.MaxIslands == 0 {
		c.MaxIslands = 16
	}
	if c.GraphEntries == 0 {
		c.GraphEntries = intern.DefaultEntries
	}
	if c.TableEntries == 0 {
		c.TableEntries = 2 * intern.DefaultEntries
	}
	if c.MaxJobs == 0 {
		c.MaxJobs = 256
	}
	if c.JobTTL <= 0 {
		c.JobTTL = 10 * time.Minute
	}
	if c.SSEKeepAlive <= 0 {
		c.SSEKeepAlive = 15 * time.Second
	}
	return c
}

// runFunc is the compute seam: production servers run the request's plan
// with (*sim.Plan).RunTable; lifecycle tests substitute controllable stubs.
// The table is resolved by the server (through the intern when enabled)
// before the seam is crossed.
type runFunc func(p *sim.Plan, ctx context.Context, g *dag.Graph, cluster platform.Cluster, tab *model.Table) (*sim.Report, error)

// Server is the scheduling service. Create with New, expose via Handler, and
// stop with Shutdown.
type Server struct {
	cfg     Config
	mux     *http.ServeMux
	metrics *registry
	log     *logger
	run     runFunc

	queue   chan *job
	workers sync.WaitGroup

	// admission guards queue against send-after-close: enqueuers hold the
	// read lock, Shutdown takes the write lock to flip draining and close the
	// queue exactly once.
	admission sync.RWMutex
	draining  bool

	// cache maps canonical request keys to 200 response bodies (exact, see
	// the package comment); nil when Config.CacheEntries < 0.
	cache *intern.LRU[string, []byte]

	// Cross-request performance layer (DESIGN.md §12): content-addressed
	// graph/table interns and the CPU governor. Each is nil when its Config
	// setting disables it; responses are bit-identical in every combination.
	graphs *intern.Graphs
	tables *intern.Tables
	gov    *governor

	// jobStore backs the /v1/jobs API; nil when Config.MaxJobs < 0.
	jobStore *jobs.Store

	reqID atomic.Uint64
	ready atomic.Bool
}

// job is one admitted schedule computation.
type job struct {
	ctx    context.Context
	parsed *parsedRequest
	// result is buffered (capacity 1): the worker never blocks on a handler
	// that gave up waiting.
	result chan jobResult
	// anytime marks an async job: a mid-run cancellation then salvages the
	// EA's incumbent as a 200 "anytime" result instead of a 499/504. The
	// synchronous path leaves it false and keeps its status-code contract.
	anytime bool
	// started, when non-nil, is called by the worker the moment the job
	// leaves the queue (the jobs store's queued → running transition).
	started func()
}

// jobResult is the worker's verdict: an HTTP status, a response body, and the
// classified outcome label for metrics.
type jobResult struct {
	code    int
	body    []byte
	outcome string
	// interned is the X-Emts-Interned header value ("graph", "table",
	// "graph,table", or "") describing which interned objects served this
	// computation.
	interned string
}

// New builds the server and starts its worker pool.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		metrics: newRegistry(),
		queue:   make(chan *job, cfg.QueueDepth),
		run:     (*sim.Plan).RunTable,
	}
	if cfg.LogWriter != nil {
		s.log = &logger{w: cfg.LogWriter}
	}
	if cfg.CacheEntries > 0 {
		s.cache = intern.NewLRU[string, []byte](cfg.CacheEntries)
	}
	if cfg.GraphEntries > 0 {
		s.graphs = intern.NewGraphs(cfg.GraphEntries)
	}
	if cfg.TableEntries > 0 {
		s.tables = intern.NewTables(cfg.TableEntries)
	}
	if !cfg.DisableGovernor {
		s.gov = newGovernor(runtime.GOMAXPROCS(0))
	}
	s.metrics.queueDepth = func() int { return len(s.queue) }
	s.metrics.queueCapacity = cfg.QueueDepth
	if s.cache != nil {
		s.metrics.cacheEntries = s.cache.Len
	}
	if s.graphs != nil {
		s.metrics.graphStats = s.graphs.Stats
	}
	if s.tables != nil {
		s.metrics.tableStats = s.tables.Stats
	}
	if s.gov != nil {
		s.metrics.governorAvailable = s.gov.Available
		s.metrics.governorCapacity = s.gov.capacity
	}

	if cfg.MaxJobs > 0 {
		s.jobStore = jobs.NewStore(jobs.Config{MaxJobs: cfg.MaxJobs, TTL: cfg.JobTTL})
		s.metrics.jobStates = s.jobStore.Counts
	}

	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/schedule", s.handleSchedule)
	mux.HandleFunc("GET /v1/algorithms", s.handleAlgorithms)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	if s.jobStore != nil {
		mux.HandleFunc("POST /v1/jobs", s.handleJobSubmit)
		mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobGet)
		mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleJobResult)
		mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleJobEvents)
		mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleJobCancel)
	}
	s.mux = mux

	for i := 0; i < cfg.Workers; i++ {
		s.workers.Add(1)
		go s.worker()
	}
	s.ready.Store(true)
	return s
}

// maxRequestIDLen bounds a caller-supplied X-Request-Id. The id is echoed in
// the response header and written to the access log, so a longer one is
// replaced by a minted id, as a missing one is.
const maxRequestIDLen = 128

// Handler returns the HTTP handler tree, wrapped with request-ID assignment,
// status accounting, and structured logging.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get("X-Request-Id")
		if id == "" || len(id) > maxRequestIDLen {
			id = "r" + strconv.FormatUint(s.reqID.Add(1), 10)
		}
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		rec.Header().Set("X-Request-Id", id)
		if s.cfg.InstanceID != "" {
			rec.Header().Set("X-Emts-Instance", s.cfg.InstanceID)
		}
		start := time.Now()
		s.mux.ServeHTTP(rec, r)
		s.metrics.countRequest(rec.code)
		s.log.log(accessLog{
			Req:    id,
			Method: r.Method,
			Path:   r.URL.Path,
			Code:   rec.code,
			DurMS:  float64(time.Since(start)) / float64(time.Millisecond),
			Cache:  rec.Header().Get("X-Emts-Cache"),
		})
	})
}

// Shutdown drains the service: readiness flips to 503 immediately, admission
// of new work stops (503), queued and in-flight jobs run to completion, and
// the worker pool exits. It returns ctx's error if draining outlasts it; the
// pool keeps draining in the background in that case.
func (s *Server) Shutdown(ctx context.Context) error {
	s.ready.Store(false)
	s.admission.Lock()
	if !s.draining {
		s.draining = true
		close(s.queue)
	}
	s.admission.Unlock()
	if s.jobStore != nil {
		// Stop the sweeper and cancel every non-terminal job: queued and
		// running jobs then finalize as cancelled (or cancelled-with-result)
		// within one EA generation, so the drain below is prompt.
		s.jobStore.Close()
	}
	done := make(chan struct{})
	go func() {
		s.workers.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("server: drain interrupted: %w", ctx.Err())
	}
}

// worker executes admitted jobs until the queue closes and drains.
func (s *Server) worker() {
	defer s.workers.Done()
	for j := range s.queue {
		s.metrics.inflight.Add(1)
		if j.started != nil {
			j.started()
		}
		res := s.compute(j)
		// Leave the gauge before the handler can answer: a client that
		// reads /metrics after its response must not count itself.
		s.metrics.inflight.Add(-1)
		j.result <- res
	}
}

// resolveTable builds (or fetches from the intern) the execution-time table
// for the request's graph, model, and cluster. Interned hits skip the V×P
// model evaluation entirely. Errors come from model.NewTable, identical with
// or without the intern.
func (s *Server) resolveTable(p *parsedRequest) (tab *model.Table, interned bool, err error) {
	build := func() (*model.Table, error) { return model.NewTable(p.graph, p.plan.Model, p.cluster) }
	if s.tables == nil {
		tab, err = build()
		return tab, false, err
	}
	key := intern.TableKey{GraphKey: p.graphKey, Model: p.plan.ModelName, Cluster: p.cluster}
	return s.tables.Get(key, build)
}

// errorResult classifies a computation failure into an HTTP result. A table
// cell without a positive finite time comes from the client's task
// parameters, so it is a 400 like the admission checks.
func (s *Server) errorResult(err error, algorithm string) jobResult {
	var cellErr *model.CellError
	switch {
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return s.cancelResult(err, algorithm)
	case errors.As(err, &cellErr):
		s.metrics.countOutcome(algorithm, "client_error")
		return jobResult{code: http.StatusBadRequest, body: errorBody(err.Error(), ""), outcome: "client_error"}
	default:
		s.metrics.countOutcome(algorithm, "error")
		return jobResult{code: http.StatusInternalServerError, body: errorBody(err.Error(), ""), outcome: "error"}
	}
}

// compute runs one schedule computation and classifies the outcome.
func (s *Server) compute(j *job) jobResult {
	p := j.parsed
	algorithm := p.plan.Algorithm
	// The client may have vanished (or the deadline passed) while the job sat
	// in the queue; skip the work entirely in that case.
	if err := j.ctx.Err(); err != nil {
		return s.cancelResult(err, algorithm)
	}
	tab, tableInterned, err := s.resolveTable(p)
	if err != nil {
		return s.errorResult(err, algorithm)
	}
	interned := ""
	switch {
	case p.graphInterned && tableInterned:
		interned = "graph,table"
	case p.graphInterned:
		interned = "graph"
	case tableInterned:
		interned = "table"
	}

	// The governor sizes this run's EA parallelism to the tokens currently
	// free; responses are identical for any grant (worker-count-independent
	// engine), so only throughput depends on the grant.
	if s.gov != nil {
		tokens, release := s.gov.acquire()
		defer release()
		if p.plan.Params != nil {
			p.plan.Params.Workers = tokens
		}
	}

	start := time.Now()
	rep, err := s.run(p.plan, j.ctx, p.graph, p.cluster, tab)
	elapsed := time.Since(start)
	if err != nil {
		// Anytime salvage (async jobs only): a mid-run cancellation that
		// still yielded a materialized incumbent (see sim.Plan.RunTable) is a
		// first-class 200 answer. It is deliberately NOT inserted into the
		// response cache — the partial result is not the canonical response
		// for this digest. The synchronous path keeps its 504/499 contract.
		if j.anytime && rep != nil &&
			(errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
			body, merr := marshalResponse(rep)
			if merr == nil {
				s.metrics.countOutcome(algorithm, "anytime")
				return jobResult{code: http.StatusOK, body: body, outcome: "anytime", interned: interned}
			}
		}
		return s.errorResult(err, algorithm)
	}
	body, merr := marshalResponse(rep)
	if merr != nil {
		s.metrics.countOutcome(algorithm, "error")
		return jobResult{code: http.StatusInternalServerError, body: errorBody("encoding response: "+merr.Error(), ""), outcome: "error"}
	}
	s.metrics.countOutcome(algorithm, "ok")
	s.metrics.observeLatency(algorithm, elapsed.Seconds())
	if s.cache != nil {
		s.cache.Add(p.key, body)
	}
	return jobResult{code: http.StatusOK, body: body, outcome: "ok", interned: interned}
}

// cancelResult classifies a context failure: deadline expiry is reported as
// 504 (the handler may still be waiting on the result), client cancellation
// as the conventional 499 (undeliverable — the connection is gone — but it
// keeps the accounting honest).
func (s *Server) cancelResult(err error, algorithm string) jobResult {
	if errors.Is(err, context.DeadlineExceeded) {
		s.metrics.countOutcome(algorithm, "deadline")
		return jobResult{code: http.StatusGatewayTimeout, body: errorBody("deadline exceeded", ""), outcome: "deadline"}
	}
	s.metrics.countOutcome(algorithm, "cancelled")
	return jobResult{code: 499, body: errorBody("client cancelled", ""), outcome: "cancelled"}
}

// handleSchedule is the POST /v1/schedule lifecycle described in the package
// comment.
func (s *Server) handleSchedule(w http.ResponseWriter, r *http.Request) {
	body, err := readRequestBody(w, r)
	if err != nil {
		return // readRequestBody already answered
	}
	parsed, err := parseScheduleRequest(body, s.maxTasks(), s.maxIslands(), s.graphs)
	if err != nil {
		writeParseError(w, err)
		return
	}

	// Cache fast path: a hit bypasses admission entirely.
	var cached []byte
	hit := false
	if s.cache != nil {
		cached, hit = s.cache.Get(parsed.key)
	}
	if hit {
		s.metrics.cacheHits.Add(1)
		w.Header().Set("X-Emts-Cache", "hit")
		if parsed.graphInterned {
			// Only the graph component is known on the fast path — no table
			// was consulted.
			w.Header().Set("X-Emts-Interned", "graph")
		}
		writeBody(w, http.StatusOK, cached)
		return
	}
	s.metrics.cacheMisses.Add(1)
	w.Header().Set("X-Emts-Cache", "miss")

	ctx := r.Context()
	if timeout := s.requestTimeout(parsed); timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	j := &job{ctx: ctx, parsed: parsed, result: make(chan jobResult, 1)}
	if err := s.enqueue(j); err != nil {
		s.refuse(w, err)
		return
	}

	// Either the worker answers, or the context ends first — on deadline the
	// client gets a prompt 504 instead of waiting for the EA to notice; on
	// client cancellation the 499 write goes nowhere but keeps logs and
	// metrics honest. The worker observes the same context either way and
	// aborts the EA within one generation, freeing the slot.
	select {
	case res := <-j.result:
		if res.interned != "" {
			w.Header().Set("X-Emts-Interned", res.interned)
		}
		writeBody(w, res.code, res.body)
	case <-ctx.Done():
		if errors.Is(ctx.Err(), context.DeadlineExceeded) {
			writeJSONError(w, http.StatusGatewayTimeout, "deadline exceeded", "")
		} else {
			writeJSONError(w, 499, "client cancelled", "")
		}
	}
}

// The reasons enqueue turns a job away, worded as the client reads them.
var (
	errDraining  = errors.New("server is shutting down")
	errQueueFull = errors.New("admission queue full")
)

// enqueue offers j to the workers without blocking: nil when admitted,
// errDraining once Shutdown has begun, errQueueFull when every queue slot
// is taken.
func (s *Server) enqueue(j *job) error {
	s.admission.RLock()
	defer s.admission.RUnlock()
	if s.draining {
		return errDraining
	}
	//schedlint:allow lockscope -- send-vs-close protocol: the send is non-blocking (default case) and MUST happen under the read lock, so Shutdown's write lock can guarantee no send is in flight when it closes the queue
	select {
	case s.queue <- j:
		return nil
	default:
		return errQueueFull
	}
}

// refuse answers a request enqueue turned away: 503 while draining, 429
// with Retry-After when the queue is full.
func (s *Server) refuse(w http.ResponseWriter, err error) {
	if errors.Is(err, errDraining) {
		writeJSONError(w, http.StatusServiceUnavailable, err.Error(), "")
		return
	}
	setRetryAfter(w)
	writeJSONError(w, http.StatusTooManyRequests, err.Error(), "")
}

// setRetryAfter tells a refused or early client to come back in a second:
// every 429, and the 409 of a job result polled before the job ends.
func setRetryAfter(w http.ResponseWriter) {
	w.Header().Set("Retry-After", "1")
}

// maxTasks is the admission graph-size limit (0 = unlimited).
func (s *Server) maxTasks() int {
	if s.cfg.MaxTasks < 0 {
		return 0
	}
	return s.cfg.MaxTasks
}

// maxIslands is the admission island-count limit (0 = unlimited).
func (s *Server) maxIslands() int {
	if s.cfg.MaxIslands < 0 {
		return 0
	}
	return s.cfg.MaxIslands
}

// maxTimeoutMS is the largest timeout_ms a time.Duration can hold.
const maxTimeoutMS = int64(math.MaxInt64 / time.Millisecond)

// requestTimeout resolves the compute deadline for a parsed request: the
// server cap, tightened (never raised) by the request's timeout_ms. 0 means
// no deadline. timeout_ms is range-checked before it is converted, since a
// larger value would wrap into a short deadline; such a value exceeds every
// cap, so it leaves the cap (or no deadline) in place.
func (s *Server) requestTimeout(parsed *parsedRequest) time.Duration {
	timeout := max(s.cfg.RequestTimeout, 0)
	if ms := parsed.req.TimeoutMS; ms > 0 && ms <= maxTimeoutMS {
		if reqTimeout := time.Duration(ms) * time.Millisecond; timeout == 0 || reqTimeout < timeout {
			timeout = reqTimeout
		}
	}
	return timeout
}

// handleAlgorithms lists the canonical algorithm and model names, every name
// a request may use apart from the aliases.
func (s *Server) handleAlgorithms(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Algorithms []string `json:"algorithms"`
		Models     []string `json:"models"`
	}{sim.AlgorithmNames(), sim.ModelNames()})
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeText(w, http.StatusOK, "ok\n")
}

// handleReadyz keeps the PR 4 status-code contract (200 ready, 503
// draining) and adds a small JSON detail body consumed by the routing
// tier's health checker: the draining flag plus the queue depth and
// in-flight gauge, so an operator (or a future load-aware router) can see
// saturation without scraping the full metrics page.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	code := http.StatusOK
	draining := !s.ready.Load()
	if draining {
		code = http.StatusServiceUnavailable
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	fmt.Fprintf(w, "{\"draining\":%v,\"queue_depth\":%d,\"inflight\":%d}\n",
		draining, len(s.queue), s.metrics.inflight.Load())
}

func writeText(w http.ResponseWriter, code int, body string) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(code)
	io.WriteString(w, body)
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.metrics.WriteTo(w)
}

// statusRecorder captures the response status for metrics and logs.
type statusRecorder struct {
	http.ResponseWriter
	code  int
	wrote bool
}

func (r *statusRecorder) WriteHeader(code int) {
	if !r.wrote {
		r.code = code
		r.wrote = true
	}
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	r.wrote = true
	return r.ResponseWriter.Write(b)
}

// Flush forwards to the underlying writer so SSE handlers can stream
// through the recorder; a non-flushing underlying writer makes it a no-op.
func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}
