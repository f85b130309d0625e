package server

import (
	"cmp"
	"io"
	"maps"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"

	"emts/internal/jobs"
	"emts/internal/metrics"
)

// registry holds the instruments of the service: counters, gauges, and
// per-algorithm latency histograms, rendered in Prometheus text exposition
// format by WriteTo through internal/metrics.
type registry struct {
	// inflight is the number of schedule computations currently executing on
	// a worker.
	inflight atomic.Int64
	// cacheHits/cacheMisses count /v1/schedule lookups against the response
	// cache.
	cacheHits   atomic.Uint64
	cacheMisses atomic.Uint64
	// queueDepth and queueCapacity are sampled at scrape time.
	queueDepth    func() int
	queueCapacity int
	cacheEntries  func() int
	// Cross-request performance layer samplers (nil when the corresponding
	// feature is disabled; the series are then omitted).
	graphStats        func() (hits, misses uint64)
	tableStats        func() (hits, misses uint64)
	governorAvailable func() int
	governorCapacity  int

	// Async job subsystem (DESIGN.md §16). jobStates samples the store's
	// per-state population at scrape time (nil when the job API is
	// disabled); sseSubscribers gauges live event streams; anytimeCancels
	// counts cancellations that salvaged an incumbent schedule.
	jobStates      func() map[jobs.State]int
	sseSubscribers atomic.Int64
	anytimeCancels atomic.Uint64

	mu sync.Mutex
	// requests counts finished HTTP requests by status code, across all
	// endpoints.
	requests map[int]uint64
	// outcomes counts schedule computations by algorithm and outcome
	// (ok, client_error, cancelled, deadline, error).
	outcomes map[outcomeKey]uint64
	// latency holds one histogram per algorithm, successful computations only.
	latency map[string]*metrics.Histogram
	// jobPhase holds one histogram per job lifecycle phase ("queued",
	// "running"), fed by the job finalizer.
	jobPhase map[string]*metrics.Histogram
}

type outcomeKey struct {
	algorithm string
	outcome   string
}

func newRegistry() *registry {
	return &registry{
		requests:      make(map[int]uint64),
		outcomes:      make(map[outcomeKey]uint64),
		latency:       make(map[string]*metrics.Histogram),
		jobPhase:      make(map[string]*metrics.Histogram),
		queueDepth:    func() int { return 0 },
		cacheEntries:  func() int { return 0 },
		queueCapacity: 0,
	}
}

func (m *registry) countRequest(code int) {
	m.mu.Lock()
	m.requests[code]++
	m.mu.Unlock()
}

func (m *registry) countOutcome(algorithm, outcome string) {
	m.mu.Lock()
	m.outcomes[outcomeKey{algorithm, outcome}]++
	m.mu.Unlock()
}

func (m *registry) observeJobPhase(phase string, seconds float64) {
	m.mu.Lock()
	observe(m.jobPhase, phase, seconds)
	m.mu.Unlock()
}

func (m *registry) observeLatency(algorithm string, seconds float64) {
	m.mu.Lock()
	observe(m.latency, algorithm, seconds)
	m.mu.Unlock()
}

// observe adds one value to the histogram under key, creating it on first
// use. The caller holds the registry mutex.
func observe(hs map[string]*metrics.Histogram, key string, seconds float64) {
	h := hs[key]
	if h == nil {
		h = new(metrics.Histogram)
		hs[key] = h
	}
	h.Observe(seconds)
}

// WriteTo renders the registry in Prometheus text exposition format. Series
// are emitted in sorted label order, so two scrapes of the same state are
// byte-identical.
func (m *registry) WriteTo(out io.Writer) (int64, error) {
	w := metrics.NewWriter(out)
	m.mu.Lock()
	defer m.mu.Unlock()

	w.Header("emts_requests_total", "counter", "Finished HTTP requests by status code.")
	for _, c := range slices.Sorted(maps.Keys(m.requests)) {
		w.Sample("emts_requests_total", int64(m.requests[c]), "code", strconv.Itoa(c))
	}

	w.Header("emts_schedule_total", "counter", "Schedule computations by algorithm and outcome.")
	oks := slices.SortedFunc(maps.Keys(m.outcomes), func(a, b outcomeKey) int {
		return cmp.Or(cmp.Compare(a.algorithm, b.algorithm), cmp.Compare(a.outcome, b.outcome))
	})
	for _, k := range oks {
		w.Sample("emts_schedule_total", int64(m.outcomes[k]), "algorithm", k.algorithm, "outcome", k.outcome)
	}

	w.Header("emts_request_duration_seconds", "histogram", "Latency of successful schedule computations.")
	for _, a := range slices.Sorted(maps.Keys(m.latency)) {
		w.Histogram("emts_request_duration_seconds", m.latency[a], "algorithm", a)
	}

	w.Header("emts_queue_depth", "gauge", "Schedule requests waiting in the admission queue.")
	w.Sample("emts_queue_depth", int64(m.queueDepth()))
	w.Header("emts_queue_capacity", "gauge", "Admission queue capacity.")
	w.Sample("emts_queue_capacity", int64(m.queueCapacity))
	w.Header("emts_inflight", "gauge", "Schedule computations currently executing.")
	w.Sample("emts_inflight", m.inflight.Load())

	w.Header("emts_cache_hits_total", "counter", "Response-cache hits.")
	w.Sample("emts_cache_hits_total", int64(m.cacheHits.Load()))
	w.Header("emts_cache_misses_total", "counter", "Response-cache misses.")
	w.Sample("emts_cache_misses_total", int64(m.cacheMisses.Load()))
	w.Header("emts_cache_entries", "gauge", "Response-cache entries resident.")
	w.Sample("emts_cache_entries", int64(m.cacheEntries()))

	writeHitMiss := func(name, help string, stats func() (uint64, uint64)) {
		hits, misses := stats()
		w.Header(name+"_hits_total", "counter", help+" hits.")
		w.Sample(name+"_hits_total", int64(hits))
		w.Header(name+"_misses_total", "counter", help+" misses.")
		w.Sample(name+"_misses_total", int64(misses))
	}
	if m.graphStats != nil {
		writeHitMiss("emts_intern_graph", "Graph-intern", m.graphStats)
	}
	if m.tableStats != nil {
		writeHitMiss("emts_intern_table", "Table-intern", m.tableStats)
	}
	if m.governorAvailable != nil {
		w.Header("emts_governor_tokens_available", "gauge", "CPU governor tokens currently free (negative under overdraft).")
		w.Sample("emts_governor_tokens_available", int64(m.governorAvailable()))
		w.Header("emts_governor_tokens_capacity", "gauge", "CPU governor token capacity.")
		w.Sample("emts_governor_tokens_capacity", int64(m.governorCapacity))
	}

	if m.jobStates != nil {
		counts := m.jobStates()
		w.Header("emts_jobs_states", "gauge", "Async jobs resident in the store, by lifecycle state.")
		for _, st := range slices.Sorted(maps.Keys(counts)) {
			w.Sample("emts_jobs_states", int64(counts[st]), "state", string(st))
		}
		w.Header("emts_jobs_sse_subscribers", "gauge", "Live SSE progress-stream subscribers.")
		w.Sample("emts_jobs_sse_subscribers", m.sseSubscribers.Load())
		w.Header("emts_jobs_anytime_cancel_total", "counter", "Job cancellations that salvaged an incumbent schedule.")
		w.Sample("emts_jobs_anytime_cancel_total", int64(m.anytimeCancels.Load()))

		w.Header("emts_jobs_phase_seconds", "histogram", "Time async jobs spend per lifecycle phase.")
		for _, p := range slices.Sorted(maps.Keys(m.jobPhase)) {
			w.Histogram("emts_jobs_phase_seconds", m.jobPhase[p], "phase", p)
		}
	}

	return w.Result()
}
