package server

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"emts/internal/jobs"
)

// latencyBuckets are the upper bounds (seconds) of the request-duration
// histograms. The spread covers sub-millisecond heuristic runs (cpa on a tiny
// graph) up to multi-second EMTS10 optimizations of large PTGs.
var latencyBuckets = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30,
}

// histogram is a fixed-bucket latency histogram in the Prometheus style:
// cumulative bucket counts, a sum, and a total count. Guarded by the owning
// metrics mutex.
type histogram struct {
	counts []uint64 // one per latencyBuckets entry; cumulative only at render
	sum    float64
	total  uint64
}

func (h *histogram) observe(v float64) {
	for i, ub := range latencyBuckets {
		if v <= ub {
			h.counts[i]++
			break
		}
	}
	h.sum += v
	h.total++
}

// metrics is the hand-rolled instrument registry of the service: counters,
// gauges, and per-algorithm latency histograms, rendered in Prometheus text
// exposition format by WriteTo. No external dependencies — the north-star
// constraint is a stdlib-only build.
type metrics struct {
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
	latency map[string]*histogram
	// jobPhase holds one histogram per job lifecycle phase ("queued",
	// "running"), fed by the job finalizer.
	jobPhase map[string]*histogram
}

type outcomeKey struct {
	algorithm string
	outcome   string
}

func newMetrics() *metrics {
	return &metrics{
		requests:      make(map[int]uint64),
		outcomes:      make(map[outcomeKey]uint64),
		latency:       make(map[string]*histogram),
		jobPhase:      make(map[string]*histogram),
		queueDepth:    func() int { return 0 },
		cacheEntries:  func() int { return 0 },
		queueCapacity: 0,
	}
}

func (m *metrics) countRequest(code int) {
	m.mu.Lock()
	m.requests[code]++
	m.mu.Unlock()
}

func (m *metrics) countOutcome(algorithm, outcome string) {
	m.mu.Lock()
	m.outcomes[outcomeKey{algorithm, outcome}]++
	m.mu.Unlock()
}

func (m *metrics) observeJobPhase(phase string, seconds float64) {
	m.mu.Lock()
	h := m.jobPhase[phase]
	if h == nil {
		h = &histogram{counts: make([]uint64, len(latencyBuckets))}
		m.jobPhase[phase] = h
	}
	h.observe(seconds)
	m.mu.Unlock()
}

func (m *metrics) observeLatency(algorithm string, seconds float64) {
	m.mu.Lock()
	h := m.latency[algorithm]
	if h == nil {
		h = &histogram{counts: make([]uint64, len(latencyBuckets))}
		m.latency[algorithm] = h
	}
	h.observe(seconds)
	m.mu.Unlock()
}

// WriteTo renders the registry in Prometheus text exposition format. Series
// are emitted in sorted label order, so two scrapes of the same state are
// byte-identical.
func (m *metrics) WriteTo(w io.Writer) (int64, error) {
	cw := &countingWriter{w: w}
	m.mu.Lock()
	defer m.mu.Unlock()

	fmt.Fprintln(cw, "# HELP emts_requests_total Finished HTTP requests by status code.")
	fmt.Fprintln(cw, "# TYPE emts_requests_total counter")
	codes := make([]int, 0, len(m.requests))
	for c := range m.requests {
		codes = append(codes, c)
	}
	sort.Ints(codes)
	for _, c := range codes {
		fmt.Fprintf(cw, "emts_requests_total{code=%q} %d\n", strconv.Itoa(c), m.requests[c])
	}

	fmt.Fprintln(cw, "# HELP emts_schedule_total Schedule computations by algorithm and outcome.")
	fmt.Fprintln(cw, "# TYPE emts_schedule_total counter")
	oks := make([]outcomeKey, 0, len(m.outcomes))
	for k := range m.outcomes {
		oks = append(oks, k)
	}
	sort.Slice(oks, func(i, j int) bool {
		if oks[i].algorithm != oks[j].algorithm {
			return oks[i].algorithm < oks[j].algorithm
		}
		return oks[i].outcome < oks[j].outcome
	})
	for _, k := range oks {
		fmt.Fprintf(cw, "emts_schedule_total{algorithm=%q,outcome=%q} %d\n", k.algorithm, k.outcome, m.outcomes[k])
	}

	fmt.Fprintln(cw, "# HELP emts_request_duration_seconds Latency of successful schedule computations.")
	fmt.Fprintln(cw, "# TYPE emts_request_duration_seconds histogram")
	algos := make([]string, 0, len(m.latency))
	for a := range m.latency {
		algos = append(algos, a)
	}
	sort.Strings(algos)
	for _, a := range algos {
		h := m.latency[a]
		cum := uint64(0)
		for i, ub := range latencyBuckets {
			cum += h.counts[i]
			fmt.Fprintf(cw, "emts_request_duration_seconds_bucket{algorithm=%q,le=%q} %d\n",
				a, strconv.FormatFloat(ub, 'g', -1, 64), cum)
		}
		fmt.Fprintf(cw, "emts_request_duration_seconds_bucket{algorithm=%q,le=\"+Inf\"} %d\n", a, h.total)
		fmt.Fprintf(cw, "emts_request_duration_seconds_sum{algorithm=%q} %g\n", a, h.sum)
		fmt.Fprintf(cw, "emts_request_duration_seconds_count{algorithm=%q} %d\n", a, h.total)
	}

	fmt.Fprintln(cw, "# HELP emts_queue_depth Schedule requests waiting in the admission queue.")
	fmt.Fprintln(cw, "# TYPE emts_queue_depth gauge")
	fmt.Fprintf(cw, "emts_queue_depth %d\n", m.queueDepth())
	fmt.Fprintln(cw, "# HELP emts_queue_capacity Admission queue capacity.")
	fmt.Fprintln(cw, "# TYPE emts_queue_capacity gauge")
	fmt.Fprintf(cw, "emts_queue_capacity %d\n", m.queueCapacity)
	fmt.Fprintln(cw, "# HELP emts_inflight Schedule computations currently executing.")
	fmt.Fprintln(cw, "# TYPE emts_inflight gauge")
	fmt.Fprintf(cw, "emts_inflight %d\n", m.inflight.Load())

	fmt.Fprintln(cw, "# HELP emts_cache_hits_total Response-cache hits.")
	fmt.Fprintln(cw, "# TYPE emts_cache_hits_total counter")
	fmt.Fprintf(cw, "emts_cache_hits_total %d\n", m.cacheHits.Load())
	fmt.Fprintln(cw, "# HELP emts_cache_misses_total Response-cache misses.")
	fmt.Fprintln(cw, "# TYPE emts_cache_misses_total counter")
	fmt.Fprintf(cw, "emts_cache_misses_total %d\n", m.cacheMisses.Load())
	fmt.Fprintln(cw, "# HELP emts_cache_entries Response-cache entries resident.")
	fmt.Fprintln(cw, "# TYPE emts_cache_entries gauge")
	fmt.Fprintf(cw, "emts_cache_entries %d\n", m.cacheEntries())

	writeHitMiss := func(name, help string, stats func() (uint64, uint64)) {
		hits, misses := stats()
		fmt.Fprintf(cw, "# HELP %s_hits_total %s hits.\n", name, help)
		fmt.Fprintf(cw, "# TYPE %s_hits_total counter\n", name)
		fmt.Fprintf(cw, "%s_hits_total %d\n", name, hits)
		fmt.Fprintf(cw, "# HELP %s_misses_total %s misses.\n", name, help)
		fmt.Fprintf(cw, "# TYPE %s_misses_total counter\n", name)
		fmt.Fprintf(cw, "%s_misses_total %d\n", name, misses)
	}
	if m.graphStats != nil {
		writeHitMiss("emts_intern_graph", "Graph-intern", m.graphStats)
	}
	if m.tableStats != nil {
		writeHitMiss("emts_intern_table", "Table-intern", m.tableStats)
	}
	if m.governorAvailable != nil {
		fmt.Fprintln(cw, "# HELP emts_governor_tokens_available CPU governor tokens currently free (negative under overdraft).")
		fmt.Fprintln(cw, "# TYPE emts_governor_tokens_available gauge")
		fmt.Fprintf(cw, "emts_governor_tokens_available %d\n", m.governorAvailable())
		fmt.Fprintln(cw, "# HELP emts_governor_tokens_capacity CPU governor token capacity.")
		fmt.Fprintln(cw, "# TYPE emts_governor_tokens_capacity gauge")
		fmt.Fprintf(cw, "emts_governor_tokens_capacity %d\n", m.governorCapacity)
	}

	if m.jobStates != nil {
		counts := m.jobStates()
		states := make([]string, 0, len(counts))
		for st := range counts {
			states = append(states, string(st))
		}
		sort.Strings(states)
		fmt.Fprintln(cw, "# HELP emts_jobs_states Async jobs resident in the store, by lifecycle state.")
		fmt.Fprintln(cw, "# TYPE emts_jobs_states gauge")
		for _, st := range states {
			fmt.Fprintf(cw, "emts_jobs_states{state=%q} %d\n", st, counts[jobs.State(st)])
		}
		fmt.Fprintln(cw, "# HELP emts_jobs_sse_subscribers Live SSE progress-stream subscribers.")
		fmt.Fprintln(cw, "# TYPE emts_jobs_sse_subscribers gauge")
		fmt.Fprintf(cw, "emts_jobs_sse_subscribers %d\n", m.sseSubscribers.Load())
		fmt.Fprintln(cw, "# HELP emts_jobs_anytime_cancel_total Job cancellations that salvaged an incumbent schedule.")
		fmt.Fprintln(cw, "# TYPE emts_jobs_anytime_cancel_total counter")
		fmt.Fprintf(cw, "emts_jobs_anytime_cancel_total %d\n", m.anytimeCancels.Load())

		fmt.Fprintln(cw, "# HELP emts_jobs_phase_seconds Time async jobs spend per lifecycle phase.")
		fmt.Fprintln(cw, "# TYPE emts_jobs_phase_seconds histogram")
		phases := make([]string, 0, len(m.jobPhase))
		for p := range m.jobPhase {
			phases = append(phases, p)
		}
		sort.Strings(phases)
		for _, p := range phases {
			h := m.jobPhase[p]
			cum := uint64(0)
			for i, ub := range latencyBuckets {
				cum += h.counts[i]
				fmt.Fprintf(cw, "emts_jobs_phase_seconds_bucket{phase=%q,le=%q} %d\n",
					p, strconv.FormatFloat(ub, 'g', -1, 64), cum)
			}
			fmt.Fprintf(cw, "emts_jobs_phase_seconds_bucket{phase=%q,le=\"+Inf\"} %d\n", p, h.total)
			fmt.Fprintf(cw, "emts_jobs_phase_seconds_sum{phase=%q} %g\n", p, h.sum)
			fmt.Fprintf(cw, "emts_jobs_phase_seconds_count{phase=%q} %d\n", p, h.total)
		}
	}

	return cw.n, cw.err
}

// countingWriter tracks bytes written and the first error, so WriteTo can
// satisfy io.WriterTo without threading errors through every Fprintf.
type countingWriter struct {
	w   io.Writer
	n   int64
	err error
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	if cw.err != nil {
		return 0, cw.err
	}
	n, err := cw.w.Write(p)
	cw.n += int64(n)
	cw.err = err
	return n, err
}
