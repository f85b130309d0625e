package route

import (
	"io"
	"maps"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"

	"emts/internal/metrics"
)

// backendMetrics aggregates one backend's proxied traffic. Guarded by the
// owning routerMetrics mutex.
type backendMetrics struct {
	codes map[int]uint64 // HTTP status of proxied responses (-1 = transport error)
	// latency histogram over successfully proxied requests (any status).
	latency metrics.Histogram
	// Affinity accounting, from the backend's response headers: how many 200s
	// replayed the response cache, and how many found their graph/table
	// already interned. High rates here are the whole point of digest routing.
	ok          uint64
	cacheHits   uint64
	internGraph uint64
	internTable uint64
}

// routerMetrics is the router's instrument registry, rendered in Prometheus
// text exposition format through internal/metrics, the same core and
// latency buckets as internal/server's.
type routerMetrics struct {
	mu       sync.Mutex
	backends map[string]*backendMetrics

	retries   atomic.Uint64 // connection-refused retries onto the next choice
	noBackend atomic.Uint64 // requests refused because the healthy set was empty

	// Sampled at scrape time.
	checker *Checker
}

func newRouterMetrics(checker *Checker) *routerMetrics {
	return &routerMetrics{backends: make(map[string]*backendMetrics), checker: checker}
}

// observe records one proxied request: the backend it landed on, the
// response status (-1 for transport errors), the latency, and the affinity
// headers of a 200.
func (m *routerMetrics) observe(backendID string, code int, seconds float64, cache, interned string) {
	m.mu.Lock()
	bm := m.backends[backendID]
	if bm == nil {
		bm = &backendMetrics{codes: make(map[int]uint64)}
		m.backends[backendID] = bm
	}
	bm.codes[code]++
	if code >= 0 {
		bm.latency.Observe(seconds)
	}
	if code == 200 {
		bm.ok++
		if cache == "hit" {
			bm.cacheHits++
		}
		switch interned {
		case "graph":
			bm.internGraph++
		case "table":
			bm.internTable++
		case "graph,table":
			bm.internGraph++
			bm.internTable++
		}
	}
	m.mu.Unlock()
}

// WriteTo renders the registry; two scrapes of the same state are
// byte-identical (sorted backend and code order).
func (m *routerMetrics) WriteTo(out io.Writer) (int64, error) {
	w := metrics.NewWriter(out)
	m.mu.Lock()
	defer m.mu.Unlock()

	ids := slices.Sorted(maps.Keys(m.backends))

	w.Header("emts_router_requests_total", "counter", "Proxied requests by backend and status (-1 = transport error).")
	for _, id := range ids {
		bm := m.backends[id]
		for _, c := range slices.Sorted(maps.Keys(bm.codes)) {
			w.Sample("emts_router_requests_total", int64(bm.codes[c]), "backend", id, "code", strconv.Itoa(c))
		}
	}

	w.Header("emts_router_request_duration_seconds", "histogram", "Latency of proxied requests by backend.")
	for _, id := range ids {
		w.Histogram("emts_router_request_duration_seconds", &m.backends[id].latency, "backend", id)
	}

	w.Header("emts_router_affinity_cache_hits_total", "counter", "Proxied 200s served from the backend response cache.")
	for _, id := range ids {
		w.Sample("emts_router_affinity_cache_hits_total", int64(m.backends[id].cacheHits), "backend", id)
	}
	w.Header("emts_router_affinity_interned_total", "counter", "Proxied 200s whose graph/table was already interned on the backend.")
	for _, id := range ids {
		w.Sample("emts_router_affinity_interned_total", int64(m.backends[id].internGraph), "backend", id, "kind", "graph")
		w.Sample("emts_router_affinity_interned_total", int64(m.backends[id].internTable), "backend", id, "kind", "table")
	}
	w.Header("emts_router_ok_total", "counter", "Proxied 200s by backend (denominator for the affinity rates).")
	for _, id := range ids {
		w.Sample("emts_router_ok_total", int64(m.backends[id].ok), "backend", id)
	}

	w.Header("emts_router_retries_total", "counter", "Connection-refused retries replayed onto the next rendezvous choice.")
	w.Sample("emts_router_retries_total", int64(m.retries.Load()))
	w.Header("emts_router_no_backend_total", "counter", "Requests refused because no backend was healthy.")
	w.Sample("emts_router_no_backend_total", int64(m.noBackend.Load()))

	if m.checker != nil {
		ej, re, rb := m.checker.Stats()
		w.Header("emts_router_ejections_total", "counter", "Backends ejected after consecutive failed health probes.")
		w.Sample("emts_router_ejections_total", int64(ej))
		w.Header("emts_router_readmissions_total", "counter", "Ejected backends re-admitted after consecutive probe successes.")
		w.Sample("emts_router_readmissions_total", int64(re))
		w.Header("emts_router_rebalance_total", "counter", "Routing-table swaps (any membership transition).")
		w.Sample("emts_router_rebalance_total", int64(rb))

		healthy := m.checker.Healthy()
		w.Header("emts_router_backend_healthy", "gauge", "Backend health verdict (1 = in the routing table).")
		for _, id := range slices.Sorted(maps.Keys(healthy)) {
			v := int64(0)
			if healthy[id] {
				v = 1
			}
			w.Sample("emts_router_backend_healthy", v, "backend", id)
		}
	}

	return w.Result()
}
