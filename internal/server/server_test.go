package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"emts/internal/dag"
	"emts/internal/daggen"
	"emts/internal/model"
	"emts/internal/platform"
	"emts/internal/sim"
)

// testGraphJSON returns a small FFT PTG in the request wire format.
func testGraphJSON(t *testing.T) []byte {
	t.Helper()
	g, err := daggen.FFT(4, daggen.DefaultCosts(), 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// scheduleBody builds a request body around the test graph.
func scheduleBody(t *testing.T, algorithm string, seed int64) []byte {
	t.Helper()
	b, err := json.Marshal(ScheduleRequest{
		Graph:     testGraphJSON(t),
		Cluster:   ClusterSpec{Preset: "chti"},
		Model:     "synthetic",
		Algorithm: algorithm,
		Seed:      seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// newTestServer builds a server (and its httptest front end) and tears both
// down with the test.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s, ts
}

func post(t *testing.T, url string, body []byte) *http.Response {
	t.Helper()
	resp, err := http.Post(url+"/v1/schedule", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func readAll(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestScheduleEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	resp := post(t, ts.URL, scheduleBody(t, "emts5", 42))
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var sr ScheduleResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	if sr.Makespan <= 0 || sr.Schedule == nil || sr.Algorithm != "emts5" {
		t.Fatalf("implausible response: %+v", sr)
	}

	// The served result must match a direct library run with the same seed.
	g, _ := daggen.FFT(4, daggen.DefaultCosts(), 1)
	rep, err := sim.Run(g, platform.Chti(), "synthetic", "emts5", 42)
	if err != nil {
		t.Fatal(err)
	}
	if sr.Makespan != rep.Makespan {
		t.Fatalf("served makespan %g != direct run %g", sr.Makespan, rep.Makespan)
	}
}

func TestScheduleValidationErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, MaxTasks: 50})
	cases := []struct {
		name  string
		body  string
		field string
	}{
		{"malformed json", `{`, "body"},
		{"unknown request field", `{"graf":{}}`, "body"},
		{"missing graph", `{"cluster":{"preset":"chti"}}`, "graph"},
		{"cyclic graph", `{"graph":{"tasks":[{"flops":1},{"flops":1}],"edges":[[0,1],[1,0]]},"cluster":{"preset":"chti"}}`, "graph.edges"},
		{"duplicate edge", `{"graph":{"tasks":[{"flops":1},{"flops":1}],"edges":[[0,1],[0,1]]},"cluster":{"preset":"chti"}}`, "graph.edges[1]"},
		{"empty graph", `{"graph":{"tasks":[]},"cluster":{"preset":"chti"}}`, "graph.tasks"},
		{"unknown preset", `{"graph":{"tasks":[{"flops":1}]},"cluster":{"preset":"mars"}}`, "cluster.preset"},
		{"bad inline cluster", `{"graph":{"tasks":[{"flops":1}]},"cluster":{"procs":-3,"speed_gflops":1}}`, "cluster"},
		{"huge inline procs", `{"graph":{"tasks":[{"flops":1}]},"cluster":{"procs":1000000000,"speed_gflops":1}}`, "cluster.procs"},
		{"overflowing table size", `{"graph":{"tasks":[{"flops":1},{"flops":1}]},"cluster":{"procs":9223372036854775807,"speed_gflops":1}}`, "cluster.procs"},
		{"negative timeout", `{"graph":{"tasks":[{"flops":1}]},"cluster":{"preset":"chti"},"timeout_ms":-5}`, "timeout_ms"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp := post(t, ts.URL, []byte(tc.body))
			body := readAll(t, resp)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d, want 400 (%s)", resp.StatusCode, body)
			}
			var er struct {
				Error string `json:"error"`
				Field string `json:"field"`
			}
			if err := json.Unmarshal(body, &er); err != nil {
				t.Fatalf("non-JSON error body %q", body)
			}
			if er.Field != tc.field {
				t.Fatalf("error field %q, want %q (%s)", er.Field, tc.field, body)
			}
		})
	}
}

// TestScheduleUnknownNames expects bad algorithm/model names to surface as
// 400s.
func TestScheduleUnknownNames(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	for _, body := range []string{
		`{"graph":{"tasks":[{"flops":1}]},"cluster":{"preset":"chti"},"algorithm":"magic"}`,
		`{"graph":{"tasks":[{"flops":1}]},"cluster":{"preset":"chti"},"model":"wat"}`,
	} {
		resp := post(t, ts.URL, []byte(body))
		b := readAll(t, resp)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status %d, want 400 (%s)", resp.StatusCode, b)
		}
	}
}

// TestScheduleUnknownNameBodies pins the exact status and body /v1/schedule
// answers an unknown model or algorithm with. Names are matched in any
// letter case and echoed lowercased; when both are unknown, the model is
// reported.
func TestScheduleUnknownNameBodies(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	const (
		unknownAlgorithm = `{"error":"sim: unknown algorithm \"no-such-algo\" (have one, cpa, hcpa, mcpa, mcpa2, bicpa, delta-cp, eft, emts5, emts10, random)"}` + "\n"
		unknownModel     = `{"error":"sim: unknown model \"no-such-model\" (have amdahl, synthetic, synthetic-literal, synthetic-monotone, downey)"}` + "\n"
	)
	graph := `{"graph":{"tasks":[{"flops":1}]},"cluster":{"preset":"chti"}`
	for _, tc := range []struct{ body, want string }{
		{graph + `,"algorithm":"No-Such-Algo"}`, unknownAlgorithm},
		{graph + `,"model":"amdahl","algorithm":"no-such-algo"}`, unknownAlgorithm},
		{graph + `,"model":"No-Such-Model"}`, unknownModel},
		{graph + `,"model":"no-such-model","algorithm":"mcpa"}`, unknownModel},
		{graph + `,"model":"no-such-model","algorithm":"no-such-algo"}`, unknownModel},
	} {
		resp := post(t, ts.URL, []byte(tc.body))
		b := readAll(t, resp)
		if resp.StatusCode != http.StatusBadRequest || string(b) != tc.want {
			t.Errorf("%s:\n got %d %s\nwant 400 %s", tc.body, resp.StatusCode, b, tc.want)
		}
	}
}

// TestCacheHitByteIdentity submits the same request twice and requires the
// replay to be byte-identical, flagged as a cache hit, and counted.
func TestCacheHitByteIdentity(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	body := scheduleBody(t, "emts5", 7)

	first := post(t, ts.URL, body)
	b1 := readAll(t, first)
	if first.StatusCode != http.StatusOK {
		t.Fatalf("first: status %d: %s", first.StatusCode, b1)
	}
	if got := first.Header.Get("X-Emts-Cache"); got != "miss" {
		t.Fatalf("first request cache header %q, want miss", got)
	}

	second := post(t, ts.URL, body)
	b2 := readAll(t, second)
	if second.StatusCode != http.StatusOK {
		t.Fatalf("second: status %d: %s", second.StatusCode, b2)
	}
	if got := second.Header.Get("X-Emts-Cache"); got != "hit" {
		t.Fatalf("second request cache header %q, want hit", got)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatal("cached replay is not byte-identical")
	}
	if hits := s.metrics.cacheHits.Load(); hits != 1 {
		t.Fatalf("cacheHits = %d, want 1", hits)
	}

	// Whitespace and field order differences must still hit: the key is
	// computed over the canonical graph encoding.
	var loose map[string]interface{}
	if err := json.Unmarshal(body, &loose); err != nil {
		t.Fatal(err)
	}
	reordered, err := json.MarshalIndent(loose, "", "   ")
	if err != nil {
		t.Fatal(err)
	}
	third := post(t, ts.URL, reordered)
	b3 := readAll(t, third)
	if got := third.Header.Get("X-Emts-Cache"); got != "hit" {
		t.Fatalf("reordered request cache header %q, want hit (%s)", got, b3)
	}
	if !bytes.Equal(b1, b3) {
		t.Fatal("reordered request replay is not byte-identical")
	}
}

// TestCacheEviction: a response cache bounded to two entries evicts the
// least recently used body, so after three distinct requests the first one
// misses again.
func TestCacheEviction(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, CacheEntries: 2})
	for i, seed := range []int64{1, 2, 3, 1} {
		resp := post(t, ts.URL, scheduleBody(t, "cpa", seed))
		readAll(t, resp)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d", i, resp.StatusCode)
		}
		if got := resp.Header.Get("X-Emts-Cache"); got != "miss" {
			t.Fatalf("request %d (seed %d): cache header %q, want miss", i, seed, got)
		}
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	page := string(readAll(t, resp))
	if !strings.Contains(page, "\nemts_cache_entries 2\n") {
		t.Fatalf("metrics page does not read emts_cache_entries 2:\n%s", page)
	}
}

// blockingRun returns a run stub that signals arrival and blocks until
// released or the request context ends.
func blockingRun(started chan<- string, release <-chan struct{}) runFunc {
	return func(p *sim.Plan, ctx context.Context, g *dag.Graph, cluster platform.Cluster, tab *model.Table) (*sim.Report, error) {
		select {
		case started <- p.Algorithm:
		default:
		}
		select {
		case <-release:
			return p.RunTable(context.Background(), g, cluster, tab)
		case <-ctx.Done():
			return nil, fmt.Errorf("stub: %w", ctx.Err())
		}
	}
}

// TestAdmissionOverflow fills the single worker and the depth-1 queue, then
// requires the next submission to bounce with 429 + Retry-After.
func TestAdmissionOverflow(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1, RetryAfter: 2 * time.Second})
	started := make(chan string, 1)
	release := make(chan struct{})
	releaseOnce := sync.OnceFunc(func() { close(release) })
	defer releaseOnce()
	s.run = blockingRun(started, release)

	// Distinct seeds: identical bodies would dedup through the cache once the
	// first completes, but here nothing completes until release.
	results := make(chan int, 2)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			resp := post(t, ts.URL, scheduleBody(t, "cpa", seed))
			readAll(t, resp)
			results <- resp.StatusCode
		}(int64(i))
	}
	// Wait until one request occupies the worker and the other sits queued.
	<-started
	waitFor(t, func() bool { return len(s.queue) == 1 })

	resp := post(t, ts.URL, scheduleBody(t, "cpa", 99))
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429 (%s)", resp.StatusCode, body)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "2" {
		t.Fatalf("Retry-After = %q, want 2", ra)
	}

	releaseOnce()
	wg.Wait()
	close(results)
	for code := range results {
		if code != http.StatusOK {
			t.Fatalf("blocked request finished with %d, want 200", code)
		}
	}
}

// TestDeadlineCancellation runs a stub that only returns when its context
// ends: the request must come back 504 and the worker must be free for the
// next request.
func TestDeadlineCancellation(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, RequestTimeout: 50 * time.Millisecond})
	release := make(chan struct{})
	s.run = blockingRun(make(chan string, 1), release)

	resp := post(t, ts.URL, scheduleBody(t, "emts10", 1))
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504 (%s)", resp.StatusCode, body)
	}

	// Release the stub: the worker observed the same context and must be free
	// again, so a follow-up request (stub now answers immediately) succeeds.
	close(release)
	waitFor(t, func() bool { return s.metrics.inflight.Load() == 0 })
	resp = post(t, ts.URL, scheduleBody(t, "cpa", 2))
	b := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("follow-up status %d, want 200 (%s)", resp.StatusCode, b)
	}
}

// TestRequestDeadlineCancelsEA drives a real EMTS10 run against a deadline
// far shorter than the optimization and requires the per-generation context
// check to abort it: the request fails fast with 504 and the outcome counter
// records the deadline.
func TestRequestDeadlineCancelsEA(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	g, err := daggen.FFT(32, daggen.DefaultCosts(), 1) // 192 tasks: EMTS10 takes well over 5ms
	if err != nil {
		t.Fatal(err)
	}
	graph, _ := json.Marshal(g)
	body, _ := json.Marshal(ScheduleRequest{
		Graph:     graph,
		Cluster:   ClusterSpec{Preset: "grelon"},
		Algorithm: "emts10",
		TimeoutMS: 5,
	})
	resp := post(t, ts.URL, body)
	b := readAll(t, resp)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504 (%s)", resp.StatusCode, b)
	}
	// The EA must notice within one generation: wait for the worker to drain
	// and check the outcome label.
	waitFor(t, func() bool { return s.metrics.inflight.Load() == 0 })
	s.metrics.mu.Lock()
	n := s.metrics.outcomes[outcomeKey{"emts10", "deadline"}]
	s.metrics.mu.Unlock()
	if n != 1 {
		t.Fatalf("deadline outcome count = %d, want 1", n)
	}
}

// TestGracefulShutdownDrains verifies the drain contract: during shutdown
// readiness flips and new work bounces, while admitted work completes.
func TestGracefulShutdownDrains(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 4})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	started := make(chan string, 1)
	release := make(chan struct{})
	releaseOnce := sync.OnceFunc(func() { close(release) })
	defer releaseOnce()
	s.run = blockingRun(started, release)

	codes := make(chan int, 2)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			resp := post(t, ts.URL, scheduleBody(t, "mcpa", seed))
			readAll(t, resp)
			codes <- resp.StatusCode
		}(int64(i))
	}
	<-started
	waitFor(t, func() bool { return len(s.queue) == 1 })

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownDone <- s.Shutdown(ctx)
	}()
	waitFor(t, func() bool { return !s.ready.Load() })

	// Readiness reports draining, and new submissions bounce with 503.
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	readAll(t, resp)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz during drain: %d, want 503", resp.StatusCode)
	}
	resp = post(t, ts.URL, scheduleBody(t, "mcpa", 9))
	readAll(t, resp)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("admission during drain: %d, want 503", resp.StatusCode)
	}

	// Release the worker: both admitted requests must complete OK and
	// Shutdown must return.
	releaseOnce()
	wg.Wait()
	close(codes)
	for code := range codes {
		if code != http.StatusOK {
			t.Fatalf("drained request finished with %d, want 200", code)
		}
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
}

// TestReadyzJSONBody pins the routing-tier contract: /readyz keeps the
// 200/503 status codes and carries the JSON detail the router's health
// checker consumes.
func TestReadyzJSONBody(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz: %d, want 200", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("readyz Content-Type %q", ct)
	}
	var rb struct {
		Draining   *bool `json:"draining"`
		QueueDepth *int  `json:"queue_depth"`
		Inflight   *int  `json:"inflight"`
	}
	if err := json.Unmarshal(body, &rb); err != nil {
		t.Fatalf("readyz body %q: %v", body, err)
	}
	if rb.Draining == nil || rb.QueueDepth == nil || rb.Inflight == nil {
		t.Fatalf("readyz body %q missing fields", body)
	}
	if *rb.Draining {
		t.Fatal("fresh server reports draining")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	body = readAll(t, resp)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz after drain: %d, want 503", resp.StatusCode)
	}
	if err := json.Unmarshal(body, &rb); err != nil || rb.Draining == nil || !*rb.Draining {
		t.Fatalf("drained readyz body %q (err %v)", body, err)
	}
}

// TestInstanceHeader pins that a configured instance ID reaches every
// response (the routing tier asserts correctness through it) and that an
// unconfigured server omits the header.
func TestInstanceHeader(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, InstanceID: "backend-7"})
	for _, ep := range []string{"/healthz", "/readyz", "/metrics"} {
		resp, err := http.Get(ts.URL + ep)
		if err != nil {
			t.Fatal(err)
		}
		readAll(t, resp)
		if got := resp.Header.Get("X-Emts-Instance"); got != "backend-7" {
			t.Fatalf("%s: X-Emts-Instance %q, want backend-7", ep, got)
		}
	}
	resp := post(t, ts.URL, scheduleBody(t, "cpa", 1))
	readAll(t, resp)
	if got := resp.Header.Get("X-Emts-Instance"); got != "backend-7" {
		t.Fatalf("schedule: X-Emts-Instance %q, want backend-7", got)
	}

	_, plain := newTestServer(t, Config{Workers: 1})
	resp2, err := http.Get(plain.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	readAll(t, resp2)
	if got := resp2.Header.Get("X-Emts-Instance"); got != "" {
		t.Fatalf("unconfigured server stamped X-Emts-Instance %q", got)
	}
}

func TestHealthAndMetricsEndpoints(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	for _, ep := range []string{"/healthz", "/readyz"} {
		resp, err := http.Get(ts.URL + ep)
		if err != nil {
			t.Fatal(err)
		}
		readAll(t, resp)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: %d", ep, resp.StatusCode)
		}
	}

	// One real request, then the metrics page must carry the series the
	// acceptance criteria name.
	resp := post(t, ts.URL, scheduleBody(t, "cpa", 1))
	readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("schedule: %d", resp.StatusCode)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	page := string(readAll(t, resp))
	for _, want := range []string{
		`emts_requests_total{code="200"}`,
		`emts_schedule_total{algorithm="cpa",outcome="ok"} 1`,
		`emts_request_duration_seconds_count{algorithm="cpa"} 1`,
		"emts_queue_depth 0",
		"emts_inflight 0",
		"emts_cache_misses_total 1",
		"emts_cache_entries 1",
	} {
		if !strings.Contains(page, want) {
			t.Fatalf("metrics page missing %q:\n%s", want, page)
		}
	}
}

func TestRequestIDPropagation(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/healthz", nil)
	req.Header.Set("X-Request-Id", "caller-7")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	readAll(t, resp)
	if got := resp.Header.Get("X-Request-Id"); got != "caller-7" {
		t.Fatalf("X-Request-Id = %q, want caller-7", got)
	}
	// Without a caller-supplied ID the server assigns one.
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	readAll(t, resp)
	if resp.Header.Get("X-Request-Id") == "" {
		t.Fatal("no X-Request-Id assigned")
	}
	// An id of up to 128 bytes is kept; a longer one is replaced by a minted
	// id, so a caller cannot inflate response headers and log lines.
	for _, c := range []struct {
		id   string
		keep bool
	}{{strings.Repeat("a", 128), true}, {strings.Repeat("b", 4096), false}} {
		req, _ := http.NewRequest(http.MethodGet, ts.URL+"/healthz", nil)
		req.Header.Set("X-Request-Id", c.id)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		readAll(t, resp)
		got := resp.Header.Get("X-Request-Id")
		if c.keep && got != c.id {
			t.Fatalf("%d-byte X-Request-Id came back as %d bytes, want it kept", len(c.id), len(got))
		}
		if !c.keep && (got == "" || len(got) > 128) {
			t.Fatalf("%d-byte X-Request-Id came back as %d bytes, want a minted id", len(c.id), len(got))
		}
	}
}

func TestStructuredLogs(t *testing.T) {
	var buf syncBuffer
	_, ts := newTestServer(t, Config{Workers: 1, LogWriter: &buf})
	resp := post(t, ts.URL, scheduleBody(t, "cpa", 1))
	readAll(t, resp)
	waitFor(t, func() bool { return strings.Count(buf.String(), "\n") >= 1 })
	line := strings.SplitN(buf.String(), "\n", 2)[0]
	var rec map[string]interface{}
	if err := json.Unmarshal([]byte(line), &rec); err != nil {
		t.Fatalf("log line is not JSON: %q", line)
	}
	for _, key := range []string{"ts", "level", "req", "method", "path", "code", "dur_ms"} {
		if _, ok := rec[key]; !ok {
			t.Fatalf("log line missing %q: %s", key, line)
		}
	}
}

// syncBuffer is a goroutine-safe bytes.Buffer for log capture.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// waitFor polls cond for up to 5 seconds.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("condition not reached within 5s")
}

// TestRequestTimeoutOnlyLowersCap: timeout_ms tightens the server's
// deadline and never raises it; a value too large for a time.Duration must
// not wrap into a short deadline.
func TestRequestTimeoutOnlyLowersCap(t *testing.T) {
	const capped = 2 * time.Second
	type tc struct {
		cap       time.Duration // Config.RequestTimeout; negative disables
		timeoutMS int64
		want      time.Duration
	}
	cases := []tc{
		{capped, 0, capped},
		{capped, 5, 5 * time.Millisecond},
		{capped, capped.Milliseconds(), capped},
		{capped, maxTimeoutMS, capped},
		{-1, 0, 0},
		{-1, 5, 5 * time.Millisecond},
		{-1, capped.Milliseconds(), capped},
		{-1, maxTimeoutMS, time.Duration(maxTimeoutMS) * time.Millisecond},
	}
	for _, ms := range []int64{9223372036855, 18446744073710, math.MaxInt64} {
		cases = append(cases, tc{capped, ms, capped}, tc{-1, ms, 0})
	}
	for _, c := range cases {
		s := &Server{cfg: Config{RequestTimeout: c.cap}}
		got := s.requestTimeout(&parsedRequest{req: ScheduleRequest{TimeoutMS: c.timeoutMS}})
		if got != c.want {
			t.Errorf("cap %v, timeout_ms %d: deadline %v, want %v", c.cap, c.timeoutMS, got, c.want)
		}
	}
}
