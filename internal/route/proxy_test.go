package route

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"emts/internal/daggen"
	"emts/internal/envelope"
	"emts/internal/server"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// realBackend is one in-process emts-serve instance.
type realBackend struct {
	svc *server.Server
	ts  *httptest.Server
	b   Backend
}

// startBackends launches n real servers with instance IDs s0..s(n-1).
func startBackends(t *testing.T, n int, cfg server.Config) []realBackend {
	t.Helper()
	out := make([]realBackend, n)
	for i := range out {
		c := cfg
		c.InstanceID = fmt.Sprintf("s%d", i)
		if c.Workers == 0 {
			c.Workers = 1
		}
		svc := server.New(c)
		ts := httptest.NewServer(svc.Handler())
		t.Cleanup(ts.Close)
		out[i] = realBackend{svc: svc, ts: ts, b: Backend{ID: c.InstanceID, URL: ts.URL}}
	}
	return out
}

// scheduleBody builds one request body over a generated PTG.
func scheduleBody(t *testing.T, spec string, algo string, seed int64) []byte {
	t.Helper()
	g, err := generateGraph(spec)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(envelope.ScheduleRequest{
		Graph:     raw,
		Cluster:   envelope.ClusterSpec{Preset: "chti"},
		Algorithm: algo,
		Seed:      seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

func generateGraph(spec string) (interface{ NumTasks() int }, error) {
	costs := daggen.DefaultCosts()
	switch spec {
	case "fft4":
		return daggen.FFT(4, costs, 1)
	case "fft8":
		return daggen.FFT(8, costs, 1)
	case "strassen":
		return daggen.Strassen(costs, 1)
	}
	return nil, fmt.Errorf("unknown spec %s", spec)
}

func post(t *testing.T, url string, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/v1/schedule", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

// TestRouterByteIdentityAndAffinity is the correctness core: for a corpus of
// requests, the routed response must be byte-identical to what every backend
// answers directly, the serving backend must be the rendezvous choice for
// the graph digest, and repeats of a request must keep landing there (that
// stability is the affinity property).
func TestRouterByteIdentityAndAffinity(t *testing.T) {
	backends := startBackends(t, 3, server.Config{})
	var members []Backend
	for _, rb := range backends {
		members = append(members, rb.b)
	}
	router, err := New(Config{Backends: members, Health: HealthConfig{Interval: time.Hour}})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Shutdown(context.Background())
	rts := httptest.NewServer(router.Handler())
	defer rts.Close()

	var corpus [][]byte
	for _, spec := range []string{"fft4", "fft8", "strassen"} {
		for _, algo := range []string{"cpa", "mcpa"} {
			for seed := int64(1); seed <= 2; seed++ {
				corpus = append(corpus, scheduleBody(t, spec, algo, seed))
			}
		}
	}

	table := router.Table()
	for i, body := range corpus {
		key, err := RequestKey(body)
		if err != nil {
			t.Fatal(err)
		}
		wantBackend, _ := table.Pick(key[:], "")

		resp, routed := post(t, rts.URL, body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("corpus %d: routed status %d: %s", i, resp.StatusCode, routed)
		}
		if got := resp.Header.Get("X-Emts-Backend"); got != wantBackend.ID {
			t.Fatalf("corpus %d: served by %s, rendezvous choice is %s", i, got, wantBackend.ID)
		}
		if got := resp.Header.Get("X-Emts-Instance"); got != wantBackend.ID {
			t.Fatalf("corpus %d: instance header %s, want %s", i, got, wantBackend.ID)
		}

		// Byte identity against every backend served directly: the response
		// body is a pure function of the request, so N direct answers and the
		// routed one must all be equal.
		for _, rb := range backends {
			dresp, direct := post(t, rb.ts.URL, body)
			if dresp.StatusCode != http.StatusOK {
				t.Fatalf("corpus %d: direct status %d on %s", i, dresp.StatusCode, rb.b.ID)
			}
			if !bytes.Equal(routed, direct) {
				t.Fatalf("corpus %d: routed response differs from %s direct:\n%s\nvs\n%s", i, rb.b.ID, routed, direct)
			}
		}

		// Stability: the repeat goes to the same backend and replays its
		// response cache.
		resp2, _ := post(t, rts.URL, body)
		if got := resp2.Header.Get("X-Emts-Backend"); got != wantBackend.ID {
			t.Fatalf("corpus %d: repeat served by %s, want %s", i, got, wantBackend.ID)
		}
		if resp2.Header.Get("X-Emts-Cache") != "hit" {
			t.Fatalf("corpus %d: repeat missed the response cache", i)
		}
	}

	// Every backend the rendezvous table assigns at least one corpus key to
	// must show traffic — and no assertion above passed vacuously.
	owners := make(map[string]bool)
	for _, body := range corpus {
		key, _ := RequestKey(body)
		b, _ := table.Pick(key[:], "")
		owners[b.ID] = true
	}
	if len(owners) < 2 {
		t.Fatalf("corpus hashed onto %d backend(s); broaden it", len(owners))
	}
	metrics := scrape(t, rts.URL)
	for _, rb := range backends {
		if owners[rb.b.ID] && !strings.Contains(metrics, fmt.Sprintf("emts_router_ok_total{backend=%q}", rb.b.ID)) {
			t.Fatalf("backend %s owns corpus keys but served nothing:\n%s", rb.b.ID, metrics)
		}
	}
}

func scrape(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestRouterEjectionLifecycle drives a backend through
// healthy → ejected → re-admitted via a stubbed probe and asserts the
// routing table, the counters, and the consecutive-failure thresholds.
func TestRouterEjectionLifecycle(t *testing.T) {
	var mu sync.Mutex
	down := map[string]bool{}
	setDown := func(id string, v bool) { mu.Lock(); down[id] = v; mu.Unlock() }

	members := []Backend{{ID: "a", URL: "http://a"}, {ID: "b", URL: "http://b"}, {ID: "c", URL: "http://c"}}
	router, err := New(Config{Backends: members, Health: HealthConfig{
		Interval:     2 * time.Millisecond,
		EjectAfter:   3,
		ReadmitAfter: 2,
		Probe: func(_ context.Context, b Backend) error {
			mu.Lock()
			defer mu.Unlock()
			if down[b.ID] {
				return ErrBackendDraining
			}
			return nil
		},
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Shutdown(context.Background())

	if router.Table().Len() != 3 {
		t.Fatalf("initial table %d, want 3 (backends start healthy)", router.Table().Len())
	}

	setDown("b", true)
	waitFor(t, "ejection of b", func() bool { return router.Table().Len() == 2 })
	for _, bk := range router.Table().Backends() {
		if bk.ID == "b" {
			t.Fatal("ejected backend still in the table")
		}
	}

	setDown("b", false)
	waitFor(t, "re-admission of b", func() bool { return router.Table().Len() == 3 })
	ej, re, rb := router.checker.Stats()
	if ej != 1 || re != 1 || rb != 2 {
		t.Fatalf("stats ejections=%d readmissions=%d rebalances=%d, want 1/1/2", ej, re, rb)
	}
}

// TestRouterRetryOnRefused kills the rendezvous choice for a key and asserts
// the request replays onto the next choice — before the health checker has
// had any chance to react.
func TestRouterRetryOnRefused(t *testing.T) {
	backends := startBackends(t, 2, server.Config{})
	members := []Backend{backends[0].b, backends[1].b}
	router, err := New(Config{Backends: members, Health: HealthConfig{Interval: time.Hour}})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Shutdown(context.Background())
	rts := httptest.NewServer(router.Handler())
	defer rts.Close()

	body := scheduleBody(t, "fft4", "cpa", 1)
	key, _ := RequestKey(body)
	first, _ := router.Table().Pick(key[:], "")
	second, _ := router.Table().Pick(key[:], first.ID)

	// Kill the first choice's listener: connections now refuse instantly.
	for _, rb := range backends {
		if rb.b.ID == first.ID {
			rb.ts.Close()
		}
	}

	resp, routed := post(t, rts.URL, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d after retry: %s", resp.StatusCode, routed)
	}
	if got := resp.Header.Get("X-Emts-Backend"); got != second.ID {
		t.Fatalf("served by %s, want the next rendezvous choice %s", got, second.ID)
	}
	if !strings.Contains(scrape(t, rts.URL), "emts_router_retries_total 1") {
		t.Fatal("retry not counted")
	}
}

// TestRouterNoBackends pins the empty-table behavior: readyz 503 and
// schedule 503 with the sentinel message.
func TestRouterNoBackends(t *testing.T) {
	router, err := New(Config{Backends: []Backend{{ID: "a", URL: "http://a"}}, Health: HealthConfig{
		Interval:   2 * time.Millisecond,
		EjectAfter: 1,
		Probe:      func(context.Context, Backend) error { return errBackendStatus },
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Shutdown(context.Background())
	rts := httptest.NewServer(router.Handler())
	defer rts.Close()

	waitFor(t, "ejection of the only backend", func() bool { return router.Table().Len() == 0 })

	resp, err := http.Get(rts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz with empty table: %d, want 503", resp.StatusCode)
	}
	sresp, body := post(t, rts.URL, scheduleBody(t, "fft4", "cpa", 1))
	if sresp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(body), "no healthy backends") {
		t.Fatalf("schedule with empty table: %d %s", sresp.StatusCode, body)
	}
}

// TestRouterDrain asserts Shutdown flips readiness and completes.
func TestRouterDrain(t *testing.T) {
	backends := startBackends(t, 1, server.Config{})
	router, err := New(Config{Backends: []Backend{backends[0].b}, Health: HealthConfig{Interval: time.Hour}})
	if err != nil {
		t.Fatal(err)
	}
	rts := httptest.NewServer(router.Handler())
	defer rts.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := router.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	resp, err := http.Get(rts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz after drain: %d, want 503", resp.StatusCode)
	}
}

// TestRouterForwardsAlgorithms pins the forwarding of non-schedule
// endpoints, which are keyed by the router's request counter.
func TestRouterForwardsAlgorithms(t *testing.T) {
	backends := startBackends(t, 2, server.Config{})
	router, err := New(Config{Backends: []Backend{backends[0].b, backends[1].b}, Health: HealthConfig{Interval: time.Hour}})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Shutdown(context.Background())
	rts := httptest.NewServer(router.Handler())
	defer rts.Close()

	resp, err := http.Get(rts.URL + "/v1/algorithms")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(b), "algorithms") {
		t.Fatalf("algorithms via router: %d %s", resp.StatusCode, b)
	}
}

// TestRouterBodyLimit pins one answer for an over-limit body on every
// handler that reads one: 413 naming the limit, without forwarding.
func TestRouterBodyLimit(t *testing.T) {
	upstream := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
	}))
	defer upstream.Close()
	router, err := New(Config{
		Backends:        []Backend{{ID: "up", URL: upstream.URL}},
		Health:          HealthConfig{Interval: time.Hour},
		MaxRequestBytes: 1024,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Shutdown(context.Background())
	rts := httptest.NewServer(router.Handler())
	defer rts.Close()

	body := bytes.Repeat([]byte("x"), 4<<10)
	for _, tc := range []struct{ method, path string }{
		{http.MethodPost, "/v1/schedule"},
		{http.MethodPost, "/v1/jobs"},
		{http.MethodDelete, "/v1/jobs/" + strings.Repeat("ab", 32) + "-1"},
		{http.MethodPost, "/v1/algorithms"},
	} {
		req, err := http.NewRequest(tc.method, rts.URL+tc.path, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		got, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge || !strings.Contains(string(got), "exceeds 1024 bytes") {
			t.Errorf("%s %s with a 4 KiB body: %d %s, want 413", tc.method, tc.path, resp.StatusCode, got)
		}
	}
}

// refusingBackend returns a backend whose address refuses connections: a
// listener that was bound and closed again.
func refusingBackend(t *testing.T, id string) Backend {
	t.Helper()
	dead := httptest.NewServer(http.NotFoundHandler())
	url := dead.URL
	dead.Close()
	return Backend{ID: id, URL: url}
}

// TestRouterRetryConcurrentUnkeyed sends unkeyed requests from 8 concurrent
// clients while one of two backends refuses connections and the health
// checker has not ejected it. Every request must reach the live backend:
// the retry excludes the backend that refused, whatever the other requests
// did in between, and every refusal is counted as a retry.
func TestRouterRetryConcurrentUnkeyed(t *testing.T) {
	live := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		io.WriteString(w, `{"algorithms":[]}`)
	}))
	defer live.Close()
	dead := refusingBackend(t, "dead")
	router, err := New(Config{
		Backends: []Backend{{ID: "live", URL: live.URL}, dead},
		Health:   HealthConfig{Interval: time.Hour},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Shutdown(context.Background())
	rts := httptest.NewServer(router.Handler())
	defer rts.Close()

	const clients, perClient = 8, 100
	var wg sync.WaitGroup
	var mu sync.Mutex
	failed := 0
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				resp, err := http.Get(rts.URL + "/v1/algorithms")
				ok := err == nil && resp.StatusCode == http.StatusOK && resp.Header.Get("X-Emts-Backend") == "live"
				if err == nil {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
				if !ok {
					mu.Lock()
					failed++
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	if failed > 0 {
		t.Fatalf("%d of %d requests were not answered 200 by the live backend", failed, clients*perClient)
	}
	page := scrape(t, rts.URL)
	refusals := sampleValue(t, page, `emts_router_requests_total{backend="dead",code="-1"}`)
	if refusals == 0 {
		t.Fatal("no request picked the refusing backend first; the test proves nothing")
	}
	if retries := sampleValue(t, page, "emts_router_retries_total"); retries != refusals {
		t.Fatalf("emts_router_retries_total %d, want the %d refusals", retries, refusals)
	}
}

// sampleValue reads one integer sample from a /metrics page (0 when the
// series is absent).
func sampleValue(t *testing.T, page, series string) int {
	t.Helper()
	for _, line := range strings.Split(page, "\n") {
		if v, ok := strings.CutPrefix(line, series+" "); ok {
			var n int
			if _, err := fmt.Sscan(v, &n); err != nil {
				t.Fatalf("sample %q: %v", line, err)
			}
			return n
		}
	}
	return 0
}

// TestRouterClientCancelIsNotBackendError hangs up on a request the
// backend has not answered yet. The router must neither retry it nor file
// it as a backend transport error (code -1): the client went away, so it is
// a 499, as emts-serve files it.
func TestRouterClientCancelIsNotBackendError(t *testing.T) {
	arrived := make(chan struct{}, 1)
	release := make(chan struct{})
	upstream := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		arrived <- struct{}{}
		select {
		case <-release:
		case <-r.Context().Done():
		}
	}))
	defer upstream.Close()
	defer close(release)
	router, err := New(Config{
		Backends: []Backend{{ID: "up", URL: upstream.URL}},
		Health:   HealthConfig{Interval: time.Hour},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Shutdown(context.Background())
	rts := httptest.NewServer(router.Handler())
	defer rts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, rts.URL+"/v1/schedule", strings.NewReader(`{"graph":{"tasks":[{"flops":1}]}}`))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		done <- err
	}()
	<-arrived
	cancel()
	if err := <-done; err == nil {
		t.Fatal("the cancelled request got an answer")
	}

	var page string
	waitFor(t, "the router to file the hung-up request", func() bool {
		page = scrape(t, rts.URL)
		return strings.Contains(page, `emts_router_requests_total{backend="up",`)
	})
	if strings.Contains(page, `code="-1"`) {
		t.Fatalf("a client hang-up was filed as a backend transport error:\n%s", page)
	}
	if n := sampleValue(t, page, `emts_router_requests_total{backend="up",code="499"}`); n != 1 {
		t.Fatalf("499 sample %d, want 1:\n%s", n, page)
	}
	if n := sampleValue(t, page, "emts_router_retries_total"); n != 0 {
		t.Fatalf("a hung-up request was retried %d times", n)
	}
}
