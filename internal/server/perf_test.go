package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"

	"emts/internal/daggen"
)

// perfConfigs enumerates the cross-request performance layer's A/B corners:
// interning (off through negative LRU bounds) and the governor, each in both
// positions. Responses must be byte-identical across all of them.
func perfConfigs() map[string]Config {
	return map[string]Config{
		"all-on":       {Workers: 2},
		"intern-off":   {Workers: 2, GraphEntries: -1, TableEntries: -1},
		"governor-off": {Workers: 2, DisableGovernor: true},
		"all-off":      {Workers: 2, GraphEntries: -1, TableEntries: -1, DisableGovernor: true},
	}
}

// TestPerfLayerBitIdentical is the server-level determinism meta-test of
// DESIGN.md §12: for a fixed request stream, every combination of interning
// and governor must produce byte-identical response bodies.
func TestPerfLayerBitIdentical(t *testing.T) {
	graph := testGraphJSON(t)
	var requests [][]byte
	for _, algo := range []string{"emts5", "mcpa"} {
		for seed := int64(1); seed <= 3; seed++ {
			requests = append(requests, []byte(fmt.Sprintf(
				`{"graph":%s,"cluster":{"preset":"chti"},"algorithm":%q,"seed":%d}`, graph, algo, seed)))
		}
	}
	// The request set is replayed twice per server so warm-path code (intern
	// hits) actually executes; the response cache would mask it, so it is
	// disabled.
	var baseline [][]byte
	for _, name := range []string{"all-on", "intern-off", "governor-off", "all-off"} {
		cfg := perfConfigs()[name]
		cfg.CacheEntries = -1
		s, ts := newTestServer(t, cfg)
		_ = s
		var bodies [][]byte
		for round := 0; round < 2; round++ {
			for _, req := range requests {
				resp := post(t, ts.URL, req)
				b := readAll(t, resp)
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("%s: status %d: %s", name, resp.StatusCode, b)
				}
				bodies = append(bodies, b)
			}
		}
		if baseline == nil {
			baseline = bodies
			continue
		}
		for i := range bodies {
			if !bytes.Equal(bodies[i], baseline[i]) {
				t.Fatalf("%s: response %d differs from the all-on baseline:\n%s\nvs\n%s",
					name, i, bodies[i], baseline[i])
			}
		}
	}
}

// TestInternedGraphStress hammers one interned graph from many goroutines —
// all requests share a single dag.Graph and model.Table instance, so this is
// the -race proof that interned objects are safe for concurrent use. Every
// concurrent body must also equal the one a lone, sequential server computes
// for its seed, byte for byte: with the governor, concurrent runs get one to
// GOMAXPROCS workers depending on what else is running, and without it each
// one takes GOMAXPROCS.
func TestInternedGraphStress(t *testing.T) {
	graph := testGraphJSON(t)
	const seeds = 3
	body := func(seed int) []byte {
		return []byte(fmt.Sprintf(
			`{"graph":%s,"cluster":{"preset":"chti"},"algorithm":"emts5","seed":%d}`, graph, seed))
	}
	_, seqTS := newTestServer(t, Config{Workers: 1, CacheEntries: -1})
	var want [seeds][]byte
	for seed := range want {
		resp := post(t, seqTS.URL, body(seed))
		want[seed] = readAll(t, resp)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("sequential seed %d: status %d: %s", seed, resp.StatusCode, want[seed])
		}
	}

	for _, noGovernor := range []bool{false, true} {
		s, ts := newTestServer(t, Config{Workers: 4, CacheEntries: -1, DisableGovernor: noGovernor})
		const goroutines = 8
		const perG = 10
		var wg sync.WaitGroup
		for w := 0; w < goroutines; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < perG; i++ {
					// Few distinct seeds: every goroutine computes on the
					// shared graph/table instead of replaying cached bodies.
					seed := i % seeds
					resp, err := http.Post(ts.URL+"/v1/schedule", "application/json", bytes.NewReader(body(seed)))
					if err != nil {
						t.Error(err)
						return
					}
					b, _ := io.ReadAll(resp.Body)
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						t.Errorf("no-governor %v, goroutine %d: status %d: %s", noGovernor, w, resp.StatusCode, b)
						return
					}
					if !bytes.Equal(b, want[seed]) {
						t.Errorf("no-governor %v, goroutine %d, seed %d: body differs from the sequential one:\n%s\nvs\n%s",
							noGovernor, w, seed, b, want[seed])
						return
					}
				}
			}(w)
		}
		wg.Wait()

		if hits, _ := s.graphs.Stats(); hits == 0 {
			t.Errorf("no-governor %v: no graph-intern hits after hammering one graph", noGovernor)
		}
		if hits, _ := s.tables.Stats(); hits == 0 {
			t.Errorf("no-governor %v: no table-intern hits after hammering one graph", noGovernor)
		}

		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		metrics := string(readAll(t, resp))
		series := []string{"emts_intern_graph_hits_total", "emts_intern_table_hits_total"}
		if !noGovernor {
			series = append(series, "emts_governor_tokens_capacity")
		}
		for _, name := range series {
			if !strings.Contains(metrics, name) {
				t.Errorf("no-governor %v: /metrics missing %s:\n%s", noGovernor, name, metrics)
			}
		}
	}
}

// TestInternedHeader checks the X-Emts-Interned response header: absent on
// first sight, "graph,table" once both caches are warm.
func TestInternedHeader(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, CacheEntries: -1})
	body := scheduleBody(t, "mcpa", 7)

	first := post(t, ts.URL, body)
	readAll(t, first)
	if got := first.Header.Get("X-Emts-Interned"); got != "" {
		t.Fatalf("first request interned header %q, want empty", got)
	}
	second := post(t, ts.URL, body)
	readAll(t, second)
	if got := second.Header.Get("X-Emts-Interned"); got != "graph,table" {
		t.Fatalf("warm request interned header %q, want graph,table", got)
	}
}

// computeJob builds a job for s.compute directly (bypassing HTTP), the warm
// schedule path the allocation regression measures.
func computeJob(t testing.TB, s *Server, body []byte) *job {
	t.Helper()
	p, err := parseScheduleRequest(body, 0, 0, s.graphs)
	if err != nil {
		t.Fatal(err)
	}
	return &job{ctx: context.Background(), parsed: p}
}

// TestWarmRequestAllocations extends PR 1's zero-alloc regression to the full
// server schedule path: once graph and table are interned, a repeat request
// must allocate several times less than the everything-disabled
// configuration. The workload is the repeat-structure benchmark shape (one
// 300-task irregular PTG, many seeds), where the warm path skips JSON decode,
// graph construction, and V×P table evaluation; what remains is the per-run
// Mapper construction and EA state (population clones) plus the response
// marshal, which both paths pay. The precise factor is recorded in
// artifacts/BENCH_PR14.json; this floor is conservative so the test stays
// green across toolchains.
func TestWarmRequestAllocations(t *testing.T) {
	g, err := daggen.Random(daggen.RandomConfig{
		N: 300, Width: 0.5, Regularity: 0.8, Density: 0.5, Jump: 1,
	}, daggen.DefaultCosts(), 1)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	body := []byte(fmt.Sprintf(
		`{"graph":%s,"cluster":{"preset":"chti"},"algorithm":"emts5","seed":11}`, raw))

	warmSrv := New(Config{Workers: 1, CacheEntries: -1})
	defer warmSrv.Shutdown(context.Background())
	coldSrv := New(Config{Workers: 1, CacheEntries: -1,
		GraphEntries: -1, TableEntries: -1, DisableGovernor: true})
	defer coldSrv.Shutdown(context.Background())

	measure := func(s *Server) float64 {
		// Warm-up run: populates the interns where enabled.
		if res := s.compute(computeJob(t, s, body)); res.code != http.StatusOK {
			t.Fatalf("warm-up compute: %d %s", res.code, res.body)
		}
		return testing.AllocsPerRun(10, func() {
			if res := s.compute(computeJob(t, s, body)); res.code != http.StatusOK {
				t.Fatalf("compute: %d %s", res.code, res.body)
			}
		})
	}
	warm := measure(warmSrv)
	cold := measure(coldSrv)
	t.Logf("allocations per request: warm path %.0f, cold path %.0f (%.1fx)", warm, cold, cold/warm)
	if warm*3 > cold {
		t.Errorf("warm path allocates %.0f/request vs %.0f cold — want at least a 3x reduction", warm, cold)
	}
}
