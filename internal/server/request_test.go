package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"testing"

	"emts/internal/dag"
	"emts/internal/daggen"
)

const keyGraph = `{"tasks":[{"flops":1,"alpha":0.5},{"flops":2,"alpha":0.5}],"edges":[[0,1]]}`

func mustParse(t *testing.T, body string) *parsedRequest {
	t.Helper()
	p, err := parseScheduleRequest([]byte(body), 0, 0, nil)
	if err != nil {
		t.Fatalf("parseScheduleRequest(%q): %v", body, err)
	}
	return p
}

// TestCanonicalKeyInvariance: the cache key depends on the decoded request,
// not its serialization — whitespace, field order, and equivalent encodings
// all map to the same key.
func TestCanonicalKeyInvariance(t *testing.T) {
	base := mustParse(t, `{"graph":`+keyGraph+`,"cluster":{"preset":"chti"},"algorithm":"emts5","seed":3}`)
	same := []string{
		// Field order shuffled, whitespace added.
		`{ "seed": 3, "algorithm": "EMTS5", "cluster": { "preset": "chti" },
		   "graph": ` + keyGraph + ` }`,
		// Model defaulting: "synthetic" is the default.
		`{"graph":` + keyGraph + `,"cluster":{"preset":"chti"},"model":"synthetic","algorithm":"emts5","seed":3}`,
	}
	for i, body := range same {
		if got := mustParse(t, body).key; got != base.key {
			t.Errorf("variant %d: key %s != base %s", i, got, base.key)
		}
	}

	different := []string{
		// Different seed.
		`{"graph":` + keyGraph + `,"cluster":{"preset":"chti"},"algorithm":"emts5","seed":4}`,
		// Different algorithm.
		`{"graph":` + keyGraph + `,"cluster":{"preset":"chti"},"algorithm":"emts10","seed":3}`,
		// Different cluster.
		`{"graph":` + keyGraph + `,"cluster":{"preset":"grelon"},"algorithm":"emts5","seed":3}`,
		// Different model.
		`{"graph":` + keyGraph + `,"cluster":{"preset":"chti"},"model":"amdahl","algorithm":"emts5","seed":3}`,
		// Different graph weight.
		`{"graph":{"tasks":[{"flops":1,"alpha":0.5},{"flops":3,"alpha":0.5}],"edges":[[0,1]]},"cluster":{"preset":"chti"},"algorithm":"emts5","seed":3}`,
	}
	for i, body := range different {
		if got := mustParse(t, body).key; got == base.key {
			t.Errorf("variant %d: key collides with base (%s)", i, got)
		}
	}
}

func TestParseDefaults(t *testing.T) {
	p := mustParse(t, `{"graph":`+keyGraph+`,"cluster":{"preset":"chti"}}`)
	if p.plan.ModelName != "synthetic" || p.plan.Algorithm != "emts5" {
		t.Fatalf("defaults = %q/%q, want synthetic/emts5", p.plan.ModelName, p.plan.Algorithm)
	}
	if p.cluster.Procs != 20 {
		t.Fatalf("chti procs = %d, want 20", p.cluster.Procs)
	}
}

func TestParseMaxTasks(t *testing.T) {
	_, err := parseScheduleRequest([]byte(`{"graph":`+keyGraph+`,"cluster":{"preset":"chti"}}`), 1, 0, nil)
	var reqErr *RequestError
	if !errors.As(err, &reqErr) || reqErr.Field != "graph.tasks" {
		t.Fatalf("want RequestError on graph.tasks, got %v", err)
	}
}

func TestParseStrictGraph(t *testing.T) {
	_, err := parseScheduleRequest([]byte(`{"graph":{"tasks":[{"flops":1}],"edges":[[0,5]]},"cluster":{"preset":"chti"}}`), 0, 0, nil)
	var decErr *dag.DecodeError
	if !errors.As(err, &decErr) {
		t.Fatalf("want dag.DecodeError for out-of-range edge, got %v", err)
	}
}

// TestParseTableCellBound: a request whose table would exceed maxTableCells
// is rejected at admission on cluster.procs — for a huge inline processor
// count, and for one whose tasks × procs product overflows int — while the
// largest admissible shape passes.
func TestParseTableCellBound(t *testing.T) {
	for _, procs := range []int{1000000000, math.MaxInt, maxTableCells/2 + 1} {
		body := fmt.Sprintf(`{"graph":%s,"cluster":{"procs":%d,"speed_gflops":1}}`, keyGraph, procs)
		_, err := parseScheduleRequest([]byte(body), 0, 0, nil)
		var reqErr *RequestError
		if !errors.As(err, &reqErr) || reqErr.Field != "cluster.procs" {
			t.Errorf("procs=%d on 2 tasks: want RequestError on cluster.procs, got %v", procs, err)
		}
	}
	// The naive product check would wave the MaxInt request through.
	if tasks, procs := 2, math.MaxInt; tasks*procs > maxTableCells {
		t.Fatal("test premise: 2 × MaxInt must wrap around below the bound")
	}
	mustParse(t, fmt.Sprintf(`{"graph":%s,"cluster":{"procs":%d,"speed_gflops":1}}`, keyGraph, maxTableCells/2))
}

// clientBody is a request as emts-loadgen spells it: json.Marshal of a
// ScheduleRequest around json.Marshal of a generated PTG.
func clientBody(t testing.TB, g *dag.Graph, preset string, seed int64) (body, graph []byte) {
	t.Helper()
	graph, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	body, err = json.Marshal(ScheduleRequest{Graph: graph, Cluster: ClusterSpec{Preset: preset},
		Model: "synthetic", Algorithm: "emts5", Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return body, graph
}

// benchGraph is a 100-task random PTG, the largest graph of the serving
// benchmark's pool.
func benchGraph(t testing.TB) *dag.Graph {
	t.Helper()
	g, err := daggen.Random(daggen.RandomConfig{N: 100, Width: 0.5, Regularity: 0.5, Density: 0.5, Jump: 1}, daggen.DefaultCosts(), 1)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestScannerTakesClientBodies: the bodies clients send are in the
// scanner's subset, so the one-pass decoder is the common path, and it
// delimits exactly the graph bytes the client wrote.
func TestScannerTakesClientBodies(t *testing.T) {
	costs := daggen.DefaultCosts()
	for seed := int64(1); seed <= 6; seed++ {
		fft, err := daggen.FFT(8, costs, seed)
		if err != nil {
			t.Fatal(err)
		}
		strassen, err := daggen.Strassen(costs, seed)
		if err != nil {
			t.Fatal(err)
		}
		random, err := daggen.Random(daggen.RandomConfig{N: 20 + int(seed)*13, Width: 0.5, Regularity: 0.5, Density: 0.5, Jump: 1}, costs, seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, g := range []*dag.Graph{fft, strassen, random} {
			body, graph := clientBody(t, g, "grelon", seed*7919)
			req, ok := scanScheduleRequest(body)
			if !ok {
				t.Fatalf("%s: scanner rejects the client body %s", g.Name(), body)
			}
			if !bytes.Equal(req.Graph, graph) || req.Cluster.Preset != "grelon" || req.Seed != seed*7919 {
				t.Fatalf("%s: scanner decoded %+v", g.Name(), req)
			}
		}
	}
}

// BenchmarkParseScheduleRequest decodes, validates and keys a client body
// for a 100-task PTG on Grelon, without a graph intern: the per-request
// parse cost of a server whose interns miss.
func BenchmarkParseScheduleRequest(b *testing.B) {
	body, _ := clientBody(b, benchGraph(b), "grelon", 7)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := parseScheduleRequest(body, 0, 0, nil); err != nil {
			b.Fatal(err)
		}
	}
}
