package main

import (
	"encoding/json"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"emts/internal/server"
)

func TestGenerateSpecs(t *testing.T) {
	for _, spec := range []string{"fft8", "strassen", "random20"} {
		g, err := generate(spec, 1)
		if err != nil {
			t.Fatalf("generate(%q): %v", spec, err)
		}
		if g.NumTasks() == 0 {
			t.Fatalf("generate(%q): empty graph", spec)
		}
	}
	for _, spec := range []string{"fftx", "random", "cube3"} {
		if _, err := generate(spec, 1); err == nil {
			t.Fatalf("generate(%q): want error", spec)
		}
	}
}

func TestBuildBodies(t *testing.T) {
	bodies, err := buildBodies("fft4,strassen", "emts5", "synthetic", "chti", 3, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(bodies) != 6 { // 2 workloads x 3 seeds
		t.Fatalf("len(bodies) = %d, want 6", len(bodies))
	}
	if _, err := buildBodies(" , ", "emts5", "synthetic", "chti", 1, 1, 0); err == nil {
		t.Fatal("empty workload list accepted")
	}
}

func TestPercentile(t *testing.T) {
	cases := []struct {
		n    int
		q    float64
		want time.Duration
	}{
		{10, 0.50, 5}, {10, 0.90, 9}, {10, 0.95, 10}, {10, 0.99, 10}, {10, 1.0, 10},
		// q·n = 10.45, so the nearest rank is the 11th sample, not the 10th.
		{11, 0.95, 11},
	}
	for _, tc := range cases {
		all := make([]time.Duration, tc.n)
		for i := range all {
			all[i] = time.Duration(i + 1)
		}
		if got := percentile(all, tc.q); got != tc.want {
			t.Errorf("percentile(n=%d, %.2f) = %d, want %d", tc.n, tc.q, got, tc.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile(nil) = %d, want 0", got)
	}
}

// opts builds a loadOpts with the test defaults.
func opts(url string, conc, seeds int, duration time.Duration, rps float64, jsonOut string) loadOpts {
	return loadOpts{
		url: url, graphs: "fft4", algo: "cpa", model: "synthetic", cluster: "chti",
		conc: conc, seeds: seeds, seed: 1,
		duration: duration, timeout: 5 * time.Second, rps: rps, jsonOut: jsonOut,
	}
}

// TestRunAgainstServer drives the full closed loop against a real in-process
// server and checks the report, including the interned-rate and instance
// lines added for the routing tier's affinity measurements.
func TestRunAgainstServer(t *testing.T) {
	svc := server.New(server.Config{Workers: 2, InstanceID: "b-test"})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	var out strings.Builder
	err := run(&out, opts(ts.URL, 2, 2, 300*time.Millisecond, 0, ""))
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	report := out.String()
	for _, want := range []string{"requests:", "200", "cache hits:", "interned:", "graph", "table", "instances:", "b-test=", "latency:", "p50", "p99"} {
		if !strings.Contains(report, want) {
			t.Fatalf("report missing %q:\n%s", want, report)
		}
	}
}

// TestRunDirectRoundRobin sweeps two backends round-robin via -direct and
// checks both instances served traffic.
func TestRunDirectRoundRobin(t *testing.T) {
	var urls []string
	for _, id := range []string{"b1", "b2"} {
		svc := server.New(server.Config{Workers: 1, InstanceID: id})
		ts := httptest.NewServer(svc.Handler())
		defer ts.Close()
		urls = append(urls, ts.URL)
	}

	jsonPath := t.TempDir() + "/summary.json"
	o := opts("", 2, 2, 400*time.Millisecond, 0, jsonPath)
	o.direct = strings.Join(urls, ",")
	var out strings.Builder
	if err := run(&out, o); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	b, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var s summary
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatalf("summary JSON: %v\n%s", err, b)
	}
	if s.Instances["b1"] == 0 || s.Instances["b2"] == 0 {
		t.Fatalf("round-robin left a backend idle: %+v\n%s", s.Instances, out.String())
	}
}

// TestRunOpenLoop drives the open-loop mode at a modest fixed rate and checks
// the offered-vs-achieved report plus the JSON summary.
func TestRunOpenLoop(t *testing.T) {
	svc := server.New(server.Config{Workers: 2})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	jsonPath := t.TempDir() + "/summary.json"
	var out strings.Builder
	err := run(&out, opts(ts.URL, 1, 2, 500*time.Millisecond, 40, jsonPath))
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	report := out.String()
	for _, want := range []string{"open loop:", "offered 40.0", "achieved", "latency:"} {
		if !strings.Contains(report, want) {
			t.Fatalf("report missing %q:\n%s", want, report)
		}
	}
	b, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var s summary
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatalf("summary JSON: %v\n%s", err, b)
	}
	if s.Mode != "open" || s.OfferedRPS != 40 || s.Requests == 0 || s.P50Ms <= 0 {
		t.Fatalf("summary %+v not filled", s)
	}
	// The intern-rate fields must be present and sane (the second request of
	// each seed re-uses the interned graph, so rates are nonzero here).
	if s.InternGraphPct < 0 || s.InternGraphPct > 100 || s.InternTablePct < 0 || s.InternTablePct > 100 {
		t.Fatalf("intern rates out of range: %+v", s)
	}
}

func TestTargets(t *testing.T) {
	got, err := targets("http://h:1/", "")
	if err != nil || len(got) != 1 || got[0] != "http://h:1/v1/schedule" {
		t.Fatalf("targets(url) = %v, %v", got, err)
	}
	got, err = targets("ignored", "h1:1, http://h2:2/")
	if err != nil || len(got) != 2 || got[0] != "http://h1:1/v1/schedule" || got[1] != "http://h2:2/v1/schedule" {
		t.Fatalf("targets(direct) = %v, %v", got, err)
	}
	if _, err := targets("ignored", " , "); err == nil {
		t.Fatal("empty -direct accepted")
	}
}

func TestRunRejectsBadConcurrency(t *testing.T) {
	if err := run(&strings.Builder{}, opts("http://localhost:0", 0, 1, time.Millisecond, 0, "")); err == nil {
		t.Fatal("want error for -c 0")
	}
	if err := run(&strings.Builder{}, opts("http://localhost:0", 1, 1, time.Millisecond, -5, "")); err == nil {
		t.Fatal("want error for -rps -5")
	}
}
