package main

import (
	"encoding/json"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"emts/internal/loadgen"
	"emts/internal/server"
)

// opts builds the test defaults.
func opts(url string, conc, seeds int, duration time.Duration, rps float64) loadgen.Options {
	return loadgen.Options{
		URL: url, Graphs: "fft4", Algo: "cpa", Model: "synthetic", Cluster: "chti",
		Conc: conc, Seeds: seeds, Seed: 1,
		Duration: duration, Timeout: 5 * time.Second, RPS: rps,
	}
}

// readSummary decodes a -json file.
func readSummary(t *testing.T, path string) (loadgen.Summary, map[string]any) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var s loadgen.Summary
	var keys map[string]any
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatalf("summary JSON: %v\n%s", err, b)
	}
	if err := json.Unmarshal(b, &keys); err != nil {
		t.Fatalf("summary JSON: %v\n%s", err, b)
	}
	return s, keys
}

// TestRunAgainstServer drives the full closed loop against a real in-process
// server and checks the report, including the interned-rate and instance
// lines added for the routing tier's affinity measurements.
func TestRunAgainstServer(t *testing.T) {
	svc := server.New(server.Config{Workers: 2, InstanceID: "b-test"})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	var out strings.Builder
	err := run(&out, opts(ts.URL, 2, 2, 300*time.Millisecond, 0), "")
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
	o := opts("", 2, 2, 400*time.Millisecond, 0)
	o.Direct = strings.Join(urls, ",")
	var out strings.Builder
	if err := run(&out, o, jsonPath); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	s, _ := readSummary(t, jsonPath)
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
	err := run(&out, opts(ts.URL, 1, 2, 500*time.Millisecond, 40), jsonPath)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	report := out.String()
	for _, want := range []string{"open loop:", "offered 40.0", "achieved", "latency:"} {
		if !strings.Contains(report, want) {
			t.Fatalf("report missing %q:\n%s", want, report)
		}
	}
	s, _ := readSummary(t, jsonPath)
	if s.Mode != "open" || s.OfferedRPS != 40 || s.Requests == 0 || s.P50Ms <= 0 {
		t.Fatalf("summary %+v not filled", s)
	}
	// The intern-rate fields must be present and sane (the second request of
	// each seed re-uses the interned graph, so rates are nonzero here).
	if s.InternGraphPct < 0 || s.InternGraphPct > 100 || s.InternTablePct < 0 || s.InternTablePct > 100 {
		t.Fatalf("intern rates out of range: %+v", s)
	}
}

func TestRunRejectsBadConcurrency(t *testing.T) {
	if err := run(&strings.Builder{}, opts("http://localhost:0", 0, 1, time.Millisecond, 0), ""); err == nil {
		t.Fatal("want error for -c 0")
	}
	if err := run(&strings.Builder{}, opts("http://localhost:0", 1, 1, time.Millisecond, -5), ""); err == nil {
		t.Fatal("want error for -rps -5")
	}
}

// TestRunJobsMode drives the async job API against an in-process server with
// every second job cancelled at generation 1 (EMTS10 on 100 tasks runs long
// enough for most cancels to land mid-run), and checks the -json summary
// against the conditions of CI's jobs gate that do not depend on timing.
func TestRunJobsMode(t *testing.T) {
	svc := server.New(server.Config{Workers: 2, SSEKeepAlive: time.Hour})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	o := opts(ts.URL, 2, 1, 500*time.Millisecond, 0)
	o.Graphs, o.Algo, o.Jobs, o.CancelAt = "random100", "emts10", true, 1
	jsonPath := t.TempDir() + "/summary.json"
	var out strings.Builder
	if err := run(&out, o, jsonPath); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	s, keys := readSummary(t, jsonPath)
	for _, k := range []string{"mode", "jobs_submitted", "jobs_cancelled", "anytime_ok", "jobs_failed",
		"sse_mismatch", "sse_generation_events", "generations", "codes"} {
		if _, ok := keys[k]; !ok {
			t.Fatalf("summary lacks %q:\n%v", k, keys)
		}
	}
	if s.Mode != "jobs" || s.Submitted < 1 {
		t.Fatalf("mode %q, %d jobs submitted, want jobs and >= 1\n%s", s.Mode, s.Submitted, out.String())
	}
	if s.AnytimeOK != s.Cancelled || s.Failed != 0 || s.SSEMismatch != 0 || s.SSEEvents != s.Generations {
		t.Fatalf("jobs gate conditions violated: %+v generations %d\n%s", *s.JobStats, s.Generations, out.String())
	}
	for code, n := range s.Codes {
		if strings.HasPrefix(code, "5") {
			t.Fatalf("%d responses with status %s\n%s", n, code, out.String())
		}
	}
}
