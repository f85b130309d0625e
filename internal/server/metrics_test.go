// The /metrics page is pinned byte for byte by two golden files, so series
// names, label order and number formatting cannot drift: perfbench and CI
// read the series by name. Regenerate them only for a deliberate change of
// the exposition. Name the package first: go test hands an unknown flag such
// as -update-golden, and every argument after it, to the test binary.
//
//	go test ./internal/server -run '^TestMetricsRenderDeterministic$' -update-golden
package server

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"emts/internal/jobs"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the golden files of the tests that run from the current code")

// checkGolden compares page with testdata/name, or rewrites the file under
// -update-golden.
func checkGolden(t *testing.T, name string, page []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, page, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(page, want) {
		t.Errorf("%s differs from the rendered page:\n--- got ---\n%s\n--- want ---\n%s", path, page, want)
	}
}

// populatedRegistry returns a registry with every family populated: all
// samplers set (the governor in overdraft), every job state, both job
// phases, and latency sums that render in exponent form.
func populatedRegistry() *registry {
	m := newRegistry()
	for _, code := range []int{200, 400, 429, 200, 499} {
		m.countRequest(code)
	}
	m.countOutcome("emts5", "ok")
	m.countOutcome("cpa", "ok")
	m.countOutcome("emts5", "deadline")
	m.countOutcome("emts10", "anytime")
	m.observeLatency("emts5", 0.012)
	m.observeLatency("emts5", 0.3)
	m.observeLatency("cpa", 0.0004)
	m.observeLatency("hcpa", 0.000015)
	m.observeLatency("emts10", 1234612.25)
	m.inflight.Add(2)
	m.cacheHits.Add(3)
	m.cacheMisses.Add(5)
	m.queueDepth = func() int { return 7 }
	m.queueCapacity = 64
	m.cacheEntries = func() int { return 4 }
	m.graphStats = func() (uint64, uint64) { return 11, 6 }
	m.tableStats = func() (uint64, uint64) { return 9, 8 }
	m.governorAvailable = func() int { return -3 }
	m.governorCapacity = 2
	m.jobStates = func() map[jobs.State]int {
		return map[jobs.State]int{
			jobs.StateQueued:              1,
			jobs.StateRunning:             2,
			jobs.StateDone:                5,
			jobs.StateFailed:              0,
			jobs.StateCancelled:           1,
			jobs.StateCancelledWithResult: 3,
		}
	}
	m.sseSubscribers.Add(2)
	m.anytimeCancels.Add(3)
	m.observeJobPhase("queued", 0.0007)
	m.observeJobPhase("queued", 0.04)
	m.observeJobPhase("running", 2.2)
	return m
}

// TestMetricsRenderDeterministic: two scrapes of the same registry state must
// be byte-identical (schedlint's mapiterorder invariant, enforced end to
// end), and both the populated and the empty page match their golden files.
func TestMetricsRenderDeterministic(t *testing.T) {
	m := populatedRegistry()
	var a, b bytes.Buffer
	n, err := m.WriteTo(&a)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(a.Len()) {
		t.Fatalf("WriteTo reported %d bytes, wrote %d", n, a.Len())
	}
	if _, err := m.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("two scrapes of the same state differ")
	}
	checkGolden(t, "metrics.golden", a.Bytes())

	page := a.String()
	for _, want := range []string{
		`emts_requests_total{code="200"} 2`,
		`emts_schedule_total{algorithm="emts5",outcome="deadline"} 1`,
		`emts_request_duration_seconds_bucket{algorithm="emts5",le="0.025"} 1`,
		`emts_request_duration_seconds_sum{algorithm="hcpa"} 1.5e-05`,
		`emts_request_duration_seconds_sum{algorithm="emts10"} 1.23461225e+06`,
		`emts_governor_tokens_available -3`,
		`emts_jobs_phase_seconds_count{phase="running"} 1`,
	} {
		if !strings.Contains(page, want) {
			t.Errorf("missing %q", want)
		}
	}

	var empty bytes.Buffer
	if _, err := newRegistry().WriteTo(&empty); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "metrics_empty.golden", empty.Bytes())
}
