package server

// Model and algorithm names resolve at admission (validateScheduleRequest),
// so an unknown name is answered before the request can take a queue slot,
// build a table, create a job or label a metric, and an alias is the same
// request as its canonical spelling.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"emts/internal/dag"
	"emts/internal/jobs"
	"emts/internal/model"
	"emts/internal/platform"
	"emts/internal/sim"
)

// unknownNameBodies returns n bodies that name distinct 1 KB unknown
// algorithms and n that name distinct 1 KB unknown models.
func unknownNameBodies(n int) [][]byte {
	var bodies [][]byte
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("unknown-%04d-", i) + strings.Repeat("x", 1024-13)
		bodies = append(bodies,
			[]byte(`{"graph":{"tasks":[{"flops":1}]},"cluster":{"preset":"chti"},"algorithm":"`+name+`"}`),
			[]byte(`{"graph":{"tasks":[{"flops":1}]},"cluster":{"preset":"chti"},"model":"`+name+`"}`))
	}
	return bodies
}

// scrape returns the /metrics page.
func scrape(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	return string(readAll(t, resp))
}

// seriesOf returns the series of a /metrics page: every sample line without
// its value.
func seriesOf(page string) []string {
	var series []string
	for _, line := range strings.Split(page, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		series = append(series, line[:strings.LastIndexByte(line, ' ')])
	}
	return series
}

// TestUnknownNamesAddNoMetricSeries: 50 distinct unknown algorithms and 50
// distinct unknown models leave the set of /metrics series as it was, and
// an unknown model is not counted against the default algorithm.
func TestUnknownNamesAddNoMetricSeries(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	// A malformed body and a scrape first, so the 400 and 200 status series
	// exist before the baseline scrape.
	readAll(t, post(t, ts.URL, []byte(`{`)))
	scrape(t, ts.URL)
	before := scrape(t, ts.URL)
	for _, body := range unknownNameBodies(50) {
		resp := post(t, ts.URL, body)
		if b := readAll(t, resp); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status %d, want 400 (%s)", resp.StatusCode, b)
		}
	}
	after := scrape(t, ts.URL)
	if !slices.Equal(seriesOf(before), seriesOf(after)) {
		t.Fatalf("unknown names changed the series:\n--- before ---\n%s\n--- after ---\n%s", before, after)
	}
	if strings.Contains(after, "unknown-") || strings.Contains(after, `outcome="client_error"`) {
		t.Fatalf("unknown names reached the schedule outcomes:\n%s", after)
	}
	if !strings.Contains(after, `emts_requests_total{code="400"} 101`) {
		t.Fatalf("400s not counted:\n%s", after)
	}
}

// TestUnknownNamesNeverReachWorkers: a request with an unknown name is
// answered before admission, so no worker runs it, no table is built or
// interned, and the response cache is not consulted.
func TestUnknownNamesNeverReachWorkers(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	var runs atomic.Int64
	s.run = func(p *sim.Plan, ctx context.Context, g *dag.Graph, cluster platform.Cluster, tab *model.Table) (*sim.Report, error) {
		runs.Add(1)
		return p.RunTable(ctx, g, cluster, tab)
	}
	for _, body := range unknownNameBodies(50) {
		resp := post(t, ts.URL, body)
		if b := readAll(t, resp); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status %d, want 400 (%s)", resp.StatusCode, b)
		}
	}
	if n := runs.Load(); n != 0 {
		t.Fatalf("workers ran %d requests with unknown names", n)
	}
	if n := s.tables.Len(); n != 0 {
		t.Fatalf("%d tables interned for unknown names", n)
	}
	if n := s.metrics.cacheMisses.Load(); n != 0 {
		t.Fatalf("%d cache lookups for unknown names", n)
	}
}

// TestJobSubmitRejectsUnknownNames: POST /v1/jobs answers an unknown name
// with the 400 /v1/schedule gives, and creates no job.
func TestJobSubmitRejectsUnknownNames(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	for _, body := range unknownNameBodies(2) {
		direct := post(t, ts.URL, body)
		want := readAll(t, direct)
		resp := postJob(t, ts.URL, body)
		got := readAll(t, resp)
		if resp.StatusCode != http.StatusBadRequest || string(got) != string(want) || direct.StatusCode != http.StatusBadRequest {
			t.Fatalf("job submit answered %d %s, want the /v1/schedule answer %d %s",
				resp.StatusCode, got, direct.StatusCode, want)
		}
	}
	if n := s.jobStore.Len(); n != 0 {
		t.Fatalf("job store holds %d jobs after unknown-name submits", n)
	}
}

// TestUnusableTaskTimeIsClientError: a task whose parameters give no
// positive finite time (zero flops, or denormal flops under Downey) is the
// client's input, answered 400 with the table error and counted as a client
// error, on /v1/schedule and as the job's result on /v1/jobs.
func TestUnusableTaskTimeIsClientError(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	cases := []struct{ body, want string }{
		{`{"graph":{"tasks":[{"flops":0}]},"cluster":{"preset":"chti"}}`,
			`{"error":"model synthetic: T(task 0, p=1) = 0, want positive finite"}` + "\n"},
		{`{"graph":{"tasks":[{"flops":5e-324}]},"cluster":{"preset":"chti"},"model":"downey","algorithm":"mcpa"}`,
			`{"error":"model downey: T(task 0, p=1) = 0, want positive finite"}` + "\n"},
	}
	for _, tc := range cases {
		resp := post(t, ts.URL, []byte(tc.body))
		if b := readAll(t, resp); resp.StatusCode != http.StatusBadRequest || string(b) != tc.want {
			t.Errorf("/v1/schedule %s:\n got %d %s\nwant 400 %s", tc.body, resp.StatusCode, b, tc.want)
		}

		env := decodeEnvelope(t, postJob(t, ts.URL, []byte(tc.body)))
		if env = waitTerminal(t, ts.URL, env.ID); env.State != jobs.StateFailed {
			t.Fatalf("job state %s, want failed", env.State)
		}
		resp, err := http.Get(ts.URL + "/v1/jobs/" + env.ID + "/result")
		if err != nil {
			t.Fatal(err)
		}
		if b := readAll(t, resp); resp.StatusCode != http.StatusBadRequest || string(b) != tc.want {
			t.Errorf("job result %s:\n got %d %s\nwant 400 %s", tc.body, resp.StatusCode, b, tc.want)
		}
	}
	page := scrape(t, ts.URL)
	for _, want := range []string{
		`emts_schedule_total{algorithm="emts5",outcome="client_error"} 2`,
		`emts_schedule_total{algorithm="mcpa",outcome="client_error"} 2`,
	} {
		if !strings.Contains(page, want) {
			t.Errorf("/metrics lacks %s:\n%s", want, page)
		}
	}
	if strings.Contains(page, `outcome="error"`) {
		t.Errorf("a client's task counted as a server error:\n%s", page)
	}
}

// TestAliasIsItsCanonicalRequest: an aliased request answers with the
// canonical names and shares its canonical spelling's cache entry and
// metric labels.
func TestAliasIsItsCanonicalRequest(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	graph := string(testGraphJSON(t))
	body := func(modelName, algorithm string) []byte {
		return []byte(`{"graph":` + graph + `,"cluster":{"preset":"chti"},"model":"` + modelName + `","algorithm":"` + algorithm + `","seed":3}`)
	}
	for _, tc := range []struct{ aliasModel, aliasAlgo, model, algo string }{
		{"model2", "emts", "synthetic", "emts5"},
		{"Model1", "onestep", "amdahl", "eft"},
		{"synthetic", "DeltaCP", "synthetic", "delta-cp"},
	} {
		first := post(t, ts.URL, body(tc.aliasModel, tc.aliasAlgo))
		b1 := readAll(t, first)
		var sr ScheduleResponse
		if err := json.Unmarshal(b1, &sr); err != nil || first.StatusCode != http.StatusOK {
			t.Fatalf("%s/%s: status %d: %s", tc.aliasModel, tc.aliasAlgo, first.StatusCode, b1)
		}
		if sr.Model != tc.model || sr.Algorithm != tc.algo {
			t.Fatalf("%s/%s answered as %s/%s, want %s/%s", tc.aliasModel, tc.aliasAlgo, sr.Model, sr.Algorithm, tc.model, tc.algo)
		}
		second := post(t, ts.URL, body(tc.model, tc.algo))
		b2 := readAll(t, second)
		if second.Header.Get("X-Emts-Cache") != "hit" || string(b1) != string(b2) {
			t.Fatalf("%s/%s: canonical spelling missed the alias's cache entry (%s)", tc.model, tc.algo, second.Header.Get("X-Emts-Cache"))
		}
	}
	page := scrape(t, ts.URL)
	for _, alias := range []string{"emts\"", "onestep", "deltacp", "model"} {
		if strings.Contains(page, `algorithm="`+alias) {
			t.Errorf("alias %s labels a series:\n%s", alias, page)
		}
	}
}
