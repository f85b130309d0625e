// Package loadgen generates load for emts-loadgen and emts-routersmoke.
// It builds request bodies from generated PTGs, drives emts-serve (or a
// router in front of it) in a closed loop, an open loop or through the
// async job API, and reports throughput, latency, status codes and the
// serving tier's cache and intern observables, as a text report and as a
// Summary. The modes are described in emts-loadgen's documentation.
package loadgen

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"emts/internal/dag"
	"emts/internal/daggen"
	"emts/internal/envelope"
)

// Options is one run's parameters; emts-loadgen maps its flags onto it one
// to one.
type Options struct {
	URL      string // front end: a router or a single backend
	Direct   string // comma-separated backends swept round-robin; overrides URL
	Graphs   string // comma-separated workloads: fftN, strassen, randomN
	Algo     string
	Model    string
	Cluster  string // cluster preset
	Conc     int    // closed-loop and jobs-mode workers
	Seeds    int    // distinct request seeds per workload
	Seed     int64  // base seed for graph generation and request seeds
	Islands  int    // islands stamped into every request
	Duration time.Duration
	Timeout  time.Duration // per-request client timeout
	RPS      float64       // > 0 selects the open loop at this rate
	Jobs     bool          // drive the async job API instead of /v1/schedule
	CancelAt int           // jobs mode: cancel every second job at this generation
}

// Summary is a run's machine-readable report, the document emts-loadgen's
// -json writes. The keys of the /v1/schedule modes live in ScheduleStats,
// those of the jobs mode in JobStats; the other pointer is nil and writes
// nothing.
type Summary struct {
	Mode string `json:"mode"` // "closed", "open" or "jobs"
	*ScheduleStats
	*JobStats
	Codes map[string]int `json:"codes"`
	// Islands echoes the request parameter; Generations totals the EA
	// generations the results reported. Together they let a bench harness
	// normalize rates across island counts.
	Islands     int `json:"islands,omitempty"`
	Generations int `json:"generations"`
	// Latency percentiles over successful requests; in jobs mode, submit to
	// terminal event per job.
	P50Ms float64 `json:"p50_ms"`
	P95Ms float64 `json:"p95_ms"`
	P99Ms float64 `json:"p99_ms"`
	MaxMs float64 `json:"max_ms"`
}

// ScheduleStats is the part of a Summary only the /v1/schedule modes write.
type ScheduleStats struct {
	Requests    int     `json:"requests"`
	DurationSec float64 `json:"duration_sec"`          // the configured run length
	OfferedRPS  float64 `json:"offered_rps,omitempty"` // open loop only
	// AchievedRPS divides the requests by the measured window, from the
	// first send to the last completion, so a server that falls behind an
	// open loop reads below the offered rate.
	AchievedRPS float64 `json:"achieved_rps"`
	CacheHits   int     `json:"cache_hits"`
	// Hit rates over successful requests, in percent: the response cache
	// (X-Emts-Cache) and the graph and table interns (X-Emts-Interned),
	// the affinity observables digest routing is measured by.
	CacheHitPct    float64 `json:"cache_hit_pct"`
	InternGraphPct float64 `json:"intern_graph_hit_pct"`
	InternTablePct float64 `json:"intern_table_hit_pct"`
	// Instances counts successes by X-Emts-Instance (absent when the
	// backends stamp none).
	Instances map[string]int `json:"instances,omitempty"`
}

// Run drives one load run against o's target, prints the text report to out
// and returns the summary. It fails on invalid options and when nothing
// succeeded.
func Run(out io.Writer, o Options) (Summary, error) {
	if o.Conc < 1 {
		return Summary{}, fmt.Errorf("-c %d, want >= 1", o.Conc)
	}
	if o.RPS < 0 {
		return Summary{}, fmt.Errorf("-rps %g, want >= 0", o.RPS)
	}
	// Each run dials afresh: successive runs may meet a restarted server on
	// the same port, which must not inherit the last run's connections.
	tr := http.DefaultTransport.(*http.Transport).Clone()
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr, Timeout: o.Timeout}
	if o.Jobs {
		t, err := runJobs(client, &http.Client{Transport: tr}, o)
		if err != nil {
			return Summary{}, err
		}
		return t.reportJobs(out, o)
	}
	bodies, err := Bodies(o)
	if err != nil {
		return Summary{}, err
	}
	tgts, err := targets(o.URL, o.Direct)
	if err != nil {
		return Summary{}, err
	}
	var t tally
	if o.RPS > 0 {
		t = runOpen(client, tgts, bodies, o)
	} else {
		t = runClosed(client, tgts, bodies, o)
	}
	return t.report(out, o)
}

// Bodies builds every /v1/schedule body a run picks from: each workload of
// o.Graphs, generated at o.Seed, with o.Seeds request seeds from o.Seed on.
// Marshaling outside the measurement loop keeps the client's overhead out
// of the latencies.
func Bodies(o Options) ([][]byte, error) {
	if o.Seeds < 1 {
		return nil, fmt.Errorf("-seeds %d, want >= 1", o.Seeds)
	}
	graphs, err := workloads(o.Graphs, o.Seed)
	if err != nil {
		return nil, err
	}
	var bodies [][]byte
	for _, g := range graphs {
		for s := 0; s < o.Seeds; s++ {
			b, err := o.body(g, o.Seed+int64(s))
			if err != nil {
				return nil, err
			}
			bodies = append(bodies, b)
		}
	}
	return bodies, nil
}

// body is the request for graph g at seed.
func (o Options) body(g json.RawMessage, seed int64) ([]byte, error) {
	return json.Marshal(envelope.ScheduleRequest{
		Graph:     g,
		Cluster:   envelope.ClusterSpec{Preset: o.Cluster},
		Model:     o.Model,
		Algorithm: o.Algo,
		Seed:      seed,
		Islands:   o.Islands,
	})
}

// workloads generates and marshals the PTG of each workload spec.
func workloads(specs string, seed int64) ([]json.RawMessage, error) {
	var graphs []json.RawMessage
	for _, spec := range strings.Split(specs, ",") {
		spec = strings.TrimSpace(spec)
		if spec == "" {
			continue
		}
		g, err := generate(spec, seed)
		if err != nil {
			return nil, err
		}
		raw, err := json.Marshal(g)
		if err != nil {
			return nil, err
		}
		graphs = append(graphs, raw)
	}
	if len(graphs) == 0 {
		return nil, errors.New("no workloads in -graphs")
	}
	return graphs, nil
}

// generate builds one PTG from a workload spec.
func generate(spec string, seed int64) (*dag.Graph, error) {
	costs := daggen.DefaultCosts()
	switch {
	case spec == "strassen":
		return daggen.Strassen(costs, seed)
	case strings.HasPrefix(spec, "fft"):
		points, err := strconv.Atoi(spec[len("fft"):])
		if err != nil {
			return nil, fmt.Errorf("workload %q: want fftN (e.g. fft8)", spec)
		}
		return daggen.FFT(points, costs, seed)
	case strings.HasPrefix(spec, "random"):
		n, err := strconv.Atoi(spec[len("random"):])
		if err != nil {
			return nil, fmt.Errorf("workload %q: want randomN (e.g. random50)", spec)
		}
		cfg := daggen.RandomConfig{N: n, Width: 0.5, Regularity: 0.8, Density: 0.5, Jump: 1}
		return daggen.Random(cfg, costs, seed)
	}
	return nil, fmt.Errorf("unknown workload %q (fftN, strassen, randomN)", spec)
}

// targets maps URL or Direct to the endpoint list: Direct round-robins
// several backends, URL hits one front end (router or single server).
func targets(url, direct string) ([]string, error) {
	if direct == "" {
		return []string{strings.TrimSuffix(url, "/") + "/v1/schedule"}, nil
	}
	var out []string
	for _, f := range strings.Split(direct, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		if !strings.Contains(f, "://") {
			f = "http://" + f
		}
		out = append(out, strings.TrimSuffix(f, "/")+"/v1/schedule")
	}
	if len(out) == 0 {
		return nil, errors.New("no addresses in -direct")
	}
	return out, nil
}

// transportError is the code under which a request without an HTTP
// response is counted.
const transportError = -1

// tally is what one worker observed; a run merges its workers' tallies.
type tally struct {
	codes       map[int]int     // status of every request issued
	latencies   []time.Duration // successes; jobs mode: submit to terminal event
	generations int             // EA generations the results reported
	firstErr    error
	// begin and end bound the measured window: the first send and the last
	// completion.
	begin, end time.Time

	// The /v1/schedule modes count these over 200s.
	cacheHits   int
	internGraph int            // X-Emts-Interned includes "graph"
	internTable int            // ... and "table"
	instances   map[string]int // X-Emts-Instance values

	jobs JobStats
}

func newTally() tally { return tally{codes: make(map[int]int), instances: make(map[string]int)} }

// fail records err if it is the worker's first.
func (t *tally) fail(err error) {
	if t.firstErr == nil {
		t.firstErr = err
	}
}

// merge folds the workers' tallies into one, latencies sorted.
func merge(parts []tally) tally {
	t := newTally()
	for i := range parts {
		p := &parts[i]
		for c, n := range p.codes {
			t.codes[c] += n
		}
		t.latencies = append(t.latencies, p.latencies...)
		t.generations += p.generations
		t.fail(p.firstErr)
		if !p.begin.IsZero() && (t.begin.IsZero() || p.begin.Before(t.begin)) {
			t.begin = p.begin
		}
		if p.end.After(t.end) {
			t.end = p.end
		}
		t.cacheHits += p.cacheHits
		t.internGraph += p.internGraph
		t.internTable += p.internTable
		for id, n := range p.instances {
			t.instances[id] += n
		}
		t.jobs.add(p.jobs)
	}
	sort.Slice(t.latencies, func(i, j int) bool { return t.latencies[i] < t.latencies[j] })
	return t
}

// post sends one /v1/schedule request and folds its outcome into t. The
// latency runs from since, the send or the open loop's scheduled instant,
// to the response headers; the window runs from since to the end of the
// body. It returns the response, body closed, or nil on a transport error.
func (t *tally) post(client *http.Client, url string, body []byte, since time.Time) *http.Response {
	if t.begin.IsZero() {
		t.begin = since
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	elapsed := time.Since(since)
	if err != nil {
		t.fail(err)
		t.codes[transportError]++
		t.end = time.Now()
		return nil
	}
	rbody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	t.end = time.Now()
	t.codes[resp.StatusCode]++
	if resp.StatusCode != http.StatusOK {
		return resp
	}
	// The accounting of a 200 comes after elapsed was taken, so it never
	// inflates the latencies.
	t.latencies = append(t.latencies, elapsed)
	var rb struct {
		Generations int `json:"generations"`
	}
	if err := json.Unmarshal(rbody, &rb); err == nil {
		t.generations += rb.Generations
	}
	h := resp.Header
	if h.Get("X-Emts-Cache") == "hit" {
		t.cacheHits++
	}
	switch h.Get("X-Emts-Interned") {
	case "graph":
		t.internGraph++
	case "table":
		t.internTable++
	case "graph,table":
		t.internGraph++
		t.internTable++
	}
	if id := h.Get("X-Emts-Instance"); id != "" {
		t.instances[id]++
	}
	return resp
}

// backoff is the closed loops' answer to a 429: wait a quarter of its
// Retry-After, when it has a usable one.
func backoff(resp *http.Response) {
	if resp.StatusCode != http.StatusTooManyRequests {
		return
	}
	if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && ra > 0 {
		time.Sleep(time.Duration(ra) * time.Second / 4)
	}
}

// runClosed is the default mode: o.Conc workers with one request in flight
// each. With several targets each worker round-robins across them.
func runClosed(client *http.Client, tgts []string, bodies [][]byte, o Options) tally {
	deadline := time.Now().Add(o.Duration)
	parts := make([]tally, o.Conc)
	var wg sync.WaitGroup
	for w := range parts {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Per-worker RNG: pick bodies in a random but reproducible order
			// so concurrent workers don't sweep the cache in lockstep.
			rng := rand.New(rand.NewSource(o.Seed + int64(w)))
			t := newTally()
			for n := w; time.Now().Before(deadline); n++ {
				body := bodies[rng.Intn(len(bodies))]
				if resp := t.post(client, tgts[n%len(tgts)], body, time.Now()); resp != nil {
					backoff(resp)
				}
			}
			parts[w] = t
		}(w)
	}
	wg.Wait()
	return merge(parts)
}

// runOpen dispatches requests at fixed scheduled instants, o.RPS per second
// for o.Duration, each on its own goroutine, and measures every latency
// from the scheduled instant, so queueing delay the server induces is
// charged to the request instead of silently pausing the generator (no
// coordinated omission). The dispatcher never waits for responses; a server
// that falls behind shows as an achieved rate below the offered one.
func runOpen(client *http.Client, tgts []string, bodies [][]byte, o Options) tally {
	interval := time.Duration(float64(time.Second) / o.RPS)
	n := max(1, int(o.Duration.Seconds()*o.RPS))
	rng := rand.New(rand.NewSource(o.Seed))
	picks := make([]int, n) // request mix chosen up front: reproducible and race-free
	for i := range picks {
		picks[i] = rng.Intn(len(bodies))
	}

	parts := make([]tally, n)
	var wg sync.WaitGroup
	start := time.Now()
	for i := range parts {
		scheduled := start.Add(time.Duration(i) * interval)
		if d := time.Until(scheduled); d > 0 {
			time.Sleep(d)
		}
		wg.Add(1)
		go func(i int, scheduled time.Time) {
			defer wg.Done()
			t := newTally()
			t.post(client, tgts[i%len(tgts)], bodies[picks[i]], scheduled)
			parts[i] = t
		}(i, scheduled)
	}
	wg.Wait()
	return merge(parts)
}

// summary fills the keys every mode writes.
func (t *tally) summary(mode string, o Options) Summary {
	s := Summary{Mode: mode, Codes: make(map[string]int, len(t.codes)), Islands: o.Islands, Generations: t.generations}
	for c, n := range t.codes {
		s.Codes[codeLabel(c)] = n
	}
	if n := len(t.latencies); n > 0 {
		ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
		s.P50Ms = ms(percentile(t.latencies, 0.50))
		s.P95Ms = ms(percentile(t.latencies, 0.95))
		s.P99Ms = ms(percentile(t.latencies, 0.99))
		s.MaxMs = ms(t.latencies[n-1])
	}
	return s
}

// codeLabel names a status code in the summary's codes map.
func codeLabel(c int) string {
	if c == transportError {
		return "transport_error"
	}
	return strconv.Itoa(c)
}

// printCodes prints the status-code tally in code order.
func (t *tally) printCodes(out io.Writer) {
	codes := make([]int, 0, len(t.codes))
	for c := range t.codes {
		codes = append(codes, c)
	}
	sort.Ints(codes)
	for _, c := range codes {
		fmt.Fprintf(out, "  %-16s %d\n", strings.ReplaceAll(codeLabel(c), "_", " "), t.codes[c])
	}
}

// none is the error of a run where nothing succeeded.
func (t *tally) none(what string) error {
	if t.firstErr != nil {
		return fmt.Errorf("%s (first error: %v)", what, t.firstErr)
	}
	return errors.New(what)
}

// report prints the /v1/schedule modes' text report and returns their
// summary.
func (t *tally) report(out io.Writer, o Options) (Summary, error) {
	total := 0
	for _, n := range t.codes {
		total += n
	}
	achieved := 0.0
	if window := t.end.Sub(t.begin); window > 0 {
		achieved = float64(total) / window.Seconds()
	}
	mode := "closed"
	if o.RPS > 0 {
		mode = "open"
		fmt.Fprintf(out, "open loop:  offered %.1f req/s, achieved %.1f req/s\n", o.RPS, achieved)
	}
	fmt.Fprintf(out, "requests:   %d in %s (%.1f req/s)\n", total, o.Duration, achieved)
	t.printCodes(out)
	ok := len(t.latencies)
	if ok == 0 {
		return Summary{}, t.none("no successful requests")
	}
	pct := func(n int) float64 { return 100 * float64(n) / float64(ok) }
	s := t.summary(mode, o)
	s.ScheduleStats = &ScheduleStats{
		Requests:       total,
		DurationSec:    o.Duration.Seconds(),
		OfferedRPS:     o.RPS,
		AchievedRPS:    achieved,
		CacheHits:      t.cacheHits,
		CacheHitPct:    pct(t.cacheHits),
		InternGraphPct: pct(t.internGraph),
		InternTablePct: pct(t.internTable),
		Instances:      t.instances,
	}
	fmt.Fprintf(out, "cache hits: %d/%d (%.1f%%)\n", t.cacheHits, ok, s.CacheHitPct)
	fmt.Fprintf(out, "interned:   graph %.1f%%  table %.1f%%\n", s.InternGraphPct, s.InternTablePct)
	if t.generations > 0 {
		fmt.Fprintf(out, "ea:         %d generations across %d responses (islands=%d)\n", t.generations, ok, max(1, o.Islands))
	}
	if len(t.instances) > 0 {
		ids := make([]string, 0, len(t.instances))
		for id := range t.instances {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		fmt.Fprintf(out, "instances: ")
		for _, id := range ids {
			fmt.Fprintf(out, " %s=%d", id, t.instances[id])
		}
		fmt.Fprintln(out)
	}
	fmt.Fprintf(out, "latency:    p50 %s  p95 %s  p99 %s  max %s\n",
		percentile(t.latencies, 0.50), percentile(t.latencies, 0.95), percentile(t.latencies, 0.99), t.latencies[ok-1])
	return s, nil
}

// percentile returns the q-quantile by the nearest-rank method, the sample
// of rank ⌈q·n⌉; all must be sorted ascending. The 1e-9 slack keeps float
// error in q·n from pushing an exact rank up by one.
func percentile(all []time.Duration, q float64) time.Duration {
	if len(all) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(all))-1e-9)) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(all) {
		i = len(all) - 1
	}
	return all[i]
}
