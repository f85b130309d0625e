// Command emts-loadgen is a load generator for emts-serve: it replays
// generated FFT, Strassen, and DAGGEN-style random PTGs against the
// /v1/schedule endpoint and reports throughput and latency percentiles.
//
// Usage:
//
//	emts-loadgen [-url http://localhost:8080] [-direct addr1,addr2,...]
//	             [-c 4] [-duration 10s]
//	             [-graphs fft8,strassen,random50] [-algo emts5]
//	             [-model synthetic] [-cluster chti] [-seeds 8] [-seed 1]
//	             [-islands 0] [-rps 0] [-jobs] [-cancel-at 0] [-json file]
//
// The default mode is closed-loop: each of the c workers keeps exactly one
// request in flight, so offered load adapts to service capacity instead of
// overrunning it. Seeds vary across requests (-seeds distinct values), which
// controls the server's response-cache hit rate: -seeds 1 measures pure cache
// service, large values measure pure compute.
//
// -rps R switches to open-loop mode: requests are dispatched at fixed
// scheduled instants R per second regardless of how the previous ones fare,
// and every latency is measured from the request's *scheduled* start, not its
// actual send — so a stalled server inflates the percentiles instead of
// silently throttling the generator (the coordinated-omission trap of closed
// loops). The report states offered vs achieved rate; a gap means the server
// (or the client host) could not keep up.
//
// -direct addr1,addr2,... replaces -url with a round-robin sweep over
// several backends — the no-affinity baseline the routing tier (emts-router)
// is measured against: every backend sees the whole working set, so bounded
// caches thrash where digest routing would keep them hot. The report's
// interned/cache hit rates and per-instance counts (X-Emts-Instance) make
// the comparison directly readable.
//
// -jobs switches to the async job API: each worker submits POST /v1/jobs
// (unique seed per submission, so the idempotency key never dedups),
// subscribes to the job's SSE event stream, counts per-generation progress
// events, and fetches the final result. With -cancel-at G every second job
// is cancelled (DELETE) once its stream reaches generation G, exercising the
// anytime path: the report counts how many cancelled jobs returned an
// incumbent whose makespan equals the last streamed best_makespan
// (anytime_ok), and how many completed jobs streamed exactly one generation
// event per generation in the final result (sse_match/sse_mismatch).
//
// -islands N stamps the island-model EA parameter into every generated
// request (see README "Parallel search"); the JSON summary echoes the setting
// and the total EA generations the successful responses reported, so a bench
// harness can compare throughput across island counts.
//
// -json FILE additionally writes the machine-readable summary to FILE
// ("-" = stdout) for benchmark harnesses and CI gates.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"emts/internal/dag"
	"emts/internal/daggen"
	"emts/internal/server"
)

func main() {
	var (
		url      = flag.String("url", "http://localhost:8080", "server base URL (router or single backend)")
		direct   = flag.String("direct", "", "comma-separated backend addresses swept round-robin (overrides -url)")
		conc     = flag.Int("c", 4, "concurrent closed-loop workers")
		duration = flag.Duration("duration", 10*time.Second, "test duration")
		graphs   = flag.String("graphs", "fft8,strassen,random50", "comma-separated workloads: fftN, strassen, randomN")
		algo     = flag.String("algo", "emts5", "algorithm to request")
		model    = flag.String("model", "synthetic", "execution-time model to request")
		cluster  = flag.String("cluster", "chti", "cluster preset (chti, grelon)")
		seeds    = flag.Int("seeds", 8, "distinct request seeds per workload (1 = all cache hits after warmup)")
		seed     = flag.Int64("seed", 1, "base seed for graph generation and request seeds")
		islands  = flag.Int("islands", 0, "islands stamped into every request (0 = classic single population)")
		timeout  = flag.Duration("timeout", time.Minute, "per-request client timeout")
		rps      = flag.Float64("rps", 0, "open-loop fixed request rate (0 = closed loop with -c workers)")
		jsonOut  = flag.String("json", "", "also write the summary as JSON to this file (\"-\" = stdout)")
		jobs     = flag.Bool("jobs", false, "exercise the async job API (submit, SSE subscribe, result) instead of /v1/schedule")
		cancelAt = flag.Int("cancel-at", 0, "with -jobs: cancel every second job once its SSE stream reaches this generation (0 = never)")
	)
	flag.Parse()
	opts := loadOpts{
		url:      *url,
		direct:   *direct,
		graphs:   *graphs,
		algo:     *algo,
		model:    *model,
		cluster:  *cluster,
		conc:     *conc,
		seeds:    *seeds,
		seed:     *seed,
		islands:  *islands,
		duration: *duration,
		timeout:  *timeout,
		rps:      *rps,
		jsonOut:  *jsonOut,
		jobs:     *jobs,
		cancelAt: *cancelAt,
	}
	if err := run(os.Stdout, opts); err != nil {
		fmt.Fprintln(os.Stderr, "emts-loadgen:", err)
		os.Exit(1)
	}
}

// loadOpts gathers one run's parameters (the flag surface, testable without
// a flag set).
type loadOpts struct {
	url      string
	direct   string
	graphs   string
	algo     string
	model    string
	cluster  string
	conc     int
	seeds    int
	seed     int64
	islands  int
	duration time.Duration
	timeout  time.Duration
	rps      float64
	jsonOut  string
	jobs     bool
	cancelAt int
}

// buildBodies pre-marshals every request body: workloads × seeds. Marshaling
// outside the measurement loop keeps the client overhead out of the
// latencies.
func buildBodies(graphSpecs, algo, model, cluster string, nSeeds int, baseSeed int64, islands int) ([][]byte, error) {
	var bodies [][]byte
	for _, spec := range strings.Split(graphSpecs, ",") {
		spec = strings.TrimSpace(spec)
		if spec == "" {
			continue
		}
		g, err := generate(spec, baseSeed)
		if err != nil {
			return nil, err
		}
		raw, err := json.Marshal(g)
		if err != nil {
			return nil, err
		}
		for s := 0; s < nSeeds; s++ {
			req := server.ScheduleRequest{
				Graph:     raw,
				Cluster:   server.ClusterSpec{Preset: cluster},
				Model:     model,
				Algorithm: algo,
				Seed:      baseSeed + int64(s),
				Islands:   islands,
			}
			b, err := json.Marshal(req)
			if err != nil {
				return nil, err
			}
			bodies = append(bodies, b)
		}
	}
	if len(bodies) == 0 {
		return nil, fmt.Errorf("no workloads in -graphs")
	}
	return bodies, nil
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

// targets maps the flag surface to the endpoint list: -direct round-robins
// several backends, -url hits one front end (router or single server).
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
		return nil, fmt.Errorf("no addresses in -direct")
	}
	return out, nil
}

// result aggregates one worker's observations.
type result struct {
	latencies   []time.Duration // successful (200) requests only
	codes       map[int]int
	cacheHits   int
	internGraph int            // 200s whose X-Emts-Interned includes "graph"
	internTable int            // ... and "table"
	instances   map[string]int // X-Emts-Instance values of 200s
	generations int            // EA generations reported by 200 bodies
	firstErr    error
}

// respBrief is the slice of a schedule response the generator accounts for.
type respBrief struct {
	Generations int `json:"generations"`
}

// observe folds one response into the result (200s only carry latency,
// cache, intern, generation, and instance accounting). body is the already
// drained response body; decoding it happens after elapsed was taken, so the
// accounting never inflates the latencies.
func (res *result) observe(resp *http.Response, body []byte, elapsed time.Duration) {
	res.codes[resp.StatusCode]++
	if resp.StatusCode != http.StatusOK {
		return
	}
	res.latencies = append(res.latencies, elapsed)
	var rb respBrief
	if err := json.Unmarshal(body, &rb); err == nil {
		res.generations += rb.Generations
	}
	if resp.Header.Get("X-Emts-Cache") == "hit" {
		res.cacheHits++
	}
	switch resp.Header.Get("X-Emts-Interned") {
	case "graph":
		res.internGraph++
	case "table":
		res.internTable++
	case "graph,table":
		res.internGraph++
		res.internTable++
	}
	if id := resp.Header.Get("X-Emts-Instance"); id != "" {
		if res.instances == nil {
			res.instances = make(map[string]int)
		}
		res.instances[id]++
	}
}

func run(out io.Writer, o loadOpts) error {
	if o.conc < 1 {
		return fmt.Errorf("-c %d, want >= 1", o.conc)
	}
	if o.rps < 0 {
		return fmt.Errorf("-rps %g, want >= 0", o.rps)
	}
	if o.jobs {
		return runJobsMode(out, o)
	}
	bodies, err := buildBodies(o.graphs, o.algo, o.model, o.cluster, o.seeds, o.seed, o.islands)
	if err != nil {
		return err
	}
	tgts, err := targets(o.url, o.direct)
	if err != nil {
		return err
	}
	client := &http.Client{Timeout: o.timeout}

	var results []result
	if o.rps > 0 {
		results = runOpen(client, tgts, bodies, o.seed, o.duration, o.rps)
	} else {
		results = runClosed(client, tgts, bodies, o.seed, o.duration, o.conc)
	}
	return report(out, results, o)
}

// runClosed is the default mode: conc workers, one request in flight each.
// With several targets each worker round-robins across them per request.
func runClosed(client *http.Client, tgts []string, bodies [][]byte, baseSeed int64, duration time.Duration, conc int) []result {
	deadline := time.Now().Add(duration)
	results := make([]result, conc)
	var wg sync.WaitGroup
	for w := 0; w < conc; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Per-worker RNG: pick bodies in a random but reproducible order
			// so concurrent workers don't sweep the cache in lockstep.
			rng := rand.New(rand.NewSource(baseSeed + int64(w)))
			res := result{codes: make(map[int]int)}
			for n := w; time.Now().Before(deadline); n++ {
				body := bodies[rng.Intn(len(bodies))]
				target := tgts[n%len(tgts)]
				start := time.Now()
				resp, err := client.Post(target, "application/json", bytes.NewReader(body))
				elapsed := time.Since(start)
				if err != nil {
					if res.firstErr == nil {
						res.firstErr = err
					}
					res.codes[-1]++
					continue
				}
				rbody, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				res.observe(resp, rbody, elapsed)
				if resp.StatusCode == http.StatusTooManyRequests {
					// Closed-loop backoff: honor Retry-After if parseable.
					if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && ra > 0 {
						time.Sleep(time.Duration(ra) * time.Second / 4)
					}
				}
			}
			results[w] = res
		}(w)
	}
	wg.Wait()
	return results
}

// runOpen dispatches requests at fixed scheduled instants (1/rps apart) for
// the duration, each on its own goroutine, and measures every latency from
// the scheduled instant — so queueing delay the server induces is charged to
// the request instead of silently pausing the generator (no coordinated
// omission). The dispatcher never waits for responses; if the host cannot
// spawn fast enough the report's achieved-vs-offered gap says so.
func runOpen(client *http.Client, tgts []string, bodies [][]byte, baseSeed int64, duration time.Duration, rps float64) []result {
	interval := time.Duration(float64(time.Second) / rps)
	n := int(duration.Seconds() * rps)
	if n < 1 {
		n = 1
	}
	rng := rand.New(rand.NewSource(baseSeed))
	picks := make([]int, n) // request mix chosen up front: reproducible and race-free
	for i := range picks {
		picks[i] = rng.Intn(len(bodies))
	}

	results := make([]result, n)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < n; i++ {
		scheduled := start.Add(time.Duration(i) * interval)
		if d := time.Until(scheduled); d > 0 {
			time.Sleep(d)
		}
		wg.Add(1)
		go func(i int, scheduled time.Time) {
			defer wg.Done()
			res := result{codes: make(map[int]int)}
			resp, err := client.Post(tgts[i%len(tgts)], "application/json", bytes.NewReader(bodies[picks[i]]))
			elapsed := time.Since(scheduled) // from the schedule, not the send
			if err != nil {
				res.firstErr = err
				res.codes[-1]++
			} else {
				rbody, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				res.observe(resp, rbody, elapsed)
			}
			results[i] = res
		}(i, scheduled)
	}
	wg.Wait()
	return results
}

// summary is the machine-readable report written by -json.
type summary struct {
	Mode        string         `json:"mode"` // "closed" or "open"
	Requests    int            `json:"requests"`
	DurationSec float64        `json:"duration_sec"`
	OfferedRPS  float64        `json:"offered_rps,omitempty"` // open loop only
	AchievedRPS float64        `json:"achieved_rps"`
	Codes       map[string]int `json:"codes"`
	CacheHits   int            `json:"cache_hits"`
	// Hit rates over successful (200) requests, in percent: the response
	// cache (X-Emts-Cache) and the graph/table interns (X-Emts-Interned).
	// These are the affinity observables digest routing is measured by.
	CacheHitPct    float64 `json:"cache_hit_pct"`
	InternGraphPct float64 `json:"intern_graph_hit_pct"`
	InternTablePct float64 `json:"intern_table_hit_pct"`
	// Instances counts 200s by the X-Emts-Instance header (empty when the
	// backends don't stamp one).
	Instances map[string]int `json:"instances,omitempty"`
	// Islands echoes the -islands request parameter; Generations totals the
	// EA generations the successful responses reported. Together they let a
	// bench harness normalize req/s across island counts.
	Islands     int     `json:"islands,omitempty"`
	Generations int     `json:"generations"`
	P50Ms       float64 `json:"p50_ms"`
	P95Ms       float64 `json:"p95_ms"`
	P99Ms       float64 `json:"p99_ms"`
	MaxMs       float64 `json:"max_ms"`
}

func report(out io.Writer, results []result, o loadOpts) error {
	duration, rps, jsonOut := o.duration, o.rps, o.jsonOut
	var all []time.Duration
	codes := make(map[int]int)
	hits, internGraph, internTable, generations := 0, 0, 0, 0
	instances := make(map[string]int)
	var firstErr error
	for _, r := range results {
		all = append(all, r.latencies...)
		for c, n := range r.codes {
			codes[c] += n
		}
		hits += r.cacheHits
		internGraph += r.internGraph
		internTable += r.internTable
		generations += r.generations
		for id, n := range r.instances {
			instances[id] += n
		}
		if firstErr == nil {
			firstErr = r.firstErr
		}
	}
	total := 0
	codeList := make([]int, 0, len(codes))
	for c := range codes {
		codeList = append(codeList, c)
	}
	sort.Ints(codeList)
	for _, c := range codeList {
		total += codes[c]
	}

	achieved := float64(total) / duration.Seconds()
	if rps > 0 {
		fmt.Fprintf(out, "open loop:  offered %.1f req/s, achieved %.1f req/s\n", rps, achieved)
	}
	fmt.Fprintf(out, "requests:   %d in %s (%.1f req/s)\n", total, duration, achieved)
	for _, c := range codeList {
		label := strconv.Itoa(c)
		if c == -1 {
			label = "transport error"
		}
		fmt.Fprintf(out, "  %-16s %d\n", label, codes[c])
	}
	if len(all) == 0 {
		if firstErr != nil {
			return fmt.Errorf("no successful requests (first error: %v)", firstErr)
		}
		return fmt.Errorf("no successful requests")
	}
	pct := func(n int) float64 { return 100 * float64(n) / float64(len(all)) }
	fmt.Fprintf(out, "cache hits: %d/%d (%.1f%%)\n", hits, len(all), pct(hits))
	fmt.Fprintf(out, "interned:   graph %.1f%%  table %.1f%%\n", pct(internGraph), pct(internTable))
	if generations > 0 {
		fmt.Fprintf(out, "ea:         %d generations across %d responses (islands=%d)\n", generations, len(all), max(1, o.islands))
	}
	if len(instances) > 0 {
		ids := make([]string, 0, len(instances))
		for id := range instances {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		fmt.Fprintf(out, "instances: ")
		for _, id := range ids {
			fmt.Fprintf(out, " %s=%d", id, instances[id])
		}
		fmt.Fprintln(out)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	fmt.Fprintf(out, "latency:    p50 %s  p95 %s  p99 %s  max %s\n",
		percentile(all, 0.50), percentile(all, 0.95), percentile(all, 0.99), all[len(all)-1])

	if jsonOut != "" {
		ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
		s := summary{
			Mode:           "closed",
			Requests:       total,
			DurationSec:    duration.Seconds(),
			AchievedRPS:    achieved,
			Codes:          make(map[string]int, len(codes)),
			CacheHits:      hits,
			CacheHitPct:    pct(hits),
			InternGraphPct: pct(internGraph),
			InternTablePct: pct(internTable),
			Islands:        o.islands,
			Generations:    generations,
			P50Ms:          ms(percentile(all, 0.50)),
			P95Ms:          ms(percentile(all, 0.95)),
			P99Ms:          ms(percentile(all, 0.99)),
			MaxMs:          ms(all[len(all)-1]),
		}
		if len(instances) > 0 {
			s.Instances = instances
		}
		if rps > 0 {
			s.Mode, s.OfferedRPS = "open", rps
		}
		for c, n := range codes {
			label := strconv.Itoa(c)
			if c == -1 {
				label = "transport_error"
			}
			s.Codes[label] = n
		}
		b, err := json.MarshalIndent(s, "", "  ")
		if err != nil {
			return err
		}
		b = append(b, '\n')
		if jsonOut == "-" {
			_, err = out.Write(b)
		} else {
			err = os.WriteFile(jsonOut, b, 0o644)
		}
		if err != nil {
			return fmt.Errorf("writing -json summary: %w", err)
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Async job mode (-jobs)

// jobsResult aggregates one jobs-mode worker's observations.
type jobsResult struct {
	submitted   int
	completed   int             // state "done"
	cancelled   int             // state "cancelled-with-result" (anytime answers)
	aborted     int             // state "cancelled" (never started, no incumbent)
	failed      int             // state "failed"
	anytimeOK   int             // cancelled jobs whose result makespan == last streamed best_makespan
	genEvents   int             // SSE generation events seen across all jobs
	generations int             // generations reported by final results
	sseMatch    int             // completed jobs with one generation event per generation
	sseMismatch int             // completed jobs where the counts diverge
	latencies   []time.Duration // submit -> done-event latency per finished job
	codes       map[int]int     // HTTP status codes of every request issued
	firstErr    error
}

// jobEnvelope is the client-side view of the /v1/jobs status body.
type jobEnvelope struct {
	ID    string `json:"id"`
	State string `json:"state"`
}

// genEvent is the client-side view of an SSE "generation" event payload.
type genEvent struct {
	Generation   int     `json:"generation"`
	BestMakespan float64 `json:"best_makespan"`
}

// doneEvent is the client-side view of the terminal SSE "done" payload.
type doneEvent struct {
	State string `json:"state"`
	Code  int    `json:"code"`
}

// jobFinal is the slice of the final schedule response jobs mode checks.
type jobFinal struct {
	Makespan    float64 `json:"makespan"`
	Generations int     `json:"generations"`
}

// runJobsMode drives the async job API: conc closed-loop workers, each
// iteration submitting one job with a globally unique seed (so the
// idempotency key never collapses two submissions into one job), following
// its SSE stream to the terminal event, and fetching the result. With
// cancelAt > 0 every second job is cancelled once its stream reaches that
// generation, which exercises the anytime path end to end.
func runJobsMode(out io.Writer, o loadOpts) error {
	if o.direct != "" {
		return fmt.Errorf("-jobs drives one front end; use -url, not -direct")
	}
	base := strings.TrimSuffix(o.url, "/")
	var graphsRaw []json.RawMessage
	for _, spec := range strings.Split(o.graphs, ",") {
		spec = strings.TrimSpace(spec)
		if spec == "" {
			continue
		}
		g, err := generate(spec, o.seed)
		if err != nil {
			return err
		}
		raw, err := json.Marshal(g)
		if err != nil {
			return err
		}
		graphsRaw = append(graphsRaw, raw)
	}
	if len(graphsRaw) == 0 {
		return fmt.Errorf("no workloads in -graphs")
	}
	client := &http.Client{Timeout: o.timeout}
	// SSE streams live as long as the job runs; a client timeout would cut
	// them mid-run, so the streaming client has none (the server closes the
	// stream after the terminal event).
	sseClient := &http.Client{}

	deadline := time.Now().Add(o.duration)
	var counter atomic.Int64
	results := make([]jobsResult, o.conc)
	var wg sync.WaitGroup
	for w := 0; w < o.conc; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			res := jobsResult{codes: make(map[int]int)}
			for time.Now().Before(deadline) {
				n := counter.Add(1)
				req := server.ScheduleRequest{
					Graph:     graphsRaw[int(n)%len(graphsRaw)],
					Cluster:   server.ClusterSpec{Preset: o.cluster},
					Model:     o.model,
					Algorithm: o.algo,
					Seed:      o.seed + n,
					Islands:   o.islands,
				}
				body, err := json.Marshal(req)
				if err != nil {
					if res.firstErr == nil {
						res.firstErr = err
					}
					break
				}
				cancelGen := 0
				if o.cancelAt > 0 && n%2 == 1 {
					cancelGen = o.cancelAt
				}
				runOneJob(&res, client, sseClient, base, body, cancelGen, o.islands)
			}
			results[w] = res
		}(w)
	}
	wg.Wait()
	return reportJobs(out, results, o)
}

// runOneJob submits one job and follows it to a terminal state, folding
// every observation into res. islands is the request's island setting: a
// multi-island run streams one generation event per island per generation,
// so the SSE-vs-result consistency check scales its expectation by it.
func runOneJob(res *jobsResult, client, sseClient *http.Client, base string, body []byte, cancelGen, islands int) {
	start := time.Now()
	resp, err := client.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		if res.firstErr == nil {
			res.firstErr = err
		}
		res.codes[-1]++
		return
	}
	var env jobEnvelope
	decErr := json.NewDecoder(resp.Body).Decode(&env)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	res.codes[resp.StatusCode]++
	if resp.StatusCode == http.StatusTooManyRequests {
		// Job store or queue full: closed-loop backoff, mirroring the sync mode.
		if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && ra > 0 {
			time.Sleep(time.Duration(ra) * time.Second / 4)
		}
		return
	}
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		return
	}
	if decErr != nil || env.ID == "" {
		if res.firstErr == nil {
			res.firstErr = fmt.Errorf("submit: undecodable envelope (status %d): %v", resp.StatusCode, decErr)
		}
		return
	}
	res.submitted++

	gens, lastBest, done, err := followEvents(res, client, sseClient, base, env.ID, cancelGen)
	if err != nil {
		if res.firstErr == nil {
			res.firstErr = err
		}
		return
	}
	res.latencies = append(res.latencies, time.Since(start))
	res.genEvents += gens

	final, finalOK := fetchResult(res, client, base, env.ID)
	eventsPerGen := max(1, islands)
	switch done.State {
	case "done":
		res.completed++
		if finalOK {
			res.generations += final.Generations
			if gens == final.Generations*eventsPerGen {
				res.sseMatch++
			} else {
				res.sseMismatch++
			}
		}
	case "cancelled-with-result":
		res.cancelled++
		if finalOK {
			res.generations += final.Generations
			//schedlint:allow floateq -- the anytime contract is exact: both values are the same float64 serialized by the server, so any difference is a real bug an epsilon would hide
			if final.Makespan == lastBest {
				res.anytimeOK++
			}
			// The anytime run also streamed one event per completed generation
			// (per island).
			if gens == final.Generations*eventsPerGen {
				res.sseMatch++
			} else {
				res.sseMismatch++
			}
		}
	case "cancelled":
		res.aborted++
	default:
		res.failed++
	}
	// The job is terminal and fully consumed: release its store slot so a
	// long closed loop doesn't exhaust the bounded job store with
	// already-read results.
	cancelJob(res, client, base, env.ID, true)
}

// followEvents subscribes to a job's SSE stream, counts generation events,
// and returns after the terminal "done" event. When cancelGen > 0 it issues
// the DELETE as soon as the stream reaches that generation — the cancel is
// observed by the EA at its next generation boundary, so a few more
// generation events may (correctly) arrive before the terminal one.
func followEvents(res *jobsResult, client, sseClient *http.Client, base, id string, cancelGen int) (gens int, lastBest float64, done doneEvent, err error) {
	resp, err := sseClient.Get(base + "/v1/jobs/" + id + "/events")
	if err != nil {
		res.codes[-1]++
		return 0, 0, done, err
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	res.codes[resp.StatusCode]++
	if resp.StatusCode != http.StatusOK {
		return 0, 0, done, fmt.Errorf("events: status %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	var event, data string
	cancelSent := false
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "": // blank line terminates one event
			switch event {
			case "generation":
				var ge genEvent
				if err := json.Unmarshal([]byte(data), &ge); err == nil {
					gens++
					lastBest = ge.BestMakespan
					if cancelGen > 0 && !cancelSent && ge.Generation >= cancelGen {
						cancelSent = true
						cancelJob(res, client, base, id, false)
					}
				}
			case "done":
				json.Unmarshal([]byte(data), &done)
				return gens, lastBest, done, nil
			}
			event, data = "", ""
		case strings.HasPrefix(line, ":"): // keep-alive comment
		case strings.HasPrefix(line, "event: "):
			event = line[len("event: "):]
		case strings.HasPrefix(line, "data: "):
			data = line[len("data: "):]
		}
	}
	if err := sc.Err(); err != nil {
		return gens, lastBest, done, fmt.Errorf("events: stream: %w", err)
	}
	return gens, lastBest, done, fmt.Errorf("events: stream ended without done event")
}

// cancelJob issues the DELETE inline from the SSE read loop. The handler
// waits for the job to reach a terminal state, which happens once the EA
// observes the cancel — independent of this client reading events. The pause
// loses nothing: the event log buffers server-side and the stream replays
// every event up to the terminal one after the DELETE returns. With purge
// the DELETE also releases the job's store slot once terminal.
func cancelJob(res *jobsResult, client *http.Client, base, id string, purge bool) {
	url := base + "/v1/jobs/" + id
	if purge {
		url += "?purge=1"
	}
	req, err := http.NewRequest(http.MethodDelete, url, nil)
	if err != nil {
		return
	}
	resp, err := client.Do(req)
	if err != nil {
		res.codes[-1]++
		return
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	res.codes[resp.StatusCode]++
}

// fetchResult reads the job's final response body and extracts the fields
// the mode verifies. ok is false when there is no 200 result (e.g. a job
// cancelled before it started).
func fetchResult(res *jobsResult, client *http.Client, base, id string) (jobFinal, bool) {
	resp, err := client.Get(base + "/v1/jobs/" + id + "/result")
	if err != nil {
		if res.firstErr == nil {
			res.firstErr = err
		}
		res.codes[-1]++
		return jobFinal{}, false
	}
	defer resp.Body.Close()
	res.codes[resp.StatusCode]++
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return jobFinal{}, false
	}
	var final jobFinal
	if err := json.NewDecoder(resp.Body).Decode(&final); err != nil {
		if res.firstErr == nil {
			res.firstErr = fmt.Errorf("result: undecodable body: %w", err)
		}
		return jobFinal{}, false
	}
	io.Copy(io.Discard, resp.Body)
	return final, true
}

// jobsSummary is the machine-readable report written by -json in jobs mode.
type jobsSummary struct {
	Mode        string         `json:"mode"` // "jobs"
	Submitted   int            `json:"jobs_submitted"`
	Completed   int            `json:"jobs_completed"`
	Cancelled   int            `json:"jobs_cancelled"` // cancelled-with-result
	Aborted     int            `json:"jobs_cancelled_unstarted"`
	Failed      int            `json:"jobs_failed"`
	AnytimeOK   int            `json:"anytime_ok"`
	SSEEvents   int            `json:"sse_generation_events"`
	Generations int            `json:"generations"`
	Islands     int            `json:"islands,omitempty"`
	SSEMatch    int            `json:"sse_match"`
	SSEMismatch int            `json:"sse_mismatch"`
	Codes       map[string]int `json:"codes"`
	P50Ms       float64        `json:"p50_ms"`
	P95Ms       float64        `json:"p95_ms"`
	MaxMs       float64        `json:"max_ms"`
}

func reportJobs(out io.Writer, results []jobsResult, o loadOpts) error {
	var agg jobsResult
	agg.codes = make(map[int]int)
	var all []time.Duration
	for _, r := range results {
		agg.submitted += r.submitted
		agg.completed += r.completed
		agg.cancelled += r.cancelled
		agg.aborted += r.aborted
		agg.failed += r.failed
		agg.anytimeOK += r.anytimeOK
		agg.genEvents += r.genEvents
		agg.generations += r.generations
		agg.sseMatch += r.sseMatch
		agg.sseMismatch += r.sseMismatch
		all = append(all, r.latencies...)
		for c, n := range r.codes {
			agg.codes[c] += n
		}
		if agg.firstErr == nil {
			agg.firstErr = r.firstErr
		}
	}
	fmt.Fprintf(out, "jobs:       %d submitted in %s: %d done, %d cancelled-with-result, %d cancelled, %d failed\n",
		agg.submitted, o.duration, agg.completed, agg.cancelled, agg.aborted, agg.failed)
	fmt.Fprintf(out, "anytime:    %d/%d cancelled jobs returned the streamed incumbent\n", agg.anytimeOK, agg.cancelled)
	fmt.Fprintf(out, "sse:        %d generation events; %d jobs matched their generation count, %d mismatched\n",
		agg.genEvents, agg.sseMatch, agg.sseMismatch)
	codeList := make([]int, 0, len(agg.codes))
	for c := range agg.codes {
		codeList = append(codeList, c)
	}
	sort.Ints(codeList)
	for _, c := range codeList {
		label := strconv.Itoa(c)
		if c == -1 {
			label = "transport error"
		}
		fmt.Fprintf(out, "  %-16s %d\n", label, agg.codes[c])
	}
	if agg.submitted == 0 {
		if agg.firstErr != nil {
			return fmt.Errorf("no jobs submitted (first error: %v)", agg.firstErr)
		}
		return fmt.Errorf("no jobs submitted")
	}
	if agg.firstErr != nil {
		fmt.Fprintf(out, "first error: %v\n", agg.firstErr)
	}
	if len(all) > 0 {
		sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
		fmt.Fprintf(out, "job latency: p50 %s  p95 %s  max %s\n",
			percentile(all, 0.50), percentile(all, 0.95), all[len(all)-1])
	}

	if o.jsonOut != "" {
		ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
		s := jobsSummary{
			Mode:        "jobs",
			Submitted:   agg.submitted,
			Completed:   agg.completed,
			Cancelled:   agg.cancelled,
			Aborted:     agg.aborted,
			Failed:      agg.failed,
			AnytimeOK:   agg.anytimeOK,
			SSEEvents:   agg.genEvents,
			Generations: agg.generations,
			Islands:     o.islands,
			SSEMatch:    agg.sseMatch,
			SSEMismatch: agg.sseMismatch,
			Codes:       make(map[string]int, len(agg.codes)),
		}
		if len(all) > 0 {
			s.P50Ms = ms(percentile(all, 0.50))
			s.P95Ms = ms(percentile(all, 0.95))
			s.MaxMs = ms(all[len(all)-1])
		}
		for c, n := range agg.codes {
			label := strconv.Itoa(c)
			if c == -1 {
				label = "transport_error"
			}
			s.Codes[label] = n
		}
		b, err := json.MarshalIndent(s, "", "  ")
		if err != nil {
			return err
		}
		b = append(b, '\n')
		if o.jsonOut == "-" {
			_, err = out.Write(b)
		} else {
			err = os.WriteFile(o.jsonOut, b, 0o644)
		}
		if err != nil {
			return fmt.Errorf("writing -json summary: %w", err)
		}
	}
	return nil
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
