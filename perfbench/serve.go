package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"emts/internal/core"
	"emts/internal/schedule"
	"emts/internal/server"
)

// Sizes of the serve workloads.
const (
	// uniquePoolSize exceeds every server cache (64 interned graphs, 128
	// interned tables, 256 responses), so cycling the pool misses them all.
	uniquePoolSize = 160
	// uniqueClients is one closed-loop client, so the CPU governor grants
	// every run all cores. With two clients the grants (2+1 or 1+1 workers)
	// settle into timing-dependent patterns that moved throughput, latency
	// and CPU per op by 16–19 % (interquartile) from run to run.
	uniqueClients = 1
	// uniqueOpsPerSecond sizes the fixed op sequence: a run of --seconds s
	// sends uniqueOpsPerSecond·s requests, a window of about s seconds on a
	// 2-vCPU host.
	uniqueOpsPerSecond = 240
	// uniqueChecked is the fixed sample of serve-unique requests whose
	// makespan is compared with the library's answer.
	uniqueChecked = 16
	// repeatSetSize is the serve-repeat working set, below every cache.
	repeatSetSize = 48
	// repeatWarmPasses are the cache-hit passes over the working set that
	// follow its first, computing pass during set-up.
	repeatWarmPasses = 20
	// repeatRate is the offered load of serve-repeat, requests per second.
	repeatRate = 400
)

// liveServer is an emts-serve handler with default configuration on a
// loopback listener, and the client the benchmark drives it with.
type liveServer struct {
	srv    *server.Server
	hs     *http.Server
	url    string
	done   chan struct{} // closed when Serve returns
	client *http.Client
}

// startServer starts the server. The client keeps at most nproc
// connections, so load never uses more connections than CPUs.
func startServer(nproc int) (*liveServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := server.New(server.Config{})
	ls := &liveServer{
		srv:  srv,
		hs:   &http.Server{Handler: srv.Handler()},
		url:  "http://" + ln.Addr().String() + "/v1/schedule",
		done: make(chan struct{}),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     nproc,
			MaxIdleConnsPerHost: nproc,
			DisableCompression:  true,
		}},
	}
	go func() {
		defer close(ls.done)
		ls.hs.Serve(ln) // returns http.ErrServerClosed once stop shuts it down
	}()
	return ls, nil
}

// stop shuts the listener and the server down and waits for both.
func (ls *liveServer) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := ls.hs.Shutdown(ctx)
	<-ls.done
	ls.client.CloseIdleConnections()
	return errors.Join(err, ls.srv.Shutdown(ctx))
}

// post sends one schedule request and reads the whole response.
func (ls *liveServer) post(body []byte) (code int, cache string, resp []byte, err error) {
	r, err := ls.client.Post(ls.url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, "", nil, err
	}
	defer r.Body.Close()
	resp, err = io.ReadAll(r.Body)
	return r.StatusCode, r.Header.Get("X-Emts-Cache"), resp, err
}

// scrape reads /metrics through the server's handler in process, so
// sampling it opens no connection, and returns each sample by series.
func (ls *liveServer) scrape() map[string]float64 {
	rec := httptest.NewRecorder()
	ls.hs.Handler.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	out := map[string]float64{}
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out
}

// scheduleResponse is the part of a /v1/schedule reply the checks read.
type scheduleResponse struct {
	Makespan float64            `json:"makespan"`
	Schedule *schedule.Schedule `json:"schedule"`
}

// checkResponse requires a 200 carrying a schedule that validates against
// the request's graph and table, with the makespan the reply states.
func checkResponse(in *instance, code int, body []byte) (float64, error) {
	if code != http.StatusOK {
		return 0, fmt.Errorf("%s: status %d: %s", in.g.Name(), code, bytes.TrimSpace(body))
	}
	var r scheduleResponse
	if err := json.Unmarshal(body, &r); err != nil {
		return 0, fmt.Errorf("%s: decoding reply: %w", in.g.Name(), err)
	}
	if r.Schedule == nil {
		return 0, fmt.Errorf("%s: reply without schedule", in.g.Name())
	}
	if err := r.Schedule.Validate(in.g, in.tab); err != nil {
		return 0, fmt.Errorf("%s: %w", in.g.Name(), err)
	}
	if got := r.Schedule.Makespan(); got != r.Makespan {
		return 0, fmt.Errorf("%s: reply states makespan %g, schedule has %g", in.g.Name(), r.Makespan, got)
	}
	return r.Makespan, nil
}

// serveOp is one request of a serve-unique sequence.
type serveOp struct {
	in   *instance
	seed int64
}

// uniqueOps returns n requests that continue cycling the pool in order from
// position from, with seeds from rng, so no request repeats and every graph
// was last sent a whole pool ago — longer ago than any cache remembers.
func uniqueOps(rng *rand.Rand, pool []*instance, from, n int) []serveOp {
	ops := make([]serveOp, n)
	for k := range ops {
		ops[k] = serveOp{pool[(from+k)%len(pool)], rng.Int63()}
	}
	return ops
}

// serveTimed extends a window with what the serve checks keep per op.
type serveTimed struct {
	timed
	makespans []float64
	ok        []bool
	late      []time.Duration // open loop: send time minus due time
	respBytes int64
	sampler   samplerStats
}

// closedLoop sends ops from clients concurrent callers, each taking the
// next op once its previous reply is in, and checks every reply.
func closedLoop(ls *liveServer, ops []serveOp, clients int, tr *tracer, out *outcome) *serveTimed {
	t := &serveTimed{makespans: make([]float64, len(ops)), ok: make([]bool, len(ops))}
	t.lat, t.done = make([]time.Duration, len(ops)), make([]time.Duration, len(ops))
	errs := make([]error, len(ops))
	var (
		next      atomic.Int64
		respBytes atomic.Int64
		wg        sync.WaitGroup
	)
	stopSampler := startSampler(ls, tr, &t.sampler)
	w := startWindow()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1) - 1)
				if k >= len(ops) {
					return
				}
				op := ops[k]
				body := op.in.requestBody(op.seed)
				start := time.Now()
				code, _, resp, err := ls.post(body)
				end := time.Now()
				tr.add(tr.id(), spanNoParent, k, spanOp, start, end)
				t.lat[k], t.done[k] = end.Sub(start), end.Sub(w.start)
				respBytes.Add(int64(len(resp)))
				if err == nil {
					t.makespans[k], err = checkResponse(op.in, code, resp)
				}
				errs[k] = err
			}
		}()
	}
	wg.Wait()
	t.win = w.stop()
	stopSampler()
	t.rssMB = peakRSSMB()
	t.respBytes = respBytes.Load()
	for k, err := range errs {
		out.attempted++
		if err != nil {
			out.fail(err)
			continue
		}
		t.ok[k] = true
		t.relSum += ops[k].in.mcpa / t.makespans[k]
		t.rels++
	}
	return t
}

// checkAgainstLibrary compares the served makespan of the first n ops with
// the library's answer to the same request, and counts a difference as a
// failed op. With a tracer the library run is a traced replay whose layer
// timings feed the per-layer metrics; its results are returned.
func checkAgainstLibrary(tr *tracer, t *serveTimed, ops []serveOp, n int, out *outcome) ([]*core.Result, error) {
	var results []*core.Result
	for k, op := range ops[:n] {
		p := core.EMTS5(op.seed)
		p.Workers = 1
		res, err := runEMTS(tr, spanReplay, k, op.in.g, op.in.tab, p)
		if err != nil {
			return nil, fmt.Errorf("library replay of %s: %w", op.in.g.Name(), err)
		}
		results = append(results, res)
		if t.ok[k] && res.Makespan != t.makespans[k] {
			t.ok[k] = false
			out.fail(fmt.Errorf("%s seed %d: served makespan %g, library %g",
				op.in.g.Name(), op.seed, t.makespans[k], res.Makespan))
		}
		if tr != nil {
			if err := replayLayers(tr, k, op.in.g, op.in.tab, op.in.cluster, res.Alloc); err != nil {
				return nil, err
			}
		}
	}
	return results, nil
}

// runServeUnique is the serve-unique workload: one closed-loop client
// POSTs emts5 requests without rejection over a pool of distinct graphs
// larger than every server cache, with a new seed per request.
func runServeUnique(cfg config) (*outcome, error) {
	var (
		pool []*instance
		ls   *liveServer
	)
	setups := make([]float64, setupReps)
	for r := range setups {
		if ls != nil {
			if err := ls.stop(); err != nil {
				return nil, err
			}
		}
		runtime.GC() // collect the previous set-up, so peak memory does not stack
		start := time.Now()
		if r == 0 {
			start = processStart
		}
		rng := rand.New(rand.NewSource(cfg.seed))
		var err error
		if pool, err = servePool(rng, uniquePoolSize); err != nil {
			return nil, err
		}
		if ls, err = startServer(cfg.nproc); err != nil {
			return nil, err
		}
		warm := &outcome{}
		closedLoop(ls, uniqueOps(rng, pool, 0, len(pool)), uniqueClients, nil, warm)
		if warm.failed > 0 {
			ls.stop()
			return nil, fmt.Errorf("warm-up: %w", warm.firstErr)
		}
		setups[r] = time.Since(start).Seconds()
	}
	defer ls.stop()

	n := cfg.seconds * uniqueOpsPerSecond
	out := &outcome{metrics: map[string]float64{}}
	ops := uniqueOps(rand.New(rand.NewSource(cfg.seed^0x5eed)), pool, 0, n)
	plain := closedLoop(ls, ops, uniqueClients, nil, out)
	if _, err := checkAgainstLibrary(nil, plain, ops, uniqueChecked, out); err != nil {
		return nil, err
	}
	if !cfg.trace {
		plain.setEndToEnd(out.metrics, setupMedian(setups))
		return out, nil
	}

	// The traced window must miss the caches too, so it draws new seeds
	// and carries on the cycle where the untraced one stopped.
	tr := newTracer()
	ops = uniqueOps(rand.New(rand.NewSource(cfg.seed^0x7ace)), pool, n, n)
	before := ls.scrape()
	traced := closedLoop(ls, ops, uniqueClients, tr, out)
	after := ls.scrape()
	// Replays: the first pass of the traced window, one request per graph.
	results, err := checkAgainstLibrary(tr, traced, ops, len(pool), out)
	if err != nil {
		return nil, err
	}
	var counts emtsCounts
	for _, r := range results {
		counts.add(r)
	}
	m := out.metrics
	counts.setEA(m)
	setLibraryLayers(m, tr.snapshot(), spanReplay, counts.evals)
	setServerLayers(m, before, after, traced)
	m["trace.overhead_pct"] = 100 * (plain.throughput()/traced.throughput() - 1)
	return out, tr.write(cfg.traceOut)
}

// runServeRepeat is the serve-repeat workload: after a warm-up, an open
// loop at repeatRate requests per second draws from a working set smaller
// than every server cache, so every timed request is a response-cache and
// graph-intern hit whose bytes must equal the warm-up reply.
func runServeRepeat(cfg config) (*outcome, error) {
	var (
		set    []*instance
		bodies [][]byte
		warm   [][]byte
		spans  []float64 // makespan per working-set entry
		ls     *liveServer
	)
	setups := make([]float64, setupReps)
	for r := range setups {
		if ls != nil {
			if err := ls.stop(); err != nil {
				return nil, err
			}
		}
		runtime.GC() // collect the previous set-up, so peak memory does not stack
		start := time.Now()
		if r == 0 {
			start = processStart
		}
		rng := rand.New(rand.NewSource(cfg.seed))
		var err error
		if set, err = servePool(rng, repeatSetSize); err != nil {
			return nil, err
		}
		if ls, err = startServer(cfg.nproc); err != nil {
			return nil, err
		}
		bodies = make([][]byte, len(set))
		warm = make([][]byte, len(set))
		spans = make([]float64, len(set))
		for i, in := range set {
			bodies[i] = in.requestBody(rng.Int63())
			code, _, resp, err := ls.post(bodies[i])
			if err == nil {
				spans[i], err = checkResponse(in, code, resp)
			}
			if err != nil {
				ls.stop()
				return nil, fmt.Errorf("warm-up: %w", err)
			}
			warm[i] = resp
		}
		for pass := 0; pass < repeatWarmPasses; pass++ {
			for i := range set {
				code, cache, resp, err := ls.post(bodies[i])
				if err == nil && (code != http.StatusOK || cache != "hit" || !bytes.Equal(resp, warm[i])) {
					err = fmt.Errorf("%s: warm-up repeat: status %d, cache %q, bytes equal %v",
						set[i].g.Name(), code, cache, bytes.Equal(resp, warm[i]))
				}
				if err != nil {
					ls.stop()
					return nil, err
				}
			}
		}
		setups[r] = time.Since(start).Seconds()
	}
	defer ls.stop()

	rng := rand.New(rand.NewSource(cfg.seed ^ 0x5eed))
	picks := make([]int, cfg.seconds*repeatRate)
	for k := range picks {
		picks[k] = rng.Intn(len(set))
	}
	out := &outcome{metrics: map[string]float64{}}
	plain := openLoop(ls, bodies, warm, spans, set, picks, nil, out)
	if !cfg.trace {
		plain.setEndToEnd(out.metrics, setupMedian(setups))
		return out, nil
	}

	tr := newTracer()
	before := ls.scrape()
	traced := openLoop(ls, bodies, warm, spans, set, picks, tr, out)
	after := ls.scrape()
	m := out.metrics
	setServerLayers(m, before, after, traced)
	m["loadgen.late_ms_p95"] = percentile(traced.late, 0.95)
	// The offered rate fixes throughput, so overhead shows in CPU per op.
	m["trace.overhead_pct"] = 100*(traced.win.cpu.Seconds()/float64(len(traced.lat))/
		(plain.win.cpu.Seconds()/float64(len(plain.lat)))) - 100
	return out, tr.write(cfg.traceOut)
}

// openLoop sends request picks[k] at start + k/repeatRate whether or not
// earlier replies are in, times each from its due time, and checks every
// reply against the warm-up bytes.
func openLoop(ls *liveServer, bodies, warm [][]byte, makespans []float64, set []*instance, picks []int, tr *tracer, out *outcome) *serveTimed {
	n := len(picks)
	t := &serveTimed{late: make([]time.Duration, n)}
	t.lat, t.done = make([]time.Duration, n), make([]time.Duration, n)
	errs := make([]error, n)
	var (
		respBytes atomic.Int64
		wg        sync.WaitGroup
	)
	interval := time.Second / repeatRate
	stopSampler := startSampler(ls, tr, &t.sampler)
	w := startWindow()
	for k, pick := range picks {
		due := w.start.Add(time.Duration(k) * interval)
		sleepUntil(due)
		wg.Add(1)
		go func(k, pick int, due time.Time) {
			defer wg.Done()
			sent := time.Now()
			code, _, resp, err := ls.post(bodies[pick])
			end := time.Now()
			tr.add(tr.id(), spanNoParent, k, spanOp, due, end)
			t.lat[k], t.late[k], t.done[k] = end.Sub(due), sent.Sub(due), end.Sub(w.start)
			respBytes.Add(int64(len(resp)))
			if err == nil && (code != http.StatusOK || !bytes.Equal(resp, warm[pick])) {
				err = fmt.Errorf("%s: status %d, reply differs from warm-up: %v",
					set[pick].g.Name(), code, !bytes.Equal(resp, warm[pick]))
			}
			errs[k] = err
		}(k, pick, due)
	}
	wg.Wait()
	t.win = w.stop()
	stopSampler()
	t.rssMB = peakRSSMB()
	t.respBytes = respBytes.Load()
	for k, err := range errs {
		out.attempted++
		if err != nil {
			out.fail(err)
			continue
		}
		t.relSum += set[picks[k]].mcpa / makespans[picks[k]]
		t.rels++
	}
	return t
}

// samplerStats summarizes the /metrics samples of one window.
type samplerStats struct {
	samples       int
	busyTokensSum float64
	queueDepthMax float64
}

// startSampler samples the governor and queue gauges every 10 ms while a
// traced window runs; the returned stop waits for the sampler to exit.
// Untraced windows (nil tracer) are not sampled.
func startSampler(ls *liveServer, tr *tracer, st *samplerStats) (stop func()) {
	if tr == nil {
		return func() {}
	}
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-quit:
				return
			case <-tick.C:
			}
			start := time.Now()
			m := ls.scrape()
			tr.add(tr.id(), spanNoParent, -1, spanScrape, start, time.Now())
			st.samples++
			st.busyTokensSum += m["emts_governor_tokens_capacity"] - m["emts_governor_tokens_available"]
			if d := m["emts_queue_depth"]; d > st.queueDepthMax {
				st.queueDepthMax = d
			}
		}
	}()
	return func() {
		close(quit)
		<-done
	}
}

// setServerLayers derives the server-side metrics from the /metrics
// counter deltas over a traced window and the client's own observations.
func setServerLayers(m, before, after map[string]float64, t *serveTimed) {
	delta := func(series string) float64 { return after[series] - before[series] }
	ratio := func(name string) float64 {
		h, miss := delta(name+"_hits_total"), delta(name+"_misses_total")
		if h+miss == 0 {
			return 0
		}
		return h / (h + miss)
	}
	compute := 0.0
	if c := delta(`emts_request_duration_seconds_count{algorithm="emts5"}`); c > 0 {
		compute = 1000 * delta(`emts_request_duration_seconds_sum{algorithm="emts5"}`) / c
	}
	var total time.Duration
	for _, d := range t.lat {
		total += d
	}
	m["server.compute_ms"] = compute
	m["server.overhead_ms"] = ms(total)/float64(len(t.lat)) - compute
	m["server.cache_hit_ratio"] = ratio("emts_cache")
	m["intern.graph_hit_ratio"] = ratio("emts_intern_graph")
	m["intern.table_hit_ratio"] = ratio("emts_intern_table")
	m["evalpool.hit_ratio"] = ratio("emts_mapper_pool")
	m["server.resp_kb"] = float64(t.respBytes) / float64(len(t.lat)) / 1024
	if t.sampler.samples > 0 {
		m["server.governor_busy_tokens"] = t.sampler.busyTokensSum / float64(t.sampler.samples)
	}
	m["server.queue_depth_max"] = t.sampler.queueDepthMax
	m["host.steal_pct"] = t.win.stealPct
}
