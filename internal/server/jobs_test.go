package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"emts/internal/ea"
	"emts/internal/jobs"
	"emts/internal/platform"
	"emts/internal/sim"

	"emts/internal/dag"
	"emts/internal/model"
)

// postJob submits a schedule request to the async API.
func postJob(t *testing.T, url string, body []byte) *http.Response {
	t.Helper()
	resp, err := http.Post(url+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// decodeEnvelope reads and decodes a job envelope body.
func decodeEnvelope(t *testing.T, resp *http.Response) jobEnvelope {
	t.Helper()
	b := readAll(t, resp)
	var env jobEnvelope
	if err := json.Unmarshal(b, &env); err != nil {
		t.Fatalf("decoding envelope: %v (%s)", err, b)
	}
	return env
}

// getEnvelope polls GET /v1/jobs/{id}.
func getEnvelope(t *testing.T, url, id string) (jobEnvelope, int) {
	t.Helper()
	resp, err := http.Get(url + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		readAll(t, resp)
		return jobEnvelope{}, resp.StatusCode
	}
	return decodeEnvelope(t, resp), resp.StatusCode
}

// waitTerminal polls the job until it reaches a terminal state.
func waitTerminal(t *testing.T, url, id string) jobEnvelope {
	t.Helper()
	var env jobEnvelope
	waitFor(t, func() bool {
		var code int
		env, code = getEnvelope(t, url, id)
		if code != http.StatusOK {
			t.Fatalf("poll status %d", code)
		}
		return env.State.Terminal()
	})
	return env
}

// deleteJob issues DELETE /v1/jobs/{id}; query is "" or "?purge=1".
func deleteJob(t *testing.T, url, id, query string) (*http.Response, jobEnvelope) {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, url+"/v1/jobs/"+id+query, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode == http.StatusNotFound {
		readAll(t, resp)
		return resp, jobEnvelope{}
	}
	return resp, decodeEnvelope(t, resp)
}

// sseFrame is one parsed SSE event frame.
type sseFrame struct {
	id    int
	event string
	data  string
}

// readSSEFrames parses an SSE stream up to and including the "done" frame,
// returning the frames and the raw bytes read (keep-alive comments
// included). Tests set SSEKeepAlive high so raw comparisons see frames only.
func readSSEFrames(t *testing.T, body io.Reader) ([]sseFrame, string) {
	t.Helper()
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	var frames []sseFrame
	var raw strings.Builder
	var cur sseFrame
	for sc.Scan() {
		line := sc.Text()
		raw.WriteString(line)
		raw.WriteByte('\n')
		switch {
		case line == "":
			if cur.event != "" {
				frames = append(frames, cur)
				if cur.event == "done" {
					return frames, raw.String()
				}
			}
			cur = sseFrame{}
		case strings.HasPrefix(line, "id: "):
			cur.id, _ = strconv.Atoi(line[len("id: "):])
		case strings.HasPrefix(line, "event: "):
			cur.event = line[len("event: "):]
		case strings.HasPrefix(line, "data: "):
			cur.data = line[len("data: "):]
		}
	}
	t.Fatalf("SSE stream ended without done event (read %q)", raw.String())
	return nil, ""
}

// getSSE opens the event stream, optionally resuming from lastEventID (-1
// means no header).
func getSSE(t *testing.T, url, id string, lastEventID int) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	if lastEventID >= 0 {
		req.Header.Set("Last-Event-ID", strconv.Itoa(lastEventID))
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestJobLifecycleEndToEnd: submit → 202 with id, poll to done, and the
// /result body is byte-identical to the synchronous /v1/schedule answer for
// the same request (the core acceptance criterion of the async API).
func TestJobLifecycleEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, SSEKeepAlive: time.Hour})
	body := scheduleBody(t, "emts5", 42)

	resp := postJob(t, ts.URL, body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d, want 202", resp.StatusCode)
	}
	if loc := resp.Header.Get("Location"); !strings.HasPrefix(loc, "/v1/jobs/") {
		t.Fatalf("Location = %q", loc)
	}
	env := decodeEnvelope(t, resp)
	if env.ID == "" || !env.Created {
		t.Fatalf("submit envelope: %+v", env)
	}

	final := waitTerminal(t, ts.URL, env.ID)
	if final.State != jobs.StateDone {
		t.Fatalf("state %s, want done", final.State)
	}
	if len(final.Result) == 0 {
		t.Fatal("done envelope carries no result")
	}

	rresp, err := http.Get(ts.URL + "/v1/jobs/" + env.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	asyncBody := readAll(t, rresp)
	if rresp.StatusCode != http.StatusOK {
		t.Fatalf("result status %d: %s", rresp.StatusCode, asyncBody)
	}

	sresp := post(t, ts.URL, body)
	syncBody := readAll(t, sresp)
	if sresp.StatusCode != http.StatusOK {
		t.Fatalf("sync status %d: %s", sresp.StatusCode, syncBody)
	}
	if !bytes.Equal(asyncBody, syncBody) {
		t.Fatalf("async result differs from sync response:\nasync: %s\nsync:  %s", asyncBody, syncBody)
	}

	// The stream carries one generation event per completed generation.
	var sr ScheduleResponse
	if err := json.Unmarshal(asyncBody, &sr); err != nil {
		t.Fatal(err)
	}
	frames, _ := readSSEFrames(t, getSSE(t, ts.URL, env.ID, -1).Body)
	genFrames := 0
	for _, f := range frames {
		if f.event == "generation" {
			genFrames++
		}
	}
	if sr.Generations == 0 || genFrames != sr.Generations {
		t.Fatalf("generation frames %d != result generations %d", genFrames, sr.Generations)
	}
	if final.Events != len(frames) {
		t.Fatalf("envelope events %d != streamed frames %d", final.Events, len(frames))
	}
}

// TestJobSSEReplayByteStability: a live subscription (attached before the
// run produces anything) and two post-hoc replays must read byte-identical
// streams — events are rendered once at publish time.
func TestJobSSEReplayByteStability(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, SSEKeepAlive: time.Hour})
	started := make(chan string, 1)
	release := make(chan struct{})
	s.run = blockingRun(started, release)

	resp := postJob(t, ts.URL, scheduleBody(t, "emts5", 7))
	env := decodeEnvelope(t, resp)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d", resp.StatusCode)
	}
	<-started // worker holds the run; no events yet

	live := getSSE(t, ts.URL, env.ID, -1)
	if ct := live.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	if xab := live.Header.Get("X-Accel-Buffering"); xab != "no" {
		t.Fatalf("X-Accel-Buffering = %q", xab)
	}
	close(release)
	_, liveRaw := readSSEFrames(t, live.Body)
	live.Body.Close()

	_, replay1 := readSSEFrames(t, getSSE(t, ts.URL, env.ID, -1).Body)
	_, replay2 := readSSEFrames(t, getSSE(t, ts.URL, env.ID, -1).Body)
	if liveRaw != replay1 || replay1 != replay2 {
		t.Fatalf("streams diverge:\nlive:    %q\nreplay1: %q\nreplay2: %q", liveRaw, replay1, replay2)
	}
}

// TestJobSSEResume: Last-Event-ID skips already-seen frames; the resumed
// stream is exactly the tail of the full one. Malformed cursors are 400.
func TestJobSSEResume(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, SSEKeepAlive: time.Hour})
	resp := postJob(t, ts.URL, scheduleBody(t, "emts5", 8))
	env := decodeEnvelope(t, resp)
	final := waitTerminal(t, ts.URL, env.ID)

	full, fullRaw := readSSEFrames(t, getSSE(t, ts.URL, env.ID, -1).Body)
	if len(full) != final.Events {
		t.Fatalf("full stream frames %d != events %d", len(full), final.Events)
	}
	resumed, resumedRaw := readSSEFrames(t, getSSE(t, ts.URL, env.ID, full[0].id).Body)
	if len(resumed) != len(full)-1 || resumed[0].id != full[1].id {
		t.Fatalf("resume from %d: got %d frames starting at %d", full[0].id, len(resumed), resumed[0].id)
	}
	// The resumed bytes are a suffix of the full stream.
	if !strings.HasSuffix(fullRaw, resumedRaw) {
		t.Fatalf("resumed stream is not a byte-suffix of the full stream:\nfull:    %q\nresumed: %q", fullRaw, resumedRaw)
	}

	bad := getSSE(t, ts.URL, env.ID, -1)
	bad.Body.Close()
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/jobs/"+env.ID+"/events", nil)
	req.Header.Set("Last-Event-ID", "not-a-number")
	r2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	readAll(t, r2)
	if r2.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed Last-Event-ID: status %d, want 400", r2.StatusCode)
	}
}

// TestJobCancelWithIncumbent drives the anytime contract end to end with a
// real EA run: cancel after the first generation, get state
// cancelled-with-result, and the returned schedule's makespan equals the
// best_makespan of the last streamed generation event.
func TestJobCancelWithIncumbent(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, SSEKeepAlive: time.Hour})

	gen0 := make(chan struct{})
	proceed := make(chan struct{})
	ctxCh := make(chan context.Context, 1)
	var once sync.Once
	s.run = func(p *sim.Plan, ctx context.Context, g *dag.Graph, cluster platform.Cluster, tab *model.Table) (*sim.Report, error) {
		// Only the async path carries an observer; the test's final sync
		// request runs the stub too and must pass through untouched.
		if inner := p.Params.OnGeneration; inner != nil {
			ctxCh <- ctx
			params, held := *p.Params, *p
			held.Params = &params
			p = &held
			params.OnGeneration = func(gs ea.GenStats) {
				inner(gs)
				if gs.Generation == 0 {
					// Hold the run after its first generation event until the
					// test has delivered the cancel — fully deterministic.
					once.Do(func() { close(gen0) })
					<-proceed
				}
			}
		}
		return p.RunTable(ctx, g, cluster, tab)
	}

	resp := postJob(t, ts.URL, scheduleBody(t, "emts10", 3))
	env := decodeEnvelope(t, resp)
	runCtx := <-ctxCh
	<-gen0

	cancelDone := make(chan jobEnvelope, 1)
	go func() {
		_, denv := deleteJob(t, ts.URL, env.ID, "")
		cancelDone <- denv
	}()
	// The DELETE has landed once the run context is cancelled; only then may
	// the EA proceed to its next generation boundary.
	waitFor(t, func() bool { return runCtx.Err() != nil })
	close(proceed)

	denv := <-cancelDone
	if denv.State != jobs.StateCancelledWithResult {
		t.Fatalf("cancel envelope state %s, want cancelled-with-result", denv.State)
	}
	if len(denv.Result) == 0 {
		t.Fatal("cancelled-with-result envelope carries no result")
	}

	frames, _ := readSSEFrames(t, getSSE(t, ts.URL, env.ID, -1).Body)
	var lastBest float64
	genFrames := 0
	for _, f := range frames {
		if f.event != "generation" {
			continue
		}
		genFrames++
		var ge struct {
			BestMakespan float64 `json:"best_makespan"`
		}
		if err := json.Unmarshal([]byte(f.data), &ge); err != nil {
			t.Fatal(err)
		}
		lastBest = ge.BestMakespan
	}
	if genFrames == 0 {
		t.Fatal("no generation events streamed")
	}

	rresp, err := http.Get(ts.URL + "/v1/jobs/" + env.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	rbody := readAll(t, rresp)
	if rresp.StatusCode != http.StatusOK {
		t.Fatalf("result status %d: %s", rresp.StatusCode, rbody)
	}
	var sr ScheduleResponse
	if err := json.Unmarshal(rbody, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Makespan != lastBest {
		t.Fatalf("anytime makespan %v != last streamed best_makespan %v", sr.Makespan, lastBest)
	}
	if sr.Generations != genFrames {
		t.Fatalf("anytime generations %d != streamed generation events %d", sr.Generations, genFrames)
	}
	if sr.Schedule == nil || len(sr.Schedule.Entries) == 0 {
		t.Fatal("anytime answer carries no schedule")
	}

	// The anytime partial must NOT poison the response cache: a synchronous
	// request for the same body runs fresh and completes all generations.
	sresp := post(t, ts.URL, scheduleBody(t, "emts10", 3))
	sbody := readAll(t, sresp)
	if sresp.StatusCode != http.StatusOK {
		t.Fatalf("sync status %d: %s", sresp.StatusCode, sbody)
	}
	if sresp.Header.Get("X-Emts-Cache") == "hit" {
		t.Fatal("anytime partial was served from the response cache")
	}
	var full ScheduleResponse
	if err := json.Unmarshal(sbody, &full); err != nil {
		t.Fatal(err)
	}
	if full.Generations <= sr.Generations {
		t.Fatalf("full run generations %d not beyond the partial's %d", full.Generations, sr.Generations)
	}
}

// TestJobIdempotentResubmit: an equivalent request while the first job is
// still live dedups onto the same job (200, Created=false) instead of
// running twice.
func TestJobIdempotentResubmit(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, SSEKeepAlive: time.Hour})
	started := make(chan string, 1)
	release := make(chan struct{})
	s.run = blockingRun(started, release)

	body := scheduleBody(t, "emts5", 11)
	r1 := postJob(t, ts.URL, body)
	env1 := decodeEnvelope(t, r1)
	if r1.StatusCode != http.StatusAccepted || !env1.Created {
		t.Fatalf("first submit: status %d, created %v", r1.StatusCode, env1.Created)
	}
	<-started

	r2 := postJob(t, ts.URL, body)
	env2 := decodeEnvelope(t, r2)
	if r2.StatusCode != http.StatusOK || env2.Created {
		t.Fatalf("resubmit: status %d, created %v, want 200/false", r2.StatusCode, env2.Created)
	}
	if env2.ID != env1.ID {
		t.Fatalf("resubmit id %s != original %s", env2.ID, env1.ID)
	}
	if n := s.jobStore.Len(); n != 1 {
		t.Fatalf("store holds %d jobs, want 1", n)
	}

	close(release)
	final := waitTerminal(t, ts.URL, env1.ID)
	if final.State != jobs.StateDone {
		t.Fatalf("state %s, want done", final.State)
	}
}

// TestJobStoreFull: a new key beyond MaxJobs bounces with 429 + Retry-After,
// mirroring queue admission.
func TestJobStoreFull(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, MaxJobs: 1, SSEKeepAlive: time.Hour})
	started := make(chan string, 1)
	release := make(chan struct{})
	s.run = blockingRun(started, release)
	defer close(release)

	r1 := postJob(t, ts.URL, scheduleBody(t, "emts5", 1))
	readAll(t, r1)
	if r1.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit status %d", r1.StatusCode)
	}
	<-started

	r2 := postJob(t, ts.URL, scheduleBody(t, "emts5", 2))
	b := readAll(t, r2)
	if r2.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second submit status %d, want 429 (%s)", r2.StatusCode, b)
	}
	if ra := r2.Header.Get("Retry-After"); ra != "1" {
		t.Fatalf("Retry-After = %q, want 1", ra)
	}
}

// TestJobQueueFullRollsBack: when the worker queue refuses the job, the
// submission answers 429 and the store entry is rolled back — the same
// request can be resubmitted once capacity returns.
func TestJobQueueFullRollsBack(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1, SSEKeepAlive: time.Hour})
	started := make(chan string, 1)
	release := make(chan struct{})
	releaseOnce := sync.OnceFunc(func() { close(release) })
	defer releaseOnce()
	s.run = blockingRun(started, release)

	r1 := postJob(t, ts.URL, scheduleBody(t, "emts5", 1))
	readAll(t, r1)
	<-started
	r2 := postJob(t, ts.URL, scheduleBody(t, "emts5", 2))
	readAll(t, r2)
	waitFor(t, func() bool { return len(s.queue) == 1 })
	if n := s.jobStore.Len(); n != 2 {
		t.Fatalf("store holds %d jobs, want 2", n)
	}

	r3 := postJob(t, ts.URL, scheduleBody(t, "emts5", 3))
	b := readAll(t, r3)
	if r3.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow submit status %d, want 429 (%s)", r3.StatusCode, b)
	}
	if n := s.jobStore.Len(); n != 2 {
		t.Fatalf("store holds %d jobs after rollback, want 2", n)
	}
}

// TestJobSubmitDuringShutdown: once Shutdown has stopped admission, a job
// submission answers 503 like /v1/schedule does, and the store entry it made
// is rolled back.
func TestJobSubmitDuringShutdown(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 4, SSEKeepAlive: time.Hour})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	started := make(chan string, 1)
	release := make(chan struct{})
	releaseOnce := sync.OnceFunc(func() { close(release) })
	defer releaseOnce()
	s.run = blockingRun(started, release)

	// A synchronous request holds the only worker, so Shutdown stays in its
	// drain until the stub is released.
	code := make(chan int, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/schedule", "application/json", bytes.NewReader(scheduleBody(t, "mcpa", 1)))
		if err != nil {
			t.Error(err)
			code <- 0
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		code <- resp.StatusCode
	}()
	<-started
	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownDone <- s.Shutdown(ctx)
	}()
	waitFor(t, func() bool {
		s.admission.RLock()
		defer s.admission.RUnlock()
		return s.draining
	})

	resp := postJob(t, ts.URL, scheduleBody(t, "emts5", 2))
	b := readAll(t, resp)
	if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(b), "server is shutting down") {
		t.Fatalf("submit during drain: %d %s, want 503 server is shutting down", resp.StatusCode, b)
	}
	if n := s.jobStore.Len(); n != 0 {
		t.Fatalf("store holds %d jobs after a refused submit, want 0", n)
	}

	releaseOnce()
	if c := <-code; c != http.StatusOK {
		t.Fatalf("drained request finished with %d, want 200", c)
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
}

// TestJobTTLExpiry: a finished job's result stays pollable until the TTL,
// then expires to 404, and a resubmit runs fresh.
func TestJobTTLExpiry(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, SSEKeepAlive: time.Hour})
	clk := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	var mu sync.Mutex
	now := func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		return clk
	}
	s.jobStore.Close()
	s.jobStore = jobs.NewStore(jobs.Config{MaxJobs: 4, TTL: time.Minute, SweepEvery: time.Hour, Now: now})
	s.metrics.jobStates = s.jobStore.Counts

	body := scheduleBody(t, "emts5", 21)
	env := decodeEnvelope(t, postJob(t, ts.URL, body))
	waitTerminal(t, ts.URL, env.ID)

	mu.Lock()
	clk = clk.Add(2 * time.Minute)
	mu.Unlock()
	if _, code := getEnvelope(t, ts.URL, env.ID); code != http.StatusNotFound {
		t.Fatalf("expired job answered %d, want 404", code)
	}

	r := postJob(t, ts.URL, body)
	env2 := decodeEnvelope(t, r)
	if r.StatusCode != http.StatusAccepted || !env2.Created {
		t.Fatalf("resubmit after expiry: status %d created %v, want 202/true", r.StatusCode, env2.Created)
	}
}

// TestJobCancelPurge: a plain DELETE on a terminal job is a no-op returning
// the outcome; ?purge=1 releases the slot and later requests get 404.
func TestJobCancelPurge(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, SSEKeepAlive: time.Hour})
	env := decodeEnvelope(t, postJob(t, ts.URL, scheduleBody(t, "emts5", 31)))
	waitTerminal(t, ts.URL, env.ID)

	resp, denv := deleteJob(t, ts.URL, env.ID, "")
	if resp.StatusCode != http.StatusOK || denv.State != jobs.StateDone {
		t.Fatalf("plain DELETE: status %d state %s", resp.StatusCode, denv.State)
	}
	if _, code := getEnvelope(t, ts.URL, env.ID); code != http.StatusOK {
		t.Fatalf("job gone after non-purging DELETE (status %d)", code)
	}

	resp, denv = deleteJob(t, ts.URL, env.ID, "?purge=1")
	if resp.StatusCode != http.StatusOK || denv.State != jobs.StateDone {
		t.Fatalf("purge DELETE: status %d state %s", resp.StatusCode, denv.State)
	}
	if _, code := getEnvelope(t, ts.URL, env.ID); code != http.StatusNotFound {
		t.Fatalf("purged job answered %d, want 404", code)
	}
	if n := s.jobStore.Len(); n != 0 {
		t.Fatalf("store holds %d jobs after purge, want 0", n)
	}
}

// TestJobConcurrentSubscribers is the -race stress on one job: many SSE
// subscribers attach at different times while the job runs, and every one of
// them must read the exact same byte stream.
func TestJobConcurrentSubscribers(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, SSEKeepAlive: time.Hour})
	started := make(chan string, 1)
	release := make(chan struct{})
	s.run = blockingRun(started, release)

	env := decodeEnvelope(t, postJob(t, ts.URL, scheduleBody(t, "emts10", 41)))
	<-started

	const subscribers = 6
	streams := make([]string, subscribers)
	var wg sync.WaitGroup
	for i := 0; i < subscribers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i == subscribers/2 {
				// Half attach before the run produces events, half after it
				// is already finishing.
				close(release)
			}
			resp := getSSE(t, ts.URL, env.ID, -1)
			defer resp.Body.Close()
			_, raw := readSSEFrames(t, resp.Body)
			streams[i] = raw
		}(i)
	}
	wg.Wait()
	for i := 1; i < subscribers; i++ {
		if streams[i] != streams[0] {
			t.Fatalf("subscriber %d read a different stream:\n%q\nvs\n%q", i, streams[i], streams[0])
		}
	}
	// A subscriber returns as soon as it has read the done frame, which can
	// be before its handler has unwound and dropped the gauge. Close waits
	// for every handler to return.
	ts.Close()
	if n := s.metrics.sseSubscribers.Load(); n != 0 {
		t.Fatalf("sse subscriber gauge = %d after streams closed", n)
	}
}

// TestJobsAPIDisabled: MaxJobs < 0 removes the endpoints entirely.
func TestJobsAPIDisabled(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, MaxJobs: -1})
	resp := postJob(t, ts.URL, scheduleBody(t, "emts5", 1))
	readAll(t, resp)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("jobs endpoint answered %d with MaxJobs<0, want 404", resp.StatusCode)
	}
}

// TestJobUnknownID: id-addressed endpoints 404 on unknown jobs.
func TestJobUnknownID(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	for _, path := range []string{"/v1/jobs/nope", "/v1/jobs/nope/result", "/v1/jobs/nope/events"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		readAll(t, resp)
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s: status %d, want 404", path, resp.StatusCode)
		}
	}
	resp, _ := deleteJob(t, ts.URL, "nope", "")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("DELETE unknown: status %d, want 404", resp.StatusCode)
	}
}

// TestJobResultBeforeTerminal: /result on a live job answers 409 with a
// Retry-After hint.
func TestJobResultBeforeTerminal(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, SSEKeepAlive: time.Hour})
	started := make(chan string, 1)
	release := make(chan struct{})
	releaseOnce := sync.OnceFunc(func() { close(release) })
	defer releaseOnce()
	s.run = blockingRun(started, release)

	env := decodeEnvelope(t, postJob(t, ts.URL, scheduleBody(t, "emts5", 51)))
	<-started
	resp, err := http.Get(ts.URL + "/v1/jobs/" + env.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	b := readAll(t, resp)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("result on live job: status %d, want 409 (%s)", resp.StatusCode, b)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("409 without Retry-After hint")
	}
	releaseOnce()
	waitTerminal(t, ts.URL, env.ID)
}
