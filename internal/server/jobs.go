package server

// The /v1/jobs API (DESIGN.md §16): asynchronous schedule runs with SSE
// progress streaming and anytime cancellation.
//
//	POST   /v1/jobs             submit (idempotent by canonical digest) → 202
//	GET    /v1/jobs/{id}        status envelope (state, events, result)
//	GET    /v1/jobs/{id}/result the raw final response, byte-identical to
//	                            the synchronous /v1/schedule answer
//	GET    /v1/jobs/{id}/events SSE per-generation progress stream
//	DELETE /v1/jobs/{id}        cancel; a mid-run cancel snapshots the EA's
//	                            incumbent as a "cancelled-with-result" answer
//
// Jobs execute on the same bounded worker pool as synchronous requests,
// under the same admission protocol: a full queue rolls the job back and
// answers 429. The job's context is detached from the submitting HTTP
// connection (a closed submit connection must not kill the run) but keeps
// the server/request deadline discipline.
//
// The async path never reads the response cache: every created job performs
// a real run so its generation-event stream always matches its result
// (idempotent resubmits are deduplicated by the job store instead). It still
// writes the cache on success — a completed job's body is the canonical
// response for its digest, byte-identical to the synchronous answer.

import (
	"context"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"emts/internal/dag"
	"emts/internal/ea"
	"emts/internal/intern"
	"emts/internal/jobs"
)

// generationEvent is the payload of one SSE "generation" event, rendered
// exactly once at publish time (jobs.Event.Data) so replays are byte-stable.
// best_makespan is the incumbent fitness (ea.GenStats.BestEver): on anytime
// cancellation the returned schedule's makespan equals the last streamed
// value — the acceptance contract of the job API. For island-model runs it
// is the aggregate incumbent across ALL islands (the island coordinator
// rewrites BestEver at delivery), so the stream stays monotone even though
// events interleave islands. Island is a pointer so single-population
// streams omit the field and stay byte-identical to the pre-island wire
// format; multi-island runs emit one event per island per generation in
// (generation, island) order.
type generationEvent struct {
	Generation          int     `json:"generation"`
	Island              *int    `json:"island,omitempty"`
	BestMakespan        float64 `json:"best_makespan"`
	PoolBest            float64 `json:"pool_best"`
	PoolMean            float64 `json:"pool_mean"`
	Evaluations         int     `json:"evaluations"`
	PrefilterRejections int     `json:"prefilter_rejections"`
	Rejected            int     `json:"rejected"`
}

// doneEvent is the payload of the terminal SSE "done" event.
type doneEvent struct {
	State jobs.State `json:"state"`
	Code  int        `json:"code"`
}

// jobEnvelope is the body of POST /v1/jobs and GET /v1/jobs/{id}. Result
// holds the final response object for done and cancelled-with-result jobs;
// Error holds the error object for failed/cancelled ones. Timestamps are
// deliberately absent: like /v1/schedule responses, the envelope is a pure
// function of the request and the job's progress (wall-clock observables
// live in /metrics).
type jobEnvelope struct {
	ID      string          `json:"id"`
	State   jobs.State      `json:"state"`
	Created bool            `json:"created,omitempty"`
	Events  int             `json:"events"`
	Result  json.RawMessage `json:"result,omitempty"`
	Error   json.RawMessage `json:"error,omitempty"`
}

// writeJobEnvelope renders a job snapshot. The stored body carries a
// trailing newline (writeBody convention); trim it for embedding — the
// byte-exact body is served by /result.
func writeJobEnvelope(w http.ResponseWriter, code int, snap jobs.Snapshot, created bool) {
	env := jobEnvelope{ID: snap.ID, State: snap.State, Created: created, Events: snap.Events}
	if snap.State.Terminal() && len(snap.Body) > 0 {
		raw := json.RawMessage(trimTrailingNewline(snap.Body))
		if snap.Code == http.StatusOK {
			env.Result = raw
		} else {
			env.Error = raw
		}
	}
	writeJSON(w, code, env)
}

func trimTrailingNewline(b []byte) []byte {
	if n := len(b); n > 0 && b[n-1] == '\n' {
		return b[:n-1]
	}
	return b
}

// handleJobSubmit is POST /v1/jobs: parse and validate exactly like
// /v1/schedule, dedup by canonical digest, admit to the worker queue under
// the same 429 discipline, and answer 202 with the job id.
func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := readRequestBody(w, r, s.cfg.MaxRequestBytes)
	if err != nil {
		return // readRequestBody already answered
	}
	parsed, perr := parseScheduleRequest(body, s.maxTasks(), s.maxIslands(), s.graphs)
	if perr != nil {
		writeParseError(w, perr)
		return
	}

	// The job id leads with the digest of the *raw* graph bytes — the same
	// key route.RequestKey hashes for /v1/schedule — so the router can
	// affinity-route every later poll/SSE/cancel to this backend by parsing
	// it back out of the path. The canonical digest (parsed.key) follows as
	// the idempotency component.
	rawKey := intern.RawKey(parsed.req.Graph)
	id := hex.EncodeToString(rawKey[:]) + "-" + parsed.key

	// The run context is detached from the submitting connection (the job
	// outlives it) but keeps the sync path's deadline discipline: the
	// server cap, tightened by the request's timeout_ms.
	jctx, cancel := context.WithCancel(context.Background())
	if timeout := s.requestTimeout(parsed); timeout > 0 {
		jctx, cancel = context.WithTimeout(jctx, timeout)
	}

	jb, created, jerr := s.jobStore.GetOrCreate(id, parsed.key, cancel)
	if jerr != nil {
		cancel()
		w.Header().Set("Retry-After", strconv.Itoa(int((s.cfg.RetryAfter+time.Second-1)/time.Second)))
		writeJSONError(w, http.StatusTooManyRequests, "job store full", "")
		return
	}
	if !created {
		// Idempotent resubmit: same canonical digest, same job. The fresh
		// context is unused.
		cancel()
		writeJobEnvelope(w, http.StatusOK, jb.Snapshot(), false)
		return
	}

	wj := &job{
		ctx:     jctx,
		parsed:  parsed,
		result:  make(chan jobResult, 1),
		anytime: true,
		started: jb.Start,
	}
	// EMTS runs stream their generations as SSE events. The observer is
	// called once per generation, never on the hot fitness path.
	if parsed.plan.Params != nil {
		parsed.plan.Params.OnGeneration = func(gs ea.GenStats) {
			ev := generationEvent{
				Generation:          gs.Generation,
				BestMakespan:        gs.BestEver,
				PoolBest:            gs.Best,
				PoolMean:            gs.Mean,
				Evaluations:         gs.Evaluations,
				PrefilterRejections: gs.PrefilterRejections,
				Rejected:            gs.Rejected,
			}
			if parsed.req.Islands > 1 {
				island := gs.Island
				ev.Island = &island
			}
			data, merr := json.Marshal(ev)
			if merr != nil {
				return // unreachable: plain struct of numbers
			}
			jb.Publish("generation", data)
		}
	}

	s.admission.RLock()
	if s.draining {
		s.admission.RUnlock()
		s.jobStore.Remove(id)
		cancel()
		writeJSONError(w, http.StatusServiceUnavailable, "server is shutting down", "")
		return
	}
	admitted := false
	//schedlint:allow lockscope -- send-vs-close protocol shared with handleSchedule: the non-blocking send must happen under the read lock so Shutdown can close the queue safely
	select {
	case s.queue <- wj:
		admitted = true
	default:
	}
	s.admission.RUnlock()
	if !admitted {
		s.jobStore.Remove(id)
		cancel()
		w.Header().Set("Retry-After", strconv.Itoa(int((s.cfg.RetryAfter+time.Second-1)/time.Second)))
		writeJSONError(w, http.StatusTooManyRequests, "admission queue full", "")
		return
	}

	go s.finalizeJob(jb, wj)

	w.Header().Set("Location", "/v1/jobs/"+id)
	writeJobEnvelope(w, http.StatusAccepted, jb.Snapshot(), true)
}

// finalizeJob waits for the worker's verdict and records the job's terminal
// state: done, failed, cancelled, or — when the anytime path salvaged the
// EA's incumbent — cancelled-with-result. It also feeds the per-phase
// latency histograms and the anytime-cancel counter.
func (s *Server) finalizeJob(jb *jobs.Job, wj *job) {
	res := <-wj.result
	state := jobs.StateFailed
	switch {
	case res.outcome == "anytime":
		state = jobs.StateCancelledWithResult
		s.metrics.anytimeCancels.Add(1)
	case res.code == http.StatusOK:
		state = jobs.StateDone
	case res.outcome == "cancelled":
		state = jobs.StateCancelled
	}
	data, err := json.Marshal(doneEvent{State: state, Code: res.code})
	if err != nil {
		data = []byte(`{"state":"failed","code":500}`) // unreachable
	}
	jb.Finish(state, res.code, res.body, data)

	snap := jb.Snapshot()
	started := snap.Started
	if started.IsZero() {
		// Finalized without ever running (cancelled while queued): the whole
		// lifetime was queue time.
		started = snap.Finished
	}
	s.metrics.observeJobPhase("queued", started.Sub(snap.Created).Seconds())
	if !snap.Started.IsZero() {
		s.metrics.observeJobPhase("running", snap.Finished.Sub(snap.Started).Seconds())
	}
}

// jobFromPath resolves the {id} path value, answering 404 when absent.
func (s *Server) jobFromPath(w http.ResponseWriter, r *http.Request) (*jobs.Job, bool) {
	jb, ok := s.jobStore.Get(r.PathValue("id"))
	if !ok {
		writeJSONError(w, http.StatusNotFound, "unknown job", "id")
		return nil, false
	}
	return jb, true
}

// handleJobGet is GET /v1/jobs/{id}: the status/result envelope.
func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	jb, ok := s.jobFromPath(w, r)
	if !ok {
		return
	}
	writeJobEnvelope(w, http.StatusOK, jb.Snapshot(), false)
}

// handleJobResult is GET /v1/jobs/{id}/result: the terminal response,
// replayed verbatim — for done jobs byte-identical to the synchronous
// /v1/schedule answer for the same request.
func (s *Server) handleJobResult(w http.ResponseWriter, r *http.Request) {
	jb, ok := s.jobFromPath(w, r)
	if !ok {
		return
	}
	snap := jb.Snapshot()
	if !snap.State.Terminal() {
		w.Header().Set("Retry-After", "1")
		writeJSONError(w, http.StatusConflict, "job not finished (state "+string(snap.State)+")", "")
		return
	}
	writeBody(w, snap.Code, snap.Body)
}

// handleJobCancel is DELETE /v1/jobs/{id}: request cooperative cancellation
// and wait (bounded by the caller's own context) for the terminal state. The
// EA observes its context once per generation, so the wait is at most one
// generation; the answer then reports whether an incumbent was salvaged
// (cancelled-with-result) or not (cancelled). Cancelling a terminal job is a
// no-op that returns the existing outcome — NOT a purge, so a cancel that
// races the job's own completion never costs the client its result.
//
// "?purge=1" adds explicit release-intent: once the job is terminal (on
// entry or after the cancel lands) it is removed from the store, freeing its
// slot immediately instead of holding it until TTL expiry. The envelope
// still carries the final result, so cancel-and-purge is one round trip;
// later requests for a purged id get the honest 404. This is what keeps
// closed-loop consumers that fully drain each result from exhausting the
// bounded store.
func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	jb, ok := s.jobFromPath(w, r)
	if !ok {
		return
	}
	purge := r.URL.Query().Get("purge") == "1"
	finish := func(code int, snap jobs.Snapshot) {
		if purge && snap.State.Terminal() {
			s.jobStore.Remove(snap.ID)
		}
		writeJobEnvelope(w, code, snap, false)
	}
	if snap := jb.Snapshot(); snap.State.Terminal() {
		finish(http.StatusOK, snap)
		return
	}
	jb.Cancel()
	select {
	case <-jb.Done():
		finish(http.StatusOK, jb.Snapshot())
	case <-r.Context().Done():
		// The caller gave up before the generation boundary; cancellation
		// stays in flight (and an unfinished job is never purged).
		finish(http.StatusAccepted, jb.Snapshot())
	}
}

// handleJobEvents is GET /v1/jobs/{id}/events: the SSE progress stream.
// Events are replayed from the job's append-only log — a subscriber that
// attaches late (or resumes with Last-Event-ID) receives byte-identical
// frames, because each frame's data was rendered exactly once at publish
// time. Keep-alive comments flow every Config.SSEKeepAlive so idle streams
// survive proxies; the stream ends after the terminal "done" event.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	jb, ok := s.jobFromPath(w, r)
	if !ok {
		return
	}
	flusher, canFlush := w.(http.Flusher)
	if !canFlush {
		writeJSONError(w, http.StatusInternalServerError, "streaming unsupported", "")
		return
	}
	after := 0
	if lei := r.Header.Get("Last-Event-ID"); lei != "" {
		n, err := strconv.Atoi(lei)
		if err != nil || n < 0 {
			writeJSONError(w, http.StatusBadRequest, "malformed Last-Event-ID", "")
			return
		}
		after = n
	}

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	// Belt-and-braces for buffering proxies; emts-router additionally
	// streams text/event-stream responses unbuffered by content type.
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	wake, unsubscribe := jb.Subscribe()
	defer unsubscribe()
	s.metrics.sseSubscribers.Add(1)
	defer s.metrics.sseSubscribers.Add(-1)

	keepalive := time.NewTicker(s.cfg.SSEKeepAlive)
	defer keepalive.Stop()

	for {
		evs := jb.EventsSince(after)
		for _, ev := range evs {
			fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.Seq, ev.Type, ev.Data)
			after = ev.Seq
		}
		if len(evs) > 0 {
			flusher.Flush()
			if evs[len(evs)-1].Type == "done" {
				return
			}
		}
		select {
		case <-r.Context().Done():
			return
		case <-wake:
		case <-keepalive.C:
			fmt.Fprint(w, ": keep-alive\n\n")
			flusher.Flush()
		}
	}
}

// readRequestBody reads a bounded request body, answering 413/400 itself on
// failure (shared by /v1/schedule and /v1/jobs).
func readRequestBody(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, error) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, limit))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeJSONError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit), "body")
			return nil, err
		}
		writeJSONError(w, http.StatusBadRequest, "reading body: "+err.Error(), "body")
		return nil, err
	}
	return body, nil
}

// writeParseError maps parseScheduleRequest failures onto 400 responses
// (shared by /v1/schedule and /v1/jobs).
func writeParseError(w http.ResponseWriter, err error) {
	msg, field := parseErrorDetail(err)
	writeJSONError(w, http.StatusBadRequest, msg, field)
}

// parseErrorDetail is the message and field a parse failure is answered
// with.
func parseErrorDetail(err error) (msg, field string) {
	var reqErr *RequestError
	var decErr *dag.DecodeError
	switch {
	case errors.As(err, &reqErr):
		return reqErr.Msg, reqErr.Field
	case errors.As(err, &decErr):
		return decErr.Msg, "graph." + decErr.Field
	}
	return err.Error(), ""
}
