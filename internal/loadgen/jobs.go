package loadgen

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// JobStats is the part of a Summary only the jobs mode writes.
type JobStats struct {
	Submitted   int `json:"jobs_submitted"`
	Completed   int `json:"jobs_completed"`           // state "done"
	Cancelled   int `json:"jobs_cancelled"`           // state "cancelled-with-result" (anytime answers)
	Aborted     int `json:"jobs_cancelled_unstarted"` // state "cancelled" (never started, no incumbent)
	Failed      int `json:"jobs_failed"`              // state "failed"
	AnytimeOK   int `json:"anytime_ok"`               // cancelled jobs whose result makespan == last streamed best_makespan
	SSEEvents   int `json:"sse_generation_events"`    // generation events seen across all jobs
	SSEMatch    int `json:"sse_match"`                // finished jobs with one event per generation (per island)
	SSEMismatch int `json:"sse_mismatch"`             // finished jobs where the counts diverge
}

func (j *JobStats) add(o JobStats) {
	j.Submitted += o.Submitted
	j.Completed += o.Completed
	j.Cancelled += o.Cancelled
	j.Aborted += o.Aborted
	j.Failed += o.Failed
	j.AnytimeOK += o.AnytimeOK
	j.SSEEvents += o.SSEEvents
	j.SSEMatch += o.SSEMatch
	j.SSEMismatch += o.SSEMismatch
}

// The client-side views of the job API's bodies and SSE payloads.
type (
	jobEnvelope struct {
		ID string `json:"id"`
	}
	genEvent struct {
		Generation   int     `json:"generation"`
		BestMakespan float64 `json:"best_makespan"`
	}
	doneEvent struct {
		State string `json:"state"`
	}
	jobFinal struct {
		Makespan    float64 `json:"makespan"`
		Generations int     `json:"generations"`
	}
)

// runJobs drives the async job API: o.Conc closed-loop workers, each
// iteration submitting one job with a globally unique seed (so the
// idempotency key never collapses two submissions into one job), following
// its SSE stream to the terminal event, and fetching the result. With
// o.CancelAt > 0 every second job (see pickJob) is cancelled once its
// stream reaches that generation, which exercises the anytime path end to
// end. SSE streams live as long as their job runs, so they go through
// sseClient, which has no timeout; the server closes a stream after its
// terminal event.
func runJobs(client, sseClient *http.Client, o Options) (tally, error) {
	if o.Direct != "" {
		return tally{}, errors.New("-jobs drives one front end; use -url, not -direct")
	}
	graphs, err := workloads(o.Graphs, o.Seed)
	if err != nil {
		return tally{}, err
	}
	base := strings.TrimSuffix(o.URL, "/")
	deadline := time.Now().Add(o.Duration)
	var counter atomic.Int64
	parts := make([]tally, o.Conc)
	var wg sync.WaitGroup
	for w := range parts {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			t := newTally()
			for time.Now().Before(deadline) {
				n := counter.Add(1)
				gi, cancel := pickJob(n, len(graphs))
				body, err := o.body(graphs[gi], o.Seed+n)
				if err != nil {
					t.fail(err)
					break
				}
				cancelGen := 0
				if o.CancelAt > 0 && cancel {
					cancelGen = o.CancelAt
				}
				t.runJob(client, sseClient, base, body, cancelGen, o.Islands)
			}
			parts[w] = t
		}(w)
	}
	wg.Wait()
	return merge(parts), nil
}

// pickJob chooses the graph of job n among graphs and whether the job is
// one of the cancelled half. Jobs cycle through the graphs, and the cancel
// flag alternates with each pass over the list, not with each job, so every
// graph gets both cancelled and uncancelled jobs whatever the graph count.
func pickJob(n int64, graphs int) (graph int, cancel bool) {
	return int(n % int64(graphs)), (n/int64(graphs))%2 == 1
}

// runJob submits one job and follows it to a terminal state. islands is the
// request's island setting: a multi-island run streams one generation
// event per island per generation, so the SSE-vs-result check scales its
// expectation by it.
func (t *tally) runJob(client, sseClient *http.Client, base string, body []byte, cancelGen, islands int) {
	start := time.Now()
	resp, err := client.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.fail(err)
		t.codes[transportError]++
		return
	}
	var env jobEnvelope
	decErr := json.NewDecoder(resp.Body).Decode(&env)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	t.codes[resp.StatusCode]++
	if resp.StatusCode == http.StatusTooManyRequests {
		backoff(resp) // job store or queue full
		return
	}
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		return
	}
	if decErr != nil || env.ID == "" {
		t.fail(fmt.Errorf("submit: undecodable envelope (status %d): %v", resp.StatusCode, decErr))
		return
	}
	t.jobs.Submitted++

	gens, lastBest, done, err := t.followEvents(client, sseClient, base, env.ID, cancelGen)
	if err != nil {
		t.fail(err)
		return
	}
	t.latencies = append(t.latencies, time.Since(start))
	t.jobs.SSEEvents += gens

	final, finalOK := t.fetchResult(client, base, env.ID)
	switch done.State {
	case "done":
		t.jobs.Completed++
	case "cancelled-with-result":
		t.jobs.Cancelled++
		//schedlint:allow floateq -- the anytime contract is exact: both values are the same float64 serialized by the server, so any difference is a real bug an epsilon would hide
		if finalOK && final.Makespan == lastBest {
			t.jobs.AnytimeOK++
		}
	case "cancelled":
		t.jobs.Aborted++
		finalOK = false
	default:
		t.jobs.Failed++
		finalOK = false
	}
	// A finished job, the anytime one included, streamed one event per
	// completed generation per island.
	if finalOK {
		t.generations += final.Generations
		if gens == final.Generations*max(1, islands) {
			t.jobs.SSEMatch++
		} else {
			t.jobs.SSEMismatch++
		}
	}
	// The job is terminal and fully consumed: release its store slot so a
	// long closed loop doesn't exhaust the bounded job store with
	// already-read results.
	t.cancelJob(client, base, env.ID, true)
}

// followEvents subscribes to a job's SSE stream, counts generation events,
// and returns after the terminal "done" event. When cancelGen > 0 it issues
// the DELETE as soon as the stream reaches that generation — the cancel is
// observed by the EA at its next generation boundary, so a few more
// generation events may (correctly) arrive before the terminal one.
func (t *tally) followEvents(client, sseClient *http.Client, base, id string, cancelGen int) (gens int, lastBest float64, done doneEvent, err error) {
	resp, err := sseClient.Get(base + "/v1/jobs/" + id + "/events")
	if err != nil {
		t.codes[transportError]++
		return 0, 0, done, err
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	t.codes[resp.StatusCode]++
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
						t.cancelJob(client, base, id, false)
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
	return gens, lastBest, done, errors.New("events: stream ended without done event")
}

// cancelJob issues the DELETE inline from the SSE read loop. The handler
// waits for the job to reach a terminal state, which happens once the EA
// observes the cancel — independent of this client reading events. The pause
// loses nothing: the event log buffers server-side and the stream replays
// every event up to the terminal one after the DELETE returns. With purge
// the DELETE also releases the job's store slot once terminal.
func (t *tally) cancelJob(client *http.Client, base, id string, purge bool) {
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
		t.codes[transportError]++
		return
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	t.codes[resp.StatusCode]++
}

// fetchResult reads the job's final response body and extracts the fields
// the mode verifies. ok is false when there is no 200 result (e.g. a job
// cancelled before it started).
func (t *tally) fetchResult(client *http.Client, base, id string) (jobFinal, bool) {
	resp, err := client.Get(base + "/v1/jobs/" + id + "/result")
	if err != nil {
		t.fail(err)
		t.codes[transportError]++
		return jobFinal{}, false
	}
	defer resp.Body.Close()
	t.codes[resp.StatusCode]++
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return jobFinal{}, false
	}
	var final jobFinal
	if err := json.NewDecoder(resp.Body).Decode(&final); err != nil {
		t.fail(fmt.Errorf("result: undecodable body: %w", err))
		return jobFinal{}, false
	}
	io.Copy(io.Discard, resp.Body)
	return final, true
}

// reportJobs prints the jobs mode's text report and returns its summary.
func (t *tally) reportJobs(out io.Writer, o Options) (Summary, error) {
	j := t.jobs
	fmt.Fprintf(out, "jobs:       %d submitted in %s: %d done, %d cancelled-with-result, %d cancelled, %d failed\n",
		j.Submitted, o.Duration, j.Completed, j.Cancelled, j.Aborted, j.Failed)
	fmt.Fprintf(out, "anytime:    %d/%d cancelled jobs returned the streamed incumbent\n", j.AnytimeOK, j.Cancelled)
	fmt.Fprintf(out, "sse:        %d generation events; %d jobs matched their generation count, %d mismatched\n",
		j.SSEEvents, j.SSEMatch, j.SSEMismatch)
	t.printCodes(out)
	if j.Submitted == 0 {
		return Summary{}, t.none("no jobs submitted")
	}
	if t.firstErr != nil {
		fmt.Fprintf(out, "first error: %v\n", t.firstErr)
	}
	if n := len(t.latencies); n > 0 {
		fmt.Fprintf(out, "job latency: p50 %s  p95 %s  max %s\n",
			percentile(t.latencies, 0.50), percentile(t.latencies, 0.95), t.latencies[n-1])
	}
	s := t.summary("jobs", o)
	s.JobStats = &j
	return s, nil
}
