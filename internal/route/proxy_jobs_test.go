package route

import (
	"bufio"
	"bytes"
	"context"
	"encoding/hex"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"emts/internal/server"
)

// jobEnvelope mirrors the server's job status body (client-side view).
type jobEnvelope struct {
	ID    string `json:"id"`
	State string `json:"state"`
}

// TestRouterJobsAffinity is the routed async-job lifecycle: the submit is
// routed by graph digest exactly like /v1/schedule, every id-addressed
// follow-up (poll, SSE subscribe, result, cancel) lands on the same backend,
// the SSE stream passes through unbuffered to completion, and the routed
// result is byte-identical to the owning backend's direct answer.
func TestRouterJobsAffinity(t *testing.T) {
	backends := startBackends(t, 3, server.Config{SSEKeepAlive: time.Hour})
	var members []Backend
	byID := make(map[string]realBackend)
	for _, rb := range backends {
		members = append(members, rb.b)
		byID[rb.b.ID] = rb
	}
	router, err := New(Config{Backends: members, Health: HealthConfig{Interval: time.Hour}})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Shutdown(context.Background())
	rts := httptest.NewServer(router.Handler())
	defer rts.Close()
	table := router.Table()

	for i, spec := range []string{"fft4", "fft8", "strassen"} {
		body := scheduleBody(t, spec, "emts5", int64(100+i))
		key, err := RequestKey(body)
		if err != nil {
			t.Fatal(err)
		}
		owner, _ := table.Pick(key[:], "")

		// Submit through the router: routed by the same digest as /v1/schedule.
		resp, err := http.Post(rts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		sb, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("%s: submit status %d: %s", spec, resp.StatusCode, sb)
		}
		if got := resp.Header.Get("X-Emts-Backend"); got != owner.ID {
			t.Fatalf("%s: submit served by %s, rendezvous choice is %s", spec, got, owner.ID)
		}
		if loc := resp.Header.Get("Location"); !strings.HasPrefix(loc, "/v1/jobs/") {
			t.Fatalf("%s: Location %q not forwarded", spec, loc)
		}
		var env jobEnvelope
		if err := json.Unmarshal(sb, &env); err != nil {
			t.Fatalf("%s: envelope: %v (%s)", spec, err, sb)
		}

		// The id embeds the routing key: every id-addressed path recovers it.
		jk, ok := JobKey("/v1/jobs/" + env.ID + "/events")
		if !ok || jk != key {
			t.Fatalf("%s: JobKey over the returned id diverges from the submit key (ok=%v)", spec, ok)
		}

		// SSE through the router: streamed to the terminal event.
		eresp, err := http.Get(rts.URL + "/v1/jobs/" + env.ID + "/events")
		if err != nil {
			t.Fatal(err)
		}
		if got := eresp.Header.Get("X-Emts-Backend"); got != owner.ID {
			t.Fatalf("%s: events served by %s, want %s", spec, got, owner.ID)
		}
		if ct := eresp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/event-stream") {
			t.Fatalf("%s: events Content-Type %q", spec, ct)
		}
		if xab := eresp.Header.Get("X-Accel-Buffering"); xab != "no" {
			t.Fatalf("%s: X-Accel-Buffering %q not forwarded", spec, xab)
		}
		sawDone := false
		sc := bufio.NewScanner(eresp.Body)
		for sc.Scan() {
			if sc.Text() == "event: done" {
				sawDone = true
			}
			if sawDone && sc.Text() == "" {
				break
			}
		}
		eresp.Body.Close()
		if !sawDone {
			t.Fatalf("%s: SSE stream through router ended without done event", spec)
		}

		// Poll and result through the router land on the owner; the routed
		// result matches the owner's direct bytes.
		presp, err := http.Get(rts.URL + "/v1/jobs/" + env.ID)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, presp.Body)
		presp.Body.Close()
		if got := presp.Header.Get("X-Emts-Backend"); presp.StatusCode != http.StatusOK || got != owner.ID {
			t.Fatalf("%s: poll status %d via %s, want 200 via %s", spec, presp.StatusCode, got, owner.ID)
		}

		rresp, err := http.Get(rts.URL + "/v1/jobs/" + env.ID + "/result")
		if err != nil {
			t.Fatal(err)
		}
		routed, _ := io.ReadAll(rresp.Body)
		rresp.Body.Close()
		if rresp.StatusCode != http.StatusOK {
			t.Fatalf("%s: result status %d: %s", spec, rresp.StatusCode, routed)
		}
		dresp, err := http.Get(byID[owner.ID].ts.URL + "/v1/jobs/" + env.ID + "/result")
		if err != nil {
			t.Fatal(err)
		}
		direct, _ := io.ReadAll(dresp.Body)
		dresp.Body.Close()
		if !bytes.Equal(routed, direct) {
			t.Fatalf("%s: routed result differs from the owner's direct answer", spec)
		}

		// Purge through the router, then the owner answers the 404 itself.
		dreq, _ := http.NewRequest(http.MethodDelete, rts.URL+"/v1/jobs/"+env.ID+"?purge=1", nil)
		delResp, err := http.DefaultClient.Do(dreq)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, delResp.Body)
		delResp.Body.Close()
		if delResp.StatusCode != http.StatusOK {
			t.Fatalf("%s: purge status %d", spec, delResp.StatusCode)
		}
		gresp, err := http.Get(rts.URL + "/v1/jobs/" + env.ID)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, gresp.Body)
		gresp.Body.Close()
		if gresp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s: purged job answered %d via router, want 404", spec, gresp.StatusCode)
		}
		if got := gresp.Header.Get("X-Emts-Backend"); got != owner.ID {
			t.Fatalf("%s: 404 answered by %s, authoritative owner is %s", spec, got, owner.ID)
		}
	}
}

// TestRouterSSEOutlivesUpstreamTimeout pins the streaming client split: an
// SSE subscription must survive past the router's UpstreamTimeout (which
// bounds ordinary proxied requests) as long as the job is still running.
func TestRouterSSEOutlivesUpstreamTimeout(t *testing.T) {
	backends := startBackends(t, 1, server.Config{SSEKeepAlive: 50 * time.Millisecond})
	router, err := New(Config{
		Backends:        []Backend{backends[0].b},
		Health:          HealthConfig{Interval: time.Hour},
		UpstreamTimeout: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Shutdown(context.Background())
	rts := httptest.NewServer(router.Handler())
	defer rts.Close()

	body := scheduleBody(t, "fft8", "emts10", 777)
	resp, err := http.Post(rts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	sb, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d: %s", resp.StatusCode, sb)
	}
	var env jobEnvelope
	if err := json.Unmarshal(sb, &env); err != nil {
		t.Fatal(err)
	}

	// A Last-Event-ID beyond the log's end makes the (finished) job's stream
	// emit nothing but keep-alive comments: an idle stream we can hold open
	// across several keep-alive periods, all beyond the 200ms upstream
	// timeout. A router that ran SSE through its ordinary timed client would
	// cut it at ~200ms.
	req, _ := http.NewRequest(http.MethodGet, rts.URL+"/v1/jobs/"+env.ID+"/events", nil)
	req.Header.Set("Last-Event-ID", "1000000")
	eresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer eresp.Body.Close()
	if eresp.StatusCode != http.StatusOK {
		t.Fatalf("events status %d", eresp.StatusCode)
	}
	deadline := time.Now().Add(600 * time.Millisecond) // 3x the upstream timeout
	sc := bufio.NewScanner(eresp.Body)
	keepalives := 0
	for time.Now().Before(deadline) && sc.Scan() {
		if strings.HasPrefix(sc.Text(), ":") {
			keepalives++
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("stream died within the upstream-timeout window: %v (after %d keep-alives)", err, keepalives)
	}
	if keepalives < 2 {
		t.Fatalf("saw %d keep-alives across the window, want >= 2 (stream cut early?)", keepalives)
	}
}

// TestRouterJobRetryOnRefused polls a job whose owner refuses connections:
// the poll is replayed once onto the next rendezvous choice for the job's
// key, which answers the authoritative 404.
func TestRouterJobRetryOnRefused(t *testing.T) {
	backends := startBackends(t, 2, server.Config{})
	router, err := New(Config{Backends: []Backend{backends[0].b, backends[1].b}, Health: HealthConfig{Interval: time.Hour}})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Shutdown(context.Background())
	rts := httptest.NewServer(router.Handler())
	defer rts.Close()

	key, err := RequestKey(scheduleBody(t, "fft4", "emts5", 1))
	if err != nil {
		t.Fatal(err)
	}
	path := "/v1/jobs/" + hex.EncodeToString(key[:]) + "-" + strings.Repeat("0", 64)
	owner, _ := router.Table().Pick(key[:], "")
	next, _ := router.Table().Pick(key[:], owner.ID)
	for _, rb := range backends {
		if rb.b.ID == owner.ID {
			rb.ts.Close()
		}
	}

	resp, err := http.Get(rts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("poll status %d, want the next choice's 404", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Emts-Backend"); got != next.ID {
		t.Fatalf("poll answered by %s, want the next rendezvous choice %s", got, next.ID)
	}
	if n := sampleValue(t, scrape(t, rts.URL), "emts_router_retries_total"); n != 1 {
		t.Fatalf("emts_router_retries_total %d, want 1", n)
	}
}
