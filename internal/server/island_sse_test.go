// SSE contract for island-model jobs (DESIGN.md §17): a multi-island run
// streams one generation event per island per generation in (generation,
// island) order with a monotone aggregate best_makespan, while single-island
// streams keep the exact pre-island wire bytes (no "island" key at all).
package server

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"emts/internal/envelope"
	"emts/internal/jobs"
)

// islandScheduleBody builds a request body with island parameters.
func islandScheduleBody(t *testing.T, seed int64, islands, interval int) []byte {
	t.Helper()
	b, err := json.Marshal(envelope.ScheduleRequest{
		Graph:             testGraphJSON(t),
		Cluster:           envelope.ClusterSpec{Preset: "chti"},
		Model:             "synthetic",
		Algorithm:         "emts5",
		Seed:              seed,
		Islands:           islands,
		MigrationInterval: interval,
	})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestJobIslandSSEOrderingDeterminism runs a 3-island job end to end and
// pins the stream shape: generations×islands generation events in
// (generation, island) order, each carrying its island index; the aggregate
// best_makespan non-increasing across the whole stream; the last event's
// best_makespan equal to the final schedule's makespan; and the response
// echoing the effective island count.
func TestJobIslandSSEOrderingDeterminism(t *testing.T) {
	const islands = 3
	_, ts := newTestServer(t, Config{Workers: 2, SSEKeepAlive: time.Hour})

	resp := postJob(t, ts.URL, islandScheduleBody(t, 42, islands, 2))
	env := decodeEnvelope(t, resp)
	final := waitTerminal(t, ts.URL, env.ID)
	if final.State != jobs.StateDone {
		t.Fatalf("state %s, want done", final.State)
	}
	var sr ScheduleResponse
	if err := json.Unmarshal(final.Result, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Islands != islands {
		t.Fatalf("response islands = %d, want %d", sr.Islands, islands)
	}

	frames, _ := readSSEFrames(t, getSSE(t, ts.URL, env.ID, -1).Body)
	var evs []generationEvent
	for _, f := range frames {
		if f.event != "generation" {
			continue
		}
		var ev generationEvent
		if err := json.Unmarshal([]byte(f.data), &ev); err != nil {
			t.Fatalf("decoding generation event %q: %v", f.data, err)
		}
		evs = append(evs, ev)
	}
	if want := sr.Generations * islands; len(evs) != want {
		t.Fatalf("generation events %d, want generations×islands = %d", len(evs), want)
	}
	prev := evs[0].BestMakespan
	for i, ev := range evs {
		if ev.Island == nil {
			t.Fatalf("event %d: multi-island generation event without island index", i)
		}
		if wantGen, wantIsl := i/islands, i%islands; ev.Generation != wantGen || *ev.Island != wantIsl {
			t.Fatalf("event %d: (generation, island) = (%d, %d), want (%d, %d)",
				i, ev.Generation, *ev.Island, wantGen, wantIsl)
		}
		if ev.BestMakespan > prev {
			t.Fatalf("event %d: aggregate best_makespan worsened: %g after %g", i, ev.BestMakespan, prev)
		}
		prev = ev.BestMakespan
	}
	if last := evs[len(evs)-1].BestMakespan; last != sr.Makespan {
		t.Fatalf("last streamed best_makespan %g != final makespan %g", last, sr.Makespan)
	}
}

// TestJobIslandSingleStreamByteIdentity pins the wire-format compatibility
// half: a single-population job (islands omitted) must stream generation
// events without any "island" key — byte-identical to the pre-island event
// schema — and its response must omit the islands echo.
func TestJobIslandSingleStreamByteIdentity(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, SSEKeepAlive: time.Hour})

	resp := postJob(t, ts.URL, scheduleBody(t, "emts5", 42))
	env := decodeEnvelope(t, resp)
	final := waitTerminal(t, ts.URL, env.ID)
	if final.State != jobs.StateDone {
		t.Fatalf("state %s, want done", final.State)
	}
	if strings.Contains(string(final.Result), `"islands"`) {
		t.Fatalf("single-population response leaks an islands field: %s", final.Result)
	}
	frames, raw := readSSEFrames(t, getSSE(t, ts.URL, env.ID, -1).Body)
	if strings.Contains(raw, `"island"`) {
		t.Fatalf("single-population stream leaks an island field: %q", raw)
	}
	gens := 0
	for _, f := range frames {
		if f.event == "generation" {
			gens++
		}
	}
	if gens == 0 {
		t.Fatal("no generation events streamed")
	}
}

// TestJobIslandRequestValidation covers the admission checks for the island
// request fields: negatives and over-cap island counts are 400s naming the
// offending field.
func TestJobIslandRequestValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, MaxIslands: 4})
	cases := []struct {
		name    string
		islands int
		interv  int
		field   string
	}{
		{"negative islands", -1, 0, "islands"},
		{"over cap", 5, 0, "islands"},
		{"negative interval", 2, -1, "migration_interval"},
	}
	for _, tc := range cases {
		resp := post(t, ts.URL, islandScheduleBody(t, 1, tc.islands, tc.interv))
		body := readAll(t, resp)
		if resp.StatusCode != 400 {
			t.Fatalf("%s: status %d, want 400 (%s)", tc.name, resp.StatusCode, body)
		}
		var er errorResponse
		if err := json.Unmarshal(body, &er); err != nil {
			t.Fatal(err)
		}
		if er.Field != tc.field {
			t.Fatalf("%s: error field %q, want %q", tc.name, er.Field, tc.field)
		}
	}
	// At the cap is admitted.
	resp := post(t, ts.URL, islandScheduleBody(t, 1, 4, 1))
	body := readAll(t, resp)
	if resp.StatusCode != 200 {
		t.Fatalf("at-cap islands: status %d (%s)", resp.StatusCode, body)
	}
	var sr ScheduleResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Islands != 4 {
		t.Fatalf("at-cap islands echo = %d, want 4", sr.Islands)
	}
}
