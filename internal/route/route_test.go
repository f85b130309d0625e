package route

import (
	"encoding/hex"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"

	"emts/internal/intern"
	"emts/internal/loadgen"
)

// testBackends builds n synthetic backends b0..b(n-1).
func testBackends(n int) []Backend {
	out := make([]Backend, n)
	for i := range out {
		out[i] = Backend{ID: fmt.Sprintf("b%d", i), URL: fmt.Sprintf("http://b%d", i)}
	}
	return out
}

// testKeys derives nk deterministic digests.
func testKeys(nk int) [][32]byte {
	keys := make([][32]byte, nk)
	for i := range keys {
		keys[i] = intern.RawKey([]byte(fmt.Sprintf("graph-%d", i)))
	}
	return keys
}

// TestPickOrderIndependence is the satellite property test: the rendezvous
// choice depends only on (key, backend ID) — never on the order the backend
// list was given in, and never on GOMAXPROCS or concurrent callers.
func TestPickOrderIndependence(t *testing.T) {
	backends := testBackends(7)
	keys := testKeys(500)

	ref, err := NewTable(backends)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]string, len(keys))
	for i, k := range keys {
		b, ok := ref.Pick(k[:], "")
		if !ok {
			t.Fatal("Pick found nothing on a 7-backend table")
		}
		want[i] = b.ID
	}

	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		shuffled := make([]Backend, len(backends))
		copy(shuffled, backends)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		tab, err := NewTable(shuffled)
		if err != nil {
			t.Fatal(err)
		}
		for i, k := range keys {
			if b, _ := tab.Pick(k[:], ""); b.ID != want[i] {
				t.Fatalf("trial %d key %d: pick %s after shuffle, want %s", trial, i, b.ID, want[i])
			}
		}
	}
}

// TestPickGOMAXPROCSIndependence exercises Pick from many goroutines at
// GOMAXPROCS 1 and 8 and asserts every caller sees the sequential answer:
// the table is immutable and the score is a pure function, so parallelism
// must be invisible.
func TestPickGOMAXPROCSIndependence(t *testing.T) {
	backends := testBackends(5)
	keys := testKeys(300)
	tab, err := NewTable(backends)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]string, len(keys))
	for i, k := range keys {
		b, _ := tab.Pick(k[:], "")
		want[i] = b.ID
	}

	for _, procs := range []int{1, 8} {
		prev := runtime.GOMAXPROCS(procs)
		var wg sync.WaitGroup
		errs := make(chan string, 16)
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i, k := range keys {
					if b, _ := tab.Pick(k[:], ""); b.ID != want[i] {
						select {
						case errs <- fmt.Sprintf("GOMAXPROCS=%d key %d: %s != %s", procs, i, b.ID, want[i]):
						default:
						}
						return
					}
				}
			}()
		}
		wg.Wait()
		runtime.GOMAXPROCS(prev)
		close(errs)
		if msg, ok := <-errs; ok {
			t.Fatal(msg)
		}
	}
}

// TestMembershipStability asserts the rendezvous minimal-disruption
// property: removing a backend remaps exactly the keys it owned; adding one
// moves ~1/(N+1) of the keys, all of them onto the new member.
func TestMembershipStability(t *testing.T) {
	backends := testBackends(5)
	keys := testKeys(2000)
	full, err := NewTable(backends)
	if err != nil {
		t.Fatal(err)
	}
	owner := make([]string, len(keys))
	for i, k := range keys {
		b, _ := full.Pick(k[:], "")
		owner[i] = b.ID
	}

	// Removal: only keys owned by the removed backend may move, and all of
	// them must (their owner is gone). Pick with exclude must agree with a
	// table built without the member — the retry path depends on this.
	for _, removed := range backends {
		var rest []Backend
		for _, b := range backends {
			if b.ID != removed.ID {
				rest = append(rest, b)
			}
		}
		sub, err := NewTable(rest)
		if err != nil {
			t.Fatal(err)
		}
		for i, k := range keys {
			got, _ := sub.Pick(k[:], "")
			if owner[i] != removed.ID && got.ID != owner[i] {
				t.Fatalf("remove %s: key %d moved %s -> %s though its owner stayed", removed.ID, i, owner[i], got.ID)
			}
			if owner[i] == removed.ID && got.ID == removed.ID {
				t.Fatalf("remove %s: key %d still routed to the removed backend", removed.ID, i)
			}
			if excl, _ := full.Pick(k[:], removed.ID); excl.ID != got.ID {
				t.Fatalf("remove %s: Pick(exclude) %s disagrees with the shrunk table %s", removed.ID, excl.ID, got.ID)
			}
		}
	}

	// Addition: every moved key must land on the newcomer, and the moved
	// fraction must be near 1/(N+1) = 1/6 (binomial over 2000 keys; the
	// 10–24% window is ±6 sigma).
	grown, err := NewTable(append(testBackends(5), Backend{ID: "fresh", URL: "http://fresh"}))
	if err != nil {
		t.Fatal(err)
	}
	moved := 0
	for i, k := range keys {
		got, _ := grown.Pick(k[:], "")
		if got.ID != owner[i] {
			if got.ID != "fresh" {
				t.Fatalf("add fresh: key %d moved %s -> %s, not onto the new backend", i, owner[i], got.ID)
			}
			moved++
		}
	}
	frac := float64(moved) / float64(len(keys))
	if frac < 0.10 || frac > 0.24 {
		t.Fatalf("add fresh: %.1f%% of keys moved, want ~16.7%%", 100*frac)
	}
}

// TestNewTableRejectsDuplicates pins the identity rule.
func TestNewTableRejectsDuplicates(t *testing.T) {
	if _, err := NewTable([]Backend{{ID: "a"}, {ID: "a"}}); err == nil {
		t.Fatal("duplicate IDs accepted")
	}
	tab, err := NewTable(nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := tab.Pick([]byte("k"), ""); ok {
		t.Fatal("empty table picked a backend")
	}
}

// TestRequestKey pins that the routing key is the graph intern's raw-bytes
// digest of the graph field — the affinity contract with internal/server.
func TestRequestKey(t *testing.T) {
	graph := []byte(`{"tasks":[{"id":"t1","work":1}]}`)
	body := append(append([]byte(`{"graph":`), graph...), []byte(`,"algorithm":"cpa","seed":7}`)...)
	key, err := RequestKey(body)
	if err != nil {
		t.Fatalf("RequestKey: %v", err)
	}
	if key != intern.RawKey(graph) {
		t.Fatal("routing key differs from intern.RawKey over the graph bytes")
	}
	// Same graph under different request parameters routes identically.
	body2 := append(append([]byte(`{"graph":`), graph...), []byte(`,"algorithm":"emts5","seed":8}`)...)
	key2, err := RequestKey(body2)
	if err != nil || key2 != key {
		t.Fatalf("same graph, different params: keys differ (%v)", err)
	}
	// The backend decodes only the first JSON value, so it accepts a body
	// with a stray closing brace after it; the router must shard that body
	// by its graph as well.
	if k, err := RequestKey(append(body, '}')); err != nil || k != key {
		t.Fatalf("trailing brace: key differs (%v)", err)
	}
	// No graph, or an envelope the backend rejects (an unknown field,
	// trailing data): deterministic whole-body fallback plus the sentinel.
	for _, bad := range []string{
		`{"algorithm":"cpa"}`,
		`{"graph":` + string(graph) + `,"priority":1}`,
		string(body) + ` {}`,
	} {
		if k, err := RequestKey([]byte(bad)); err != ErrNoGraph || k != intern.RawKey([]byte(bad)) {
			t.Fatalf("RequestKey(%s) = %x, %v; want the body's RawKey and ErrNoGraph", bad, k, err)
		}
	}
}

// TestJobKey pins the id-addressed affinity contract: the graph digest a
// submit was routed by is recoverable from every /v1/jobs/{id}[/...] path,
// so polls, SSE subscriptions, and cancels hash onto the same backend.
func TestJobKey(t *testing.T) {
	graph := []byte(`{"tasks":[{"id":"t1","work":1}]}`)
	body := append(append([]byte(`{"graph":`), graph...), []byte(`,"algorithm":"emts5","seed":7}`)...)
	want, err := RequestKey(body)
	if err != nil {
		t.Fatal(err)
	}
	id := hex.EncodeToString(want[:]) + "-" + "aabbccdd"
	for _, path := range []string{
		"/v1/jobs/" + id,
		"/v1/jobs/" + id + "/events",
		"/v1/jobs/" + id + "/result",
	} {
		key, ok := JobKey(path)
		if !ok {
			t.Fatalf("JobKey(%q) not ok", path)
		}
		if key != want {
			t.Fatalf("JobKey(%q) differs from the submit's RequestKey", path)
		}
	}

	// Malformed ids fall back to a deterministic whole-path digest: the same
	// path keeps hitting one backend (which owns the authoritative 404).
	for _, path := range []string{
		"/v1/jobs/short-id",
		"/v1/jobs/" + strings.Repeat("zz", 32) + "-x", // right length, not hex
		"/v1/schedule",
	} {
		k1, ok := JobKey(path)
		if ok {
			t.Fatalf("JobKey(%q) ok on malformed path", path)
		}
		k2, _ := JobKey(path)
		if k1 != k2 {
			t.Fatalf("JobKey(%q) not deterministic", path)
		}
	}
}

// BenchmarkRequestKey keys the bodies emts-loadgen sends (random50/55/60,
// FFT8 and Strassen at two request seeds each), one body per iteration in
// turn: the router's per-request cost of finding a schedule body's shard.
func BenchmarkRequestKey(b *testing.B) {
	bodies, err := loadgen.Bodies(loadgen.Options{
		Graphs: "random50,random55,random60,fft8,strassen", Seeds: 2, Seed: 1,
		Algo: "emts5", Model: "synthetic", Cluster: "chti",
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := RequestKey(bodies[i%len(bodies)]); err != nil {
			b.Fatal(err)
		}
	}
}
