package loadgen

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestGenerateSpecs(t *testing.T) {
	for _, spec := range []string{"fft8", "strassen", "random20"} {
		g, err := generate(spec, 1)
		if err != nil {
			t.Fatalf("generate(%q): %v", spec, err)
		}
		if g.NumTasks() == 0 {
			t.Fatalf("generate(%q): empty graph", spec)
		}
	}
	for _, spec := range []string{"fftx", "random", "cube3"} {
		if _, err := generate(spec, 1); err == nil {
			t.Fatalf("generate(%q): want error", spec)
		}
	}
}

// TestPickJobCancelsEveryGraph: for one to four graphs, every graph gets
// both cancelled and uncancelled jobs, and half the jobs are cancelled.
func TestPickJobCancelsEveryGraph(t *testing.T) {
	for graphs := 1; graphs <= 4; graphs++ {
		var seen [4][2]int // per graph: uncancelled, cancelled
		const jobs = 48
		for n := int64(1); n <= jobs; n++ {
			g, cancel := pickJob(n, graphs)
			if g < 0 || g >= graphs {
				t.Fatalf("%d graphs: job %d picked graph %d", graphs, n, g)
			}
			if cancel {
				seen[g][1]++
			} else {
				seen[g][0]++
			}
		}
		cancelled := 0
		for g := 0; g < graphs; g++ {
			if seen[g][0] == 0 || seen[g][1] == 0 {
				t.Errorf("%d graphs: graph %d got %d uncancelled and %d cancelled jobs", graphs, g, seen[g][0], seen[g][1])
			}
			cancelled += seen[g][1]
		}
		if cancelled != jobs/2 {
			t.Errorf("%d graphs: %d of %d jobs cancelled, want half", graphs, cancelled, jobs)
		}
	}
}

func TestBuildBodies(t *testing.T) {
	o := Options{Graphs: "fft4,strassen", Algo: "emts5", Model: "synthetic", Cluster: "chti", Seeds: 3, Seed: 1}
	bodies, err := Bodies(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(bodies) != 6 { // 2 workloads x 3 seeds
		t.Fatalf("len(bodies) = %d, want 6", len(bodies))
	}
	o.Graphs, o.Seeds = " , ", 1
	if _, err := Bodies(o); err == nil {
		t.Fatal("empty workload list accepted")
	}
}

func TestPercentile(t *testing.T) {
	cases := []struct {
		n    int
		q    float64
		want time.Duration
	}{
		{10, 0.50, 5}, {10, 0.90, 9}, {10, 0.95, 10}, {10, 0.99, 10}, {10, 1.0, 10},
		// q·n = 10.45, so the nearest rank is the 11th sample, not the 10th.
		{11, 0.95, 11},
	}
	for _, tc := range cases {
		all := make([]time.Duration, tc.n)
		for i := range all {
			all[i] = time.Duration(i + 1)
		}
		if got := percentile(all, tc.q); got != tc.want {
			t.Errorf("percentile(n=%d, %.2f) = %d, want %d", tc.n, tc.q, got, tc.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile(nil) = %d, want 0", got)
	}
}

func TestTargets(t *testing.T) {
	got, err := targets("http://h:1/", "")
	if err != nil || len(got) != 1 || got[0] != "http://h:1/v1/schedule" {
		t.Fatalf("targets(url) = %v, %v", got, err)
	}
	got, err = targets("ignored", "h1:1, http://h2:2/")
	if err != nil || len(got) != 2 || got[0] != "http://h1:1/v1/schedule" || got[1] != "http://h2:2/v1/schedule" {
		t.Fatalf("targets(direct) = %v, %v", got, err)
	}
	if _, err := targets("ignored", " , "); err == nil {
		t.Fatal("empty -direct accepted")
	}
}

// TestOpenLoopAchievedIsMeasured offers 100 req/s for 0.5 s to a server
// that handles one request at a time in 20 ms, so it finishes at most 50
// req/s: the achieved rate must say so. A server that keeps up must still
// read close to the offered rate.
func TestOpenLoopAchievedIsMeasured(t *testing.T) {
	var mu sync.Mutex
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		time.Sleep(20 * time.Millisecond)
		mu.Unlock()
		w.Write([]byte("{}"))
	}))
	defer slow.Close()
	fast := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("{}"))
	}))
	defer fast.Close()

	o := Options{Graphs: "fft4", Algo: "cpa", Model: "synthetic", Cluster: "chti",
		Conc: 1, Seeds: 1, Seed: 1, Duration: 500 * time.Millisecond, Timeout: 5 * time.Second, RPS: 100}
	for _, tc := range []struct {
		name   string
		url    string
		lo, hi float64
	}{
		{"serialized 20ms", slow.URL, 0, 60},
		{"keeps up", fast.URL, 70, 110},
	} {
		o.URL = tc.url
		var out strings.Builder
		s, err := Run(&out, o)
		if err != nil {
			t.Fatalf("%s: %v\n%s", tc.name, err, out.String())
		}
		if s.Requests != 50 || s.AchievedRPS < tc.lo || s.AchievedRPS > tc.hi {
			t.Fatalf("%s: %d requests at %.1f req/s achieved, want 50 in [%g, %g]\n%s",
				tc.name, s.Requests, s.AchievedRPS, tc.lo, tc.hi, out.String())
		}
	}
}
