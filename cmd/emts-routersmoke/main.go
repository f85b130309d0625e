// Command emts-routersmoke is the scale-out acceptance harness (DESIGN.md
// §15): it stands up three emts-serve backends with deliberately tight cache
// bounds, drives the same repeat-structure workload through the digest
// router and through a round-robin direct sweep, and gates on the properties
// the tier exists for:
//
//   - affinity: routed serving must show a strictly higher graph-intern and
//     response-cache hit rate than round-robin over the same trio (digest
//     sharding partitions the key space; round-robin duplicates it N times
//     into LRUs that cannot hold it),
//   - throughput: routed aggregate req/s must be ≥ 2× a single constrained
//     backend under the same closed-loop offered load,
//   - correctness: zero 5xx anywhere, and routed responses byte-identical
//     to every backend's direct answer for a sample corpus,
//
// then writes the whole comparison to a JSON artifact (BENCH_PR8.json in
// CI). Load comes from internal/loadgen, the code behind emts-loadgen, run
// in process: each phase's report goes to stdout and its summary into the
// artifact.
//
// Usage:
//
//	emts-routersmoke -serve ./emts-serve -router ./emts-router
//	                 [-out artifacts/BENCH_PR8.json] [-base-port 18090]
//	                 [-duration 6s] [-warmup 2s] [-rps 25] [-c 6]
//
// The backends are started with -cache 32 -graph-entries 8 -table-entries 12
// against a 12-graph × 4-seed corpus (48 response keys): one backend's worth
// of cache cannot hold the working set, a third of it can. That is the
// regime where routing either proves itself or doesn't.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"emts/internal/loadgen"
)

func main() {
	var (
		serveBin  = flag.String("serve", "", "path to the emts-serve binary (required)")
		routerBin = flag.String("router", "", "path to the emts-router binary (required)")
		out       = flag.String("out", "artifacts/BENCH_PR8.json", "artifact path")
		basePort  = flag.Int("base-port", 18090, "router listens here, backends on the next three ports")
		duration  = flag.Duration("duration", 6*time.Second, "measured run duration")
		warmup    = flag.Duration("warmup", 3*time.Second, "cache warmup duration before each measured phase")
		rps       = flag.Float64("rps", 25, "open-loop rate for the affinity comparison")
		conc      = flag.Int("c", 6, "closed-loop workers for the capacity comparison")
		note      = flag.String("note", "", "free-form annotation recorded in the artifact")
	)
	flag.Parse()
	if *serveBin == "" || *routerBin == "" {
		fmt.Fprintln(os.Stderr, "emts-routersmoke: -serve and -router are required")
		os.Exit(2)
	}
	h := &harness{
		serveBin:  *serveBin,
		routerBin: *routerBin,
		basePort:  *basePort,
		duration:  *duration,
		warmup:    *warmup,
		rps:       *rps,
		conc:      *conc,
	}
	if err := h.run(*out, *note); err != nil {
		fmt.Fprintln(os.Stderr, "emts-routersmoke:", err)
		os.Exit(1)
	}
}

// The workload: 12 structurally distinct random PTGs × 4 seeds = 48 response
// keys, against backends bounded at 32 response entries and 8 interned
// graphs.
const (
	graphList    = "random50,random51,random52,random53,random54,random55,random56,random57,random58,random59,random60,random61"
	seedsPerG    = 4
	algo         = "emts5"
	cacheEntries = 32
	graphLRU     = 8
	tableLRU     = 12
)

// artifact is the committed comparison record.
type artifact struct {
	Note         string  `json:"note,omitempty"`
	Workload     string  `json:"workload"`
	SeedsPerG    int     `json:"seeds_per_graph"`
	Algorithm    string  `json:"algorithm"`
	Backends     int     `json:"backends"`
	CacheEntries int     `json:"cache_entries_per_backend"`
	GraphLRU     int     `json:"graph_lru_per_backend"`
	TableLRU     int     `json:"table_lru_per_backend"`
	OpenRPS      float64 `json:"open_loop_rps"`
	ClosedConc   int     `json:"closed_loop_workers"`
	DurationSec  float64 `json:"duration_sec"`

	RouterOpen   loadgen.Summary `json:"router_open"`
	RoundRobin   loadgen.Summary `json:"roundrobin_open"`
	RouterClosed loadgen.Summary `json:"router_closed"`
	Single       loadgen.Summary `json:"single_closed"`

	AffinityGraphDelta float64 `json:"affinity_graph_delta_pct"` // router - rr
	AffinityCacheDelta float64 `json:"affinity_cache_delta_pct"`
	ThroughputRatio    float64 `json:"router_vs_single_rps_ratio"`
	ByteIdentical      bool    `json:"byte_identical"`
}

type harness struct {
	serveBin, routerBin string
	basePort            int
	duration, warmup    time.Duration
	rps                 float64
	conc                int
}

// workload is the request mix of every phase, in a closed loop of h.conc
// workers, and of the byte-identity corpus.
func (h *harness) workload() loadgen.Options {
	return loadgen.Options{
		Graphs: graphList, Seeds: seedsPerG, Seed: 1,
		Algo: algo, Model: "synthetic", Cluster: "chti",
		Conc: h.conc, Timeout: 2 * time.Minute,
	}
}

func (h *harness) run(outPath, note string) error {
	routerAddr := fmt.Sprintf("127.0.0.1:%d", h.basePort)
	backendAddrs := []string{
		fmt.Sprintf("127.0.0.1:%d", h.basePort+1),
		fmt.Sprintf("127.0.0.1:%d", h.basePort+2),
		fmt.Sprintf("127.0.0.1:%d", h.basePort+3),
	}

	art := artifact{
		Note:         note,
		Workload:     graphList,
		SeedsPerG:    seedsPerG,
		Algorithm:    algo,
		Backends:     len(backendAddrs),
		CacheEntries: cacheEntries,
		GraphLRU:     graphLRU,
		TableLRU:     tableLRU,
		OpenRPS:      h.rps,
		ClosedConc:   h.conc,
		DurationSec:  h.duration.Seconds(),
	}

	// Phase A: three fresh backends behind the router. Warm through the
	// router (each backend fills with its own shard), then measure the
	// open-loop affinity run and the closed-loop capacity run, then check
	// byte identity while the trio is still up.
	router := h.workload()
	router.URL = "http://" + routerAddr
	err := h.withBackends(backendAddrs, func() error {
		return h.withRouter(routerAddr, backendAddrs, func() error {
			if _, err := load(router, h.warmup, 0); err != nil {
				return fmt.Errorf("router warmup: %w", err)
			}
			var err error
			if art.RouterOpen, err = h.measure("router_open", router, h.rps); err != nil {
				return err
			}
			if art.RouterClosed, err = h.measure("router_closed", router, 0); err != nil {
				return err
			}
			ok, err := h.byteIdentity(routerAddr, backendAddrs)
			if err != nil {
				return err
			}
			art.ByteIdentical = ok
			return nil
		})
	})
	if err != nil {
		return err
	}

	// Phase B: a fresh trio swept round-robin with no router — the
	// no-affinity baseline. Warm the same way it is measured.
	direct := h.workload()
	direct.Direct = strings.Join(backendAddrs, ",")
	err = h.withBackends(backendAddrs, func() error {
		if _, err := load(direct, h.warmup, 0); err != nil {
			return fmt.Errorf("roundrobin warmup: %w", err)
		}
		var err error
		art.RoundRobin, err = h.measure("roundrobin_open", direct, h.rps)
		return err
	})
	if err != nil {
		return err
	}

	// Phase C: one fresh constrained backend under the same closed-loop
	// offered load — the scale-up denominator.
	single := h.workload()
	single.URL = "http://" + backendAddrs[0]
	err = h.withBackends(backendAddrs[:1], func() error {
		if _, err := load(single, h.warmup, 0); err != nil {
			return fmt.Errorf("single warmup: %w", err)
		}
		var err error
		art.Single, err = h.measure("single_closed", single, 0)
		return err
	})
	if err != nil {
		return err
	}

	art.AffinityGraphDelta = art.RouterOpen.InternGraphPct - art.RoundRobin.InternGraphPct
	art.AffinityCacheDelta = art.RouterOpen.CacheHitPct - art.RoundRobin.CacheHitPct
	if art.Single.AchievedRPS > 0 {
		art.ThroughputRatio = art.RouterClosed.AchievedRPS / art.Single.AchievedRPS
	}

	if err := gate(&art); err != nil {
		// Write the artifact even on gate failure: the numbers are the
		// diagnosis.
		writeArtifact(outPath, &art)
		return err
	}
	if err := writeArtifact(outPath, &art); err != nil {
		return err
	}
	fmt.Printf("routersmoke: affinity graph %+.1f%% cache %+.1f%%, throughput ratio %.2fx, byte-identical %v -> %s\n",
		art.AffinityGraphDelta, art.AffinityCacheDelta, art.ThroughputRatio, art.ByteIdentical, outPath)
	return nil
}

// gate enforces the scale-out tier's acceptance criteria.
func gate(art *artifact) error {
	var fails []string
	if art.RouterOpen.InternGraphPct <= art.RoundRobin.InternGraphPct {
		fails = append(fails, fmt.Sprintf("graph-intern hit rate: router %.1f%% <= roundrobin %.1f%%",
			art.RouterOpen.InternGraphPct, art.RoundRobin.InternGraphPct))
	}
	if art.RouterOpen.CacheHitPct <= art.RoundRobin.CacheHitPct {
		fails = append(fails, fmt.Sprintf("response-cache hit rate: router %.1f%% <= roundrobin %.1f%%",
			art.RouterOpen.CacheHitPct, art.RoundRobin.CacheHitPct))
	}
	if art.ThroughputRatio < 2 {
		fails = append(fails, fmt.Sprintf("throughput: router %.1f req/s < 2x single %.1f req/s",
			art.RouterClosed.AchievedRPS, art.Single.AchievedRPS))
	}
	if !art.ByteIdentical {
		fails = append(fails, "routed responses not byte-identical to direct")
	}
	for _, s := range []struct {
		name string
		sum  loadgen.Summary
	}{{"router_open", art.RouterOpen}, {"roundrobin_open", art.RoundRobin},
		{"router_closed", art.RouterClosed}, {"single_closed", art.Single}} {
		if n := fiveHundreds(s.sum.Codes); n > 0 {
			fails = append(fails, fmt.Sprintf("%s: %d 5xx responses", s.name, n))
		}
	}
	if len(art.RouterOpen.Instances) < 2 {
		fails = append(fails, fmt.Sprintf("routed traffic reached only %d backend(s)", len(art.RouterOpen.Instances)))
	}
	if len(fails) > 0 {
		return fmt.Errorf("gates failed:\n  %s", strings.Join(fails, "\n  "))
	}
	return nil
}

// fiveHundreds counts 5xx responses in a loadgen code map.
func fiveHundreds(codes map[string]int) int {
	keys := make([]string, 0, len(codes))
	for k := range codes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	n := 0
	for _, k := range keys {
		if c, err := strconv.Atoi(k); err == nil && c >= 500 && c < 600 {
			n += codes[k]
		}
	}
	return n
}

// measure runs one measured pass and prints its digest.
func (h *harness) measure(name string, o loadgen.Options, rps float64) (loadgen.Summary, error) {
	s, err := load(o, h.duration, rps)
	if err != nil {
		return s, fmt.Errorf("%s: %w", name, err)
	}
	fmt.Printf("routersmoke %s: %.1f req/s, cache %.1f%%, intern graph %.1f%% table %.1f%%, p50 %.1fms p95 %.1fms\n",
		name, s.AchievedRPS, s.CacheHitPct, s.InternGraphPct, s.InternTablePct, s.P50Ms, s.P95Ms)
	return s, nil
}

// load drives one pass of o for d, in an open loop at rps when rps > 0,
// and prints the load report to stdout, as emts-loadgen does.
func load(o loadgen.Options, d time.Duration, rps float64) (loadgen.Summary, error) {
	o.Duration, o.RPS = d, rps
	return loadgen.Run(os.Stdout, o)
}

// withBackends starts one constrained emts-serve per address, runs f, and
// tears them down (fresh caches per phase keep the comparison honest).
func (h *harness) withBackends(addrs []string, f func() error) error {
	var procs []*exec.Cmd
	stop := func() {
		for _, p := range procs {
			p.Process.Signal(syscall.SIGTERM)
		}
		for _, p := range procs {
			p.Wait()
		}
	}
	for i, addr := range addrs {
		cmd := exec.Command(h.serveBin,
			"-addr", addr, "-quiet",
			"-instance", fmt.Sprintf("b%d", i+1),
			"-cache", strconv.Itoa(cacheEntries),
			"-graph-entries", strconv.Itoa(graphLRU),
			"-table-entries", strconv.Itoa(tableLRU),
		)
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			stop()
			return fmt.Errorf("starting backend %s: %w", addr, err)
		}
		procs = append(procs, cmd)
	}
	for _, addr := range addrs {
		if err := waitReady("http://" + addr); err != nil {
			stop()
			return err
		}
	}
	err := f()
	stop()
	return err
}

// withRouter starts emts-router over the backends, runs f, tears it down.
func (h *harness) withRouter(addr string, backends []string, f func() error) error {
	cmd := exec.Command(h.routerBin,
		"-addr", addr,
		"-backends", strings.Join(backends, ","),
		"-health-interval", "250ms",
	)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("starting router: %w", err)
	}
	stop := func() {
		cmd.Process.Signal(syscall.SIGTERM)
		cmd.Wait()
	}
	if err := waitReady("http://" + addr); err != nil {
		stop()
		return err
	}
	err := f()
	stop()
	return err
}

// waitReady polls /readyz until 200.
func waitReady(base string) error {
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(200 * time.Millisecond)
	}
	return fmt.Errorf("%s never became ready", base)
}

// byteIdentity posts a sample corpus through the router and directly to
// every backend and compares bodies: the response is a pure function of the
// request, so all four answers must be equal.
func (h *harness) byteIdentity(routerAddr string, backendAddrs []string) (bool, error) {
	sample := h.workload()
	sample.Graphs, sample.Seeds = "random50,random55,random61", 2
	bodies, err := loadgen.Bodies(sample)
	if err != nil {
		return false, err
	}
	for i, body := range bodies {
		routed, code, err := postOnce("http://"+routerAddr, body)
		if err != nil || code != http.StatusOK {
			return false, fmt.Errorf("byte-identity %d via router: code %d err %v", i, code, err)
		}
		for _, addr := range backendAddrs {
			direct, code, err := postOnce("http://"+addr, body)
			if err != nil || code != http.StatusOK {
				return false, fmt.Errorf("byte-identity %d via %s: code %d err %v", i, addr, code, err)
			}
			if !bytes.Equal(routed, direct) {
				fmt.Fprintf(os.Stderr, "byte-identity %d: router and %s disagree\n", i, addr)
				return false, nil
			}
		}
	}
	return true, nil
}

func postOnce(base string, body []byte) ([]byte, int, error) {
	resp, err := http.Post(base+"/v1/schedule", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return b, resp.StatusCode, err
}

func writeArtifact(path string, art *artifact) error {
	b, err := json.MarshalIndent(art, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
