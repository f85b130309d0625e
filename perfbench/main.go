// Command perfbench is the repository's benchmark. It runs one workload per
// invocation against the EMTS library and the emts-serve handler, both
// linked in from the checkout's sources, checks every output, and prints the
// workload's metrics as the last line of standard output:
//
//	{"correct": true, "attempted": 3000, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// same op sequence runs once untraced and once traced, and the metrics are
// the per-layer ones computed from the traced spans, which are also written
// to .bench_build/traces/. --steady N runs a workload N times with consecutive seeds
// in child processes and prints the median and quartiles of every metric.
// See README.md in this directory for the workloads and what each metric
// predicts; run.sh builds and runs it.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"emts/internal/core"
)

// processStart is taken when the package initializes, right after the
// runtime: set-up time counts from here.
var processStart = time.Now()

// setupReps is how often a run repeats its set-up; setup_s is the median.
const setupReps = 5

type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run, in print order.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p95_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"peak_rss_mb", "MiB"},
	{"rel_makespan_mcpa", "ratio"},
}

// perLayer are the metrics of a traced run. A layer a workload does not
// exercise in its timed window reports 0.
var perLayer = []metricDef{
	{"alloc.seed_ms", "ms"},
	{"model.table_ms", "ms"},
	{"ea.first_gen_ms", "ms"},
	{"ea.gen_ms", "ms"},
	{"ea.evals_per_s", "1/s"},
	{"core.final_map_ms", "ms"},
	{"listsched.map_us", "us"},
	{"ea.evals_per_op", "count"},
	{"ea.generations_per_op", "count"},
	{"ea.prefilter_reject_ratio", "ratio"},
	{"ea.reject_ratio", "ratio"},
	{"ea.memo_hit_ratio", "ratio"},
	{"server.compute_ms", "ms"},
	{"server.overhead_ms", "ms"},
	{"server.cache_hit_ratio", "ratio"},
	{"intern.graph_hit_ratio", "ratio"},
	{"intern.table_hit_ratio", "ratio"},
	{"evalpool.hit_ratio", "ratio"},
	{"server.governor_busy_tokens", "tokens"},
	{"server.queue_depth_max", "count"},
	{"server.resp_kb", "KiB"},
	{"loadgen.late_ms_p95", "ms"},
	{"host.steal_pct", "%"},
	{"trace.overhead_pct", "%"},
}

var workloads = map[string]func(config) (*outcome, error){
	"lib-emts10-reject": runLib,
	"serve-unique":      runServeUnique,
	"serve-repeat":      runServeRepeat,
}

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	nproc    int
	traceOut string
}

// outcome is what a workload reports.
type outcome struct {
	attempted, failed int
	firstErr          error
	metrics           map[string]float64
}

// fail counts a failed, refused or wrong op.
func (o *outcome) fail(err error) {
	o.failed++
	if o.firstErr == nil {
		o.firstErr = err
	}
}

// timed is one timed window over an op sequence.
type timed struct {
	lat     []time.Duration // per attempted op
	done    []time.Duration // per attempted op: completion, from window start
	relSum  float64         // Σ MCPA makespan / returned makespan
	rels    int
	win     windowResult
	rssMB   float64
	results []*core.Result // per op, traced library windows only
}

// slices is the number of equal parts of a window in which throughput and
// latency percentiles are computed; each metric is the median over the
// parts, so a burst of host steal in one part cannot move it.
const slices = 10

func (t *timed) throughput() float64 { return float64(len(t.lat)) / t.win.elapsed.Seconds() }

func (t *timed) setEndToEnd(m map[string]float64, setupS float64) {
	var thr, p50, p95 []float64
	part := t.win.elapsed / slices
	byPart := make([][]time.Duration, slices)
	for k, d := range t.done {
		s := min(int(d/part), slices-1)
		byPart[s] = append(byPart[s], t.lat[k])
	}
	for _, lat := range byPart {
		if len(lat) > 0 {
			thr = append(thr, float64(len(lat))/part.Seconds())
			p50 = append(p50, percentile(lat, 0.50))
			p95 = append(p95, percentile(lat, 0.95))
		}
	}
	m["setup_s"] = setupS
	m["throughput_per_s"] = median(thr)
	m["latency_p50_ms"] = median(p50)
	m["latency_p95_ms"] = median(p95)
	m["cpu_ms_per_op"] = ms(t.win.cpu) / float64(len(t.lat))
	m["peak_rss_mb"] = t.rssMB
	if t.rels > 0 {
		m["rel_makespan_mcpa"] = t.relSum / float64(t.rels)
	}
}

// setupMedian prints every set-up time of the run and returns their median.
func setupMedian(setups []float64) float64 {
	fmt.Printf("setup runs (s): %.4f\n", setups)
	return median(setups)
}

// snapshot copies the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

func main() { os.Exit(run()) }

func run() int {
	var (
		cfg    config
		trace  int
		steady int
	)
	flag.StringVar(&cfg.workload, "workload", "", "workload: lib-emts10-reject, serve-unique, serve-repeat (or all with --steady)")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the workload's generated inputs")
	flag.IntVar(&cfg.seconds, "seconds", 20, "nominal length of the timed window in seconds")
	flag.IntVar(&trace, "trace", 0, "1 = report per-layer metrics from a traced run")
	flag.IntVar(&steady, "steady", 0, "run the workload this many times with consecutive seeds and report quartiles")
	flag.Parse()
	cfg.trace = trace == 1
	cfg.nproc = runtime.NumCPU()
	if cfg.seconds < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be at least 1")
		return 2
	}
	if steady > 0 {
		return steadiness(cfg, trace, steady)
	}
	fn, ok := workloads[cfg.workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", cfg.workload)
		return 2
	}
	cfg.traceOut = fmt.Sprintf(".bench_build/traces/%s-seed%d.jsonl", cfg.workload, cfg.seed)
	fmt.Printf("host: nproc=%d gomaxprocs=%d cpu=%q go=%s workload=%s seed=%d seconds=%d trace=%d\n",
		cfg.nproc, runtime.GOMAXPROCS(0), cpuModel(), runtime.Version(), cfg.workload, cfg.seed, cfg.seconds, trace)

	out, err := fn(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(defs))
	for _, d := range defs {
		v := out.metrics[d.name]
		metrics[d.name] = value{v, d.unit}
		fmt.Printf("%-28s %14.6g %s\n", d.name, v, d.unit)
	}
	failPct := 0.0
	if out.attempted > 0 {
		failPct = 100 * float64(out.failed) / float64(out.attempted)
	}
	fmt.Printf("%-28s %14.6g %%\n", "fail_pct", failPct)
	if out.firstErr != nil {
		fmt.Println("first failure:", out.firstErr)
	}
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{out.failed == 0 && out.attempted > 0, out.attempted, out.failed, metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(b))
	return 0
}

// steadiness runs each selected workload n times in child processes, seeds
// cfg.seed … cfg.seed+n-1, and prints every metric's median, quartiles and
// interquartile spread as a share of the median.
func steadiness(cfg config, trace, n int) int {
	names := []string{cfg.workload}
	if cfg.workload == "all" {
		names = []string{"lib-emts10-reject", "serve-unique", "serve-repeat"}
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	status := 0
	for _, w := range names {
		if _, ok := workloads[w]; !ok {
			fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", w)
			return 2
		}
		values := map[string][]float64{}
		for i := 0; i < n; i++ {
			seed := cfg.seed + int64(i)
			cmd := exec.Command(self, "--workload", w, "--seed", strconv.FormatInt(seed, 10),
				"--seconds", strconv.Itoa(cfg.seconds), "--trace", strconv.Itoa(trace))
			cmd.Stderr = os.Stderr
			stdout, err := cmd.Output()
			if err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %v\n", w, seed, err)
				return 1
			}
			var res struct {
				Correct bool `json:"correct"`
				Metrics map[string]struct {
					Value float64 `json:"value"`
				} `json:"metrics"`
			}
			if err := json.Unmarshal(lastLine(stdout), &res); err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %v\n", w, seed, err)
				return 1
			}
			if !res.Correct {
				fmt.Printf("%s seed %d: outputs NOT correct\n", w, seed)
				status = 1
			}
			for k, v := range res.Metrics {
				values[k] = append(values[k], v.Value)
			}
			fmt.Fprintf(os.Stderr, "%s seed %d done\n", w, seed)
		}
		keys := make([]string, 0, len(values))
		for k := range values {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Printf("%s: %d runs, seeds %d..%d, %ds windows\n", w, n, cfg.seed, cfg.seed+int64(n)-1, cfg.seconds)
		fmt.Printf("  %-28s %12s %12s %12s %8s\n", "metric", "q1", "median", "q3", "spread")
		for _, k := range keys {
			q1, med, q3 := quartiles(values[k])
			spread := 0.0
			if med != 0 {
				spread = 100 * (q3 - q1) / med
			}
			fmt.Printf("  %-28s %12.6g %12.6g %12.6g %7.2f%%\n", k, q1, med, q3, spread)
		}
	}
	return status
}

// lastLine returns the last non-empty line of b.
func lastLine(b []byte) []byte {
	sc := bufio.NewScanner(bytes.NewReader(b))
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	var last []byte
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			last = []byte(line)
		}
	}
	return last
}
