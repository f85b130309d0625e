// Command emts-loadgen is a load generator for emts-serve: it replays
// generated FFT, Strassen, and DAGGEN-style random PTGs against the
// /v1/schedule endpoint and reports throughput and latency percentiles.
// The load generation itself lives in internal/loadgen, which
// emts-routersmoke runs too.
//
// Usage:
//
//	emts-loadgen [-url http://localhost:8080] [-direct addr1,addr2,...]
//	             [-c 4] [-duration 10s]
//	             [-graphs fft8,strassen,random50] [-algo emts5]
//	             [-model synthetic] [-cluster chti] [-seeds 8] [-seed 1]
//	             [-islands 0] [-rps 0] [-jobs] [-cancel-at 0] [-json file]
//
// The default mode is closed-loop: each of the c workers keeps exactly one
// request in flight, so offered load adapts to service capacity instead of
// overrunning it. Seeds vary across requests (-seeds distinct values), which
// controls the server's response-cache hit rate: -seeds 1 measures pure cache
// service, large values measure pure compute.
//
// -rps R switches to open-loop mode: requests are dispatched at fixed
// scheduled instants R per second regardless of how the previous ones fare,
// and every latency is measured from the request's *scheduled* start, not its
// actual send — so a stalled server inflates the percentiles instead of
// silently throttling the generator (the coordinated-omission trap of closed
// loops). The report states offered vs achieved rate. Achieved counts the
// requests over the measured window, from the first send to the last
// completion (in both modes), so a gap means the server (or the client host)
// could not keep up.
//
// -direct addr1,addr2,... replaces -url with a round-robin sweep over
// several backends — the no-affinity baseline the routing tier (emts-router)
// is measured against: every backend sees the whole working set, so bounded
// caches thrash where digest routing would keep them hot. The report's
// interned/cache hit rates and per-instance counts (X-Emts-Instance) make
// the comparison directly readable.
//
// -jobs switches to the async job API: each worker submits POST /v1/jobs
// (unique seed per submission, so the idempotency key never dedups),
// subscribes to the job's SSE event stream, counts per-generation progress
// events, and fetches the final result. With -cancel-at G every second job
// is cancelled (DELETE) once its stream reaches generation G, exercising the
// anytime path: the report counts how many cancelled jobs returned an
// incumbent whose makespan equals the last streamed best_makespan
// (anytime_ok), and how many completed jobs streamed exactly one generation
// event per generation in the final result (sse_match/sse_mismatch).
//
// -islands N stamps the island-model EA parameter into every generated
// request (see README "Parallel search"); the JSON summary echoes the setting
// and the total EA generations the successful responses reported, so a bench
// harness can compare throughput across island counts.
//
// -json FILE additionally writes the machine-readable summary to FILE
// ("-" = stdout) for benchmark harnesses and CI gates.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"emts/internal/loadgen"
)

func main() {
	var o loadgen.Options
	flag.StringVar(&o.URL, "url", "http://localhost:8080", "server base URL (router or single backend)")
	flag.StringVar(&o.Direct, "direct", "", "comma-separated backend addresses swept round-robin (overrides -url)")
	flag.IntVar(&o.Conc, "c", 4, "concurrent closed-loop workers")
	flag.DurationVar(&o.Duration, "duration", 10*time.Second, "test duration")
	flag.StringVar(&o.Graphs, "graphs", "fft8,strassen,random50", "comma-separated workloads: fftN, strassen, randomN")
	flag.StringVar(&o.Algo, "algo", "emts5", "algorithm to request")
	flag.StringVar(&o.Model, "model", "synthetic", "execution-time model to request")
	flag.StringVar(&o.Cluster, "cluster", "chti", "cluster preset (chti, grelon)")
	flag.IntVar(&o.Seeds, "seeds", 8, "distinct request seeds per workload (1 = all cache hits after warmup)")
	flag.Int64Var(&o.Seed, "seed", 1, "base seed for graph generation and request seeds")
	flag.IntVar(&o.Islands, "islands", 0, "islands stamped into every request (0 = classic single population)")
	flag.DurationVar(&o.Timeout, "timeout", time.Minute, "per-request client timeout")
	flag.Float64Var(&o.RPS, "rps", 0, "open-loop fixed request rate (0 = closed loop with -c workers)")
	jsonOut := flag.String("json", "", "also write the summary as JSON to this file (\"-\" = stdout)")
	flag.BoolVar(&o.Jobs, "jobs", false, "exercise the async job API (submit, SSE subscribe, result) instead of /v1/schedule")
	flag.IntVar(&o.CancelAt, "cancel-at", 0, "with -jobs: cancel every second job once its SSE stream reaches this generation (0 = never)")
	flag.Parse()
	if err := run(os.Stdout, o, *jsonOut); err != nil {
		fmt.Fprintln(os.Stderr, "emts-loadgen:", err)
		os.Exit(1)
	}
}

// run drives one load run, printing its report to out, and writes the
// summary to jsonOut ("" = nowhere, "-" = out).
func run(out io.Writer, o loadgen.Options, jsonOut string) error {
	s, err := loadgen.Run(out, o)
	if err != nil || jsonOut == "" {
		return err
	}
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	if jsonOut == "-" {
		_, err = out.Write(b)
	} else {
		err = os.WriteFile(jsonOut, b, 0o644)
	}
	if err != nil {
		return fmt.Errorf("writing -json summary: %w", err)
	}
	return nil
}
