// Command emts-bench runs the repo's Go benchmarks and emits the results as
// machine-readable JSON, so perf numbers can be committed as artifacts
// (artifacts/BENCH_PR3.json) and diffed across commits instead of living in
// free-text logs.
//
// It shells out to `go test -run ^$ -bench <pattern> -benchmem` and parses
// the standard benchmark output: the header lines (goos/goarch/pkg/cpu), and
// one record per benchmark with iterations, ns/op, B/op, allocs/op, and any
// custom b.ReportMetric pairs (prefilter_reject_rate, ...). The report
// records the host (cpu, num_cpu) and GOMAXPROCS, and a "summary" section
// gives every benchmark's median and interquartile range of ns/op over the
// -count runs: the noise band any comparison must beat.
//
// With -baseline it embeds a previous report (for example one measured on
// the parent commit) and adds a "compare" section: for every benchmark
// measured in both, the two medians, their ratio, and whether the difference
// lies within the baseline's interquartile range.
//
// With -islands it additionally runs the island-count scaling benchmark
// (BenchmarkEMTSIslands) and distills the ns/generation metrics into an
// "islands" section — one point per island count with the per-island cost
// and the search-throughput ratio against the single population — so the
// island model's scaling (DESIGN.md §17) lands in the committed artifact
// (artifacts/BENCH_PR10.json).
//
// Usage:
//
//	emts-bench -bench 'EMTS5Instance$' -benchtime 1x
//	emts-bench -bench 'BenchmarkEMTS' -benchtime 2s -out artifacts/BENCH_PR3.json
//	emts-bench -bench 'EMTS(5|10)Instance$' -islands 1,2,4,8 -out artifacts/BENCH_PR10.json
//	emts-bench -bench 'EMTS(5|10)Instance$' -count 10 -baseline parent.json -out artifacts/BENCH_PR13.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

func main() {
	var (
		bench     = flag.String("bench", "BenchmarkEMTS", "benchmark regexp passed to go test -bench")
		benchtime = flag.String("benchtime", "1s", "go test -benchtime value (e.g. 1s, 100x)")
		count     = flag.Int("count", 1, "go test -count value")
		pkg       = flag.String("pkg", ".", "package to benchmark")
		out       = flag.String("out", "-", "output file, or - for stdout")
		islands   = flag.String("islands", "", "comma-separated island counts (e.g. 1,2,4,8): also run BenchmarkEMTSIslands and emit an islands scaling curve")
		note      = flag.String("note", "", "free-text annotation recorded in the report (host caveats, run conditions)")
		baseline  = flag.String("baseline", "", "previous emts-bench report to embed and compare against")
	)
	flag.Parse()
	if err := run(*bench, *benchtime, *count, *pkg, *out, *islands, *note, *baseline); err != nil {
		fmt.Fprintln(os.Stderr, "emts-bench:", err)
		os.Exit(1)
	}
}

func run(bench, benchtime string, count int, pkg, out, islands, note, baseline string) error {
	var base *Report
	if baseline != "" {
		raw, err := os.ReadFile(baseline)
		if err != nil {
			return err
		}
		base = &Report{}
		if err := json.Unmarshal(raw, base); err != nil {
			return fmt.Errorf("baseline %s: %w", baseline, err)
		}
		base.Summary = summarize(base.Benchmarks)
	}
	rep, err := goBench(bench, benchtime, count, pkg)
	if err != nil {
		return err
	}
	rep.Note = note
	rep.GOMAXPROCS, rep.NumCPU = runtime.GOMAXPROCS(0), runtime.NumCPU()
	if islands != "" {
		counts, err := parseIslandCounts(islands)
		if err != nil {
			return err
		}
		irep, err := goBench("^BenchmarkEMTSIslands$", benchtime, count, pkg)
		if err != nil {
			return fmt.Errorf("islands run: %w", err)
		}
		rep.Benchmarks = append(rep.Benchmarks, irep.Benchmarks...)
		rep.Islands, err = buildIslandCurve(irep.Benchmarks, counts)
		if err != nil {
			return err
		}
	}
	rep.Summary = summarize(rep.Benchmarks)
	if base != nil {
		rep.Baseline = base
		rep.Compare = compare(base.Summary, rep.Summary)
	}
	var w io.Writer = os.Stdout
	if out != "-" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// goBench runs one `go test -bench` invocation and parses its output.
func goBench(bench, benchtime string, count int, pkg string) (*Report, error) {
	cmd := exec.Command("go", "test", "-run", "^$",
		"-bench", bench, "-benchtime", benchtime,
		"-count", strconv.Itoa(count), "-benchmem", pkg)
	cmd.Stderr = os.Stderr
	raw, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go test: %w", err)
	}
	return parseBench(strings.NewReader(string(raw)))
}

// Report is the JSON document: the benchmark environment plus one record per
// benchmark line, in output order.
type Report struct {
	GoOS       string      `json:"goos,omitempty"`
	GoArch     string      `json:"goarch,omitempty"`
	Pkg        string      `json:"pkg,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	NumCPU     int         `json:"num_cpu,omitempty"`
	GOMAXPROCS int         `json:"gomaxprocs,omitempty"`
	Note       string      `json:"note,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
	// Summary has one entry per benchmark name, in first-seen order.
	Summary []Summary `json:"summary,omitempty"`
	// Islands is the island-count scaling curve (one point per island
	// count), present only with -islands.
	Islands []IslandPoint `json:"islands,omitempty"`
	// Baseline is the -baseline report, embedded with its summary; Compare
	// sets this report against it.
	Baseline *Report      `json:"baseline,omitempty"`
	Compare  []Comparison `json:"compare,omitempty"`
}

// Summary is the distribution of one benchmark over its runs: the median and
// quartiles of ns/op, the interquartile range as a percentage of the median
// (the run-to-run noise band), and the medians of B/op and allocs/op.
type Summary struct {
	Name              string  `json:"name"`
	Runs              int     `json:"runs"`
	MedianNsPerOp     float64 `json:"median_ns_per_op"`
	Q1NsPerOp         float64 `json:"q1_ns_per_op"`
	Q3NsPerOp         float64 `json:"q3_ns_per_op"`
	IQRPct            float64 `json:"iqr_pct"`
	MedianBytesPerOp  float64 `json:"median_bytes_per_op"`
	MedianAllocsPerOp float64 `json:"median_allocs_per_op"`
}

// Comparison sets one benchmark's median against the baseline's. Ratio is
// median / baseline median; WithinNoise reports whether the two medians are
// at most the baseline's interquartile range apart.
type Comparison struct {
	Name                string  `json:"name"`
	BaselineMedianNs    float64 `json:"baseline_median_ns_per_op"`
	MedianNs            float64 `json:"median_ns_per_op"`
	Ratio               float64 `json:"ratio"`
	BaselineIQRPct      float64 `json:"baseline_iqr_pct"`
	WithinNoise         bool    `json:"within_noise"`
	BaselineBytesPerOp  float64 `json:"baseline_median_bytes_per_op"`
	BytesPerOp          float64 `json:"median_bytes_per_op"`
	BaselineAllocsPerOp float64 `json:"baseline_median_allocs_per_op"`
	AllocsPerOp         float64 `json:"median_allocs_per_op"`
}

// summarize groups benchmark records by name and summarizes each group.
func summarize(benchmarks []Benchmark) []Summary {
	var names []string
	byName := map[string][]Benchmark{}
	for _, b := range benchmarks {
		if _, ok := byName[b.Name]; !ok {
			names = append(names, b.Name)
		}
		byName[b.Name] = append(byName[b.Name], b)
	}
	out := make([]Summary, 0, len(names))
	for _, name := range names {
		var ns, bytes, allocs []float64
		for _, b := range byName[name] {
			ns = append(ns, b.NsPerOp)
			bytes = append(bytes, b.BytesPerOp)
			allocs = append(allocs, b.AllocsPerOp)
		}
		s := Summary{
			Name:              name,
			Runs:              len(ns),
			MedianNsPerOp:     quantile(ns, 0.5),
			Q1NsPerOp:         quantile(ns, 0.25),
			Q3NsPerOp:         quantile(ns, 0.75),
			MedianBytesPerOp:  quantile(bytes, 0.5),
			MedianAllocsPerOp: quantile(allocs, 0.5),
		}
		if s.MedianNsPerOp > 0 {
			s.IQRPct = 100 * (s.Q3NsPerOp - s.Q1NsPerOp) / s.MedianNsPerOp
		}
		out = append(out, s)
	}
	return out
}

// quantile is the p-quantile of xs, interpolating linearly between order
// statistics. It sorts xs in place.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	h := p * float64(len(xs)-1)
	lo := int(h)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (h-float64(lo))*(xs[lo+1]-xs[lo])
}

// compare sets every summary that the baseline also has against it.
func compare(base, cur []Summary) []Comparison {
	byName := map[string]Summary{}
	for _, s := range base {
		byName[s.Name] = s
	}
	var out []Comparison
	for _, s := range cur {
		b, ok := byName[s.Name]
		if !ok || b.MedianNsPerOp == 0 {
			continue
		}
		diff := s.MedianNsPerOp - b.MedianNsPerOp
		if diff < 0 {
			diff = -diff
		}
		out = append(out, Comparison{
			Name:                s.Name,
			BaselineMedianNs:    b.MedianNsPerOp,
			MedianNs:            s.MedianNsPerOp,
			Ratio:               s.MedianNsPerOp / b.MedianNsPerOp,
			BaselineIQRPct:      b.IQRPct,
			WithinNoise:         diff <= b.Q3NsPerOp-b.Q1NsPerOp,
			BaselineBytesPerOp:  b.MedianBytesPerOp,
			BytesPerOp:          s.MedianBytesPerOp,
			BaselineAllocsPerOp: b.MedianAllocsPerOp,
			AllocsPerOp:         s.MedianAllocsPerOp,
		})
	}
	return out
}

// IslandPoint is one island count of the scaling curve. A generation of an
// N-island run advances all N populations (N×λ offspring), so
// per_island_ns_per_generation is the amortized cost of one population step
// and throughput_vs_single = N × ns_gen(1) / ns_gen(N) is the search-
// throughput ratio against the classic single population: ≈N when the
// islands fully hide behind spare cores, ≈1 on a single core (parity —
// islands then cost exactly their extra work).
type IslandPoint struct {
	Islands            int     `json:"islands"`
	NsPerOp            float64 `json:"ns_per_op"`
	NsPerGeneration    float64 `json:"ns_per_generation"`
	PerIslandNsPerGen  float64 `json:"per_island_ns_per_generation"`
	ThroughputVsSingle float64 `json:"throughput_vs_single"`
}

// parseIslandCounts parses the -islands flag value.
func parseIslandCounts(s string) ([]int, error) {
	var counts []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad island count %q in -islands", part)
		}
		counts = append(counts, n)
	}
	sort.Ints(counts)
	return counts, nil
}

// buildIslandCurve distills BenchmarkEMTSIslands sub-benchmark results
// (BenchmarkEMTSIslands/islands4-8 etc., each reporting an "ns/generation"
// metric) into one IslandPoint per requested count. A requested count with
// no measurement is an error, not a silent gap; the curve needs islands=1 as
// the throughput baseline.
func buildIslandCurve(benchmarks []Benchmark, counts []int) ([]IslandPoint, error) {
	type meas struct{ nsPerOp, nsPerGen float64 }
	byCount := map[int]meas{}
	for _, b := range benchmarks {
		rest, ok := strings.CutPrefix(b.Name, "BenchmarkEMTSIslands/islands")
		if !ok {
			continue
		}
		// Strip the -<procs> suffix go test appends for GOMAXPROCS>1.
		if i := strings.IndexByte(rest, '-'); i >= 0 {
			rest = rest[:i]
		}
		n, err := strconv.Atoi(rest)
		if err != nil {
			return nil, fmt.Errorf("unrecognized islands benchmark name %q", b.Name)
		}
		ns, ok := b.Metrics["ns/generation"]
		if !ok {
			return nil, fmt.Errorf("islands benchmark %q reported no ns/generation metric", b.Name)
		}
		byCount[n] = meas{nsPerOp: b.NsPerOp, nsPerGen: ns}
	}
	single, ok := byCount[1]
	if !ok {
		return nil, fmt.Errorf("islands curve needs the islands1 baseline measurement")
	}
	curve := make([]IslandPoint, 0, len(counts))
	for _, n := range counts {
		m, ok := byCount[n]
		if !ok {
			return nil, fmt.Errorf("island count %d requested but not measured", n)
		}
		curve = append(curve, IslandPoint{
			Islands:            n,
			NsPerOp:            m.nsPerOp,
			NsPerGeneration:    m.nsPerGen,
			PerIslandNsPerGen:  m.nsPerGen / float64(n),
			ThroughputVsSingle: float64(n) * single.nsPerGen / m.nsPerGen,
		})
	}
	return curve, nil
}

// Benchmark is one parsed benchmark result line.
type Benchmark struct {
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	// Metrics holds b.ReportMetric pairs keyed by unit, e.g.
	// "prefilter_reject_rate" or "ns/generation".
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// parseBench parses `go test -bench` output. Lines it does not recognize
// (PASS, ok, blank) are skipped; malformed Benchmark lines are an error so
// silent truncation cannot masquerade as a clean run.
func parseBench(r io.Reader) (*Report, error) {
	rep := &Report{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			rep.GoOS = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
			continue
		case strings.HasPrefix(line, "goarch:"):
			rep.GoArch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
			continue
		case strings.HasPrefix(line, "pkg:"):
			rep.Pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
			continue
		case strings.HasPrefix(line, "cpu:"):
			rep.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
			continue
		case !strings.HasPrefix(line, "Benchmark"):
			continue
		}
		b, err := parseBenchLine(line)
		if err != nil {
			return nil, err
		}
		rep.Benchmarks = append(rep.Benchmarks, b)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(rep.Benchmarks) == 0 {
		return nil, fmt.Errorf("no benchmark lines found")
	}
	return rep, nil
}

// parseBenchLine parses one result line:
//
//	BenchmarkEMTS5Instance  195  6073383 ns/op  0.9154 prefilter_reject_rate  368208 B/op  947 allocs/op
//
// i.e. name, iteration count, then (value, unit) pairs. The -<procs> suffix
// go test appends for GOMAXPROCS>1 is kept as part of the name.
func parseBenchLine(line string) (Benchmark, error) {
	f := strings.Fields(line)
	if len(f) < 4 || len(f)%2 != 0 {
		return Benchmark{}, fmt.Errorf("malformed benchmark line: %q", line)
	}
	iters, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return Benchmark{}, fmt.Errorf("bad iteration count in %q: %w", line, err)
	}
	b := Benchmark{Name: f[0], Iterations: iters}
	for i := 2; i < len(f); i += 2 {
		val, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return Benchmark{}, fmt.Errorf("bad value %q in %q: %w", f[i], line, err)
		}
		switch unit := f[i+1]; unit {
		case "ns/op":
			b.NsPerOp = val
		case "B/op":
			b.BytesPerOp = val
		case "allocs/op":
			b.AllocsPerOp = val
		case "MB/s":
			// throughput is not meaningful for these benchmarks; skip
		default:
			if b.Metrics == nil {
				b.Metrics = map[string]float64{}
			}
			b.Metrics[unit] = val
		}
	}
	return b, nil
}
