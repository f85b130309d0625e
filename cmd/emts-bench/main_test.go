package main

import (
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: emts
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkEMTS5Instance  	     195	   6073383 ns/op	         0.007692 cache_hit_rate	         0.9154 prefilter_reject_rate	  368208 B/op	     947 allocs/op
BenchmarkEMTS5InstanceNoCache     	     142	   7215356 ns/op	 1870436 B/op	    2079 allocs/op
PASS
ok  	emts	12.637s
`

func TestParseBench(t *testing.T) {
	rep, err := parseBench(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if rep.GoOS != "linux" || rep.GoArch != "amd64" || rep.Pkg != "emts" {
		t.Errorf("header = %q/%q/%q", rep.GoOS, rep.GoArch, rep.Pkg)
	}
	if !strings.Contains(rep.CPU, "Xeon") {
		t.Errorf("cpu = %q", rep.CPU)
	}
	if len(rep.Benchmarks) != 2 {
		t.Fatalf("got %d benchmarks, want 2", len(rep.Benchmarks))
	}
	b := rep.Benchmarks[0]
	if b.Name != "BenchmarkEMTS5Instance" || b.Iterations != 195 {
		t.Errorf("first = %q/%d", b.Name, b.Iterations)
	}
	if b.NsPerOp != 6073383 || b.BytesPerOp != 368208 || b.AllocsPerOp != 947 {
		t.Errorf("first numbers = %v %v %v", b.NsPerOp, b.BytesPerOp, b.AllocsPerOp)
	}
	if b.Metrics["cache_hit_rate"] != 0.007692 || b.Metrics["prefilter_reject_rate"] != 0.9154 {
		t.Errorf("metrics = %v", b.Metrics)
	}
	if m := rep.Benchmarks[1].Metrics; m != nil {
		t.Errorf("second benchmark should have no custom metrics, got %v", m)
	}
}

func TestParseBenchRejectsMalformed(t *testing.T) {
	for _, in := range []string{
		"PASS\nok\temts\t1s\n", // no benchmark lines at all
		"BenchmarkX 12 34\n",   // odd field count: value without unit
		"BenchmarkX notanint 34 ns/op\n",
		"BenchmarkX 12 nan/op ns/op extra B/op\n",
	} {
		if _, err := parseBench(strings.NewReader(in)); err == nil {
			t.Errorf("parseBench(%q) succeeded, want error", in)
		}
	}
}

func TestParseBenchKeepsProcSuffix(t *testing.T) {
	rep, err := parseBench(strings.NewReader("BenchmarkEMTS5Instance-8 100 5000 ns/op\n"))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Benchmarks[0].Name != "BenchmarkEMTS5Instance-8" {
		t.Errorf("name = %q", rep.Benchmarks[0].Name)
	}
}

func TestBuildIslandCurve(t *testing.T) {
	benchmarks := []Benchmark{
		{Name: "BenchmarkEMTSIslands/islands1-8", NsPerOp: 3e6, Metrics: map[string]float64{"ns/generation": 6e5}},
		{Name: "BenchmarkEMTSIslands/islands2-8", NsPerOp: 3.2e6, Metrics: map[string]float64{"ns/generation": 6.4e5}},
		{Name: "BenchmarkEMTSIslands/islands4-8", NsPerOp: 3.5e6, Metrics: map[string]float64{"ns/generation": 7e5}},
	}
	curve, err := buildIslandCurve(benchmarks, []int{1, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(curve) != 3 {
		t.Fatalf("got %d points, want 3", len(curve))
	}
	p := curve[2]
	if p.Islands != 4 || p.NsPerGeneration != 7e5 || p.PerIslandNsPerGen != 7e5/4 {
		t.Errorf("islands4 point = %+v", p)
	}
	if want := 4 * 6e5 / 7e5; p.ThroughputVsSingle != want {
		t.Errorf("throughput_vs_single = %v, want %v", p.ThroughputVsSingle, want)
	}

	// A requested-but-unmeasured count and a missing baseline are errors.
	if _, err := buildIslandCurve(benchmarks, []int{1, 8}); err == nil {
		t.Error("unmeasured count accepted")
	}
	if _, err := buildIslandCurve(benchmarks[1:], []int{2, 4}); err == nil {
		t.Error("missing islands1 baseline accepted")
	}
}

func TestParseIslandCounts(t *testing.T) {
	counts, err := parseIslandCounts("4, 1,2")
	if err != nil {
		t.Fatal(err)
	}
	if len(counts) != 3 || counts[0] != 1 || counts[2] != 4 {
		t.Errorf("counts = %v", counts)
	}
	for _, bad := range []string{"", "0", "x", "1,,2"} {
		if _, err := parseIslandCounts(bad); err == nil {
			t.Errorf("parseIslandCounts(%q) succeeded, want error", bad)
		}
	}
}

func TestSummarizeAndCompare(t *testing.T) {
	var base, cur []Benchmark
	for i, ns := range []float64{10, 14, 11, 13, 12} {
		base = append(base, Benchmark{Name: "BenchmarkA-2", NsPerOp: ns, AllocsPerOp: float64(100 + i)})
		cur = append(cur, Benchmark{Name: "BenchmarkA-2", NsPerOp: ns + 0.5, AllocsPerOp: 50})
	}
	base = append(base, Benchmark{Name: "BenchmarkGone-2", NsPerOp: 7})
	cur = append(cur, Benchmark{Name: "BenchmarkSlow-2", NsPerOp: 9})

	bs := summarize(base)
	if len(bs) != 2 || bs[0].Name != "BenchmarkA-2" || bs[0].Runs != 5 {
		t.Fatalf("summary = %+v", bs)
	}
	a := bs[0]
	if a.MedianNsPerOp != 12 || a.Q1NsPerOp != 11 || a.Q3NsPerOp != 13 || a.MedianAllocsPerOp != 102 {
		t.Errorf("A summary = %+v", a)
	}
	if want := 100 * 2.0 / 12; a.IQRPct != want {
		t.Errorf("iqr_pct = %v, want %v", a.IQRPct, want)
	}

	cmp := compare(bs, summarize(cur))
	if len(cmp) != 1 || cmp[0].Name != "BenchmarkA-2" {
		t.Fatalf("compare = %+v: only benchmarks measured on both sides are compared", cmp)
	}
	if c := cmp[0]; c.Ratio != 12.5/12 || !c.WithinNoise || c.BaselineAllocsPerOp != 102 || c.AllocsPerOp != 50 {
		t.Errorf("comparison = %+v", c)
	}
	far := compare(bs, []Summary{{Name: "BenchmarkA-2", MedianNsPerOp: 9}})
	if far[0].WithinNoise {
		t.Errorf("a 3ns shift against a 2ns IQR reported within noise: %+v", far[0])
	}
}

func TestQuantileInterpolates(t *testing.T) {
	if got := quantile([]float64{4, 1, 3, 2}, 0.5); got != 2.5 {
		t.Errorf("median of 1..4 = %v, want 2.5", got)
	}
	if got := quantile([]float64{7}, 0.25); got != 7 {
		t.Errorf("quantile of one value = %v", got)
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of no values = %v", got)
	}
}
