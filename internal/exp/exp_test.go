package exp

import (
	"math"
	"strings"
	"testing"

	"emts/internal/platform"
)

func TestFFTWorkloadCounts(t *testing.T) {
	w, err := FFTWorkload(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Graphs) != 8 {
		t.Fatalf("%d graphs, want 8 (2 per size)", len(w.Graphs))
	}
	sizes := map[int]int{}
	for _, g := range w.Graphs {
		sizes[g.NumTasks()]++
	}
	for _, n := range []int{5, 15, 39, 95} {
		if sizes[n] != 2 {
			t.Fatalf("size histogram %v", sizes)
		}
	}
}

func TestStrassenWorkload(t *testing.T) {
	w, err := StrassenWorkload(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Graphs) != 3 {
		t.Fatalf("%d graphs", len(w.Graphs))
	}
	for _, g := range w.Graphs {
		if g.NumTasks() != 23 {
			t.Fatalf("%d tasks", g.NumTasks())
		}
	}
	// Same shape, different costs.
	if w.Graphs[0].Task(3).Flops == w.Graphs[1].Task(3).Flops {
		t.Fatal("instances share costs")
	}
}

func TestLayeredAndIrregularWorkloadCounts(t *testing.T) {
	l, err := LayeredWorkload(100, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(l.Graphs) != 12 { // 3 widths * 2 regs * 2 densities
		t.Fatalf("layered: %d graphs, want 12", len(l.Graphs))
	}
	ir, err := IrregularWorkload(100, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(ir.Graphs) != 36 { // 12 combos * 3 jumps
		t.Fatalf("irregular: %d graphs, want 36", len(ir.Graphs))
	}
	for _, g := range append(l.Graphs, ir.Graphs...) {
		if g.NumTasks() != 100 {
			t.Fatalf("%d tasks, want 100", g.NumTasks())
		}
	}
}

func TestPaperWorkloadsFullScaleCounts(t *testing.T) {
	ws, err := PaperWorkloads(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int{
		"FFT": 400, "Strassen": 100, "layered n=100": 36, "irregular n=100": 108,
	}
	for _, w := range ws {
		if len(w.Graphs) != want[w.Name] {
			t.Fatalf("%s: %d graphs, want %d", w.Name, len(w.Graphs), want[w.Name])
		}
	}
	if _, err := PaperWorkloads(0, 1); err == nil {
		t.Fatal("scale 0 accepted")
	}
	if _, err := PaperWorkloads(1.5, 1); err == nil {
		t.Fatal("scale > 1 accepted")
	}
}

func TestFigure1Shape(t *testing.T) {
	r, err := Figure1(32)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Series) != 2 {
		t.Fatalf("%d series", len(r.Series))
	}
	for _, s := range r.Series {
		if !s.NonMonotonic() {
			t.Fatalf("series %d is monotonic — figure 1's point is lost", s.MatrixSize)
		}
		// Spikes at odd processor counts: T(5) > T(4) (1.3 penalty).
		if s.Times[4] <= s.Times[3] {
			t.Fatalf("size %d: no odd-count spike at p=5", s.MatrixSize)
		}
		// Large-p times still well below sequential (the task scales).
		if s.Times[31] >= s.Times[0] {
			t.Fatalf("size %d: no speedup at 32 procs", s.MatrixSize)
		}
	}
	// The larger matrix takes longer at every p.
	for p := 0; p < 32; p++ {
		if r.Series[1].Times[p] <= r.Series[0].Times[p] {
			t.Fatal("2048 curve not above 1024 curve")
		}
	}
	if _, err := Figure1(1); err == nil {
		t.Fatal("maxProcs=1 accepted")
	}
	if out := r.Format(); !strings.Contains(out, "1024x1024") {
		t.Fatal("Format missing series header")
	}
}

func TestFigure3MatchesAnalyticPMF(t *testing.T) {
	r, err := Figure3(200000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r.MaxAbsError > 0.005 {
		t.Fatalf("empirical vs analytic error %g", r.MaxAbsError)
	}
	// Asymmetry: stretching (C=+1) four times as likely as shrinking (C=-1).
	p1 := r.Analytic[1-r.Lo]
	m1 := r.Analytic[-1-r.Lo]
	if math.Abs(p1/m1-4) > 1e-9 {
		t.Fatalf("P(+1)/P(-1) = %g, want 4 (a=0.2)", p1/m1)
	}
	// C=0 never happens.
	if r.Analytic[0-r.Lo] != 0 || r.Empirical[0-r.Lo] != 0 {
		t.Fatal("mass at C=0")
	}
	// Total analytic mass within the plotted range is essentially 1
	// (sigma=5, range ±20 covers 4 sigma).
	sum := 0.0
	for _, p := range r.Analytic {
		sum += p
	}
	if sum < 0.999 {
		t.Fatalf("analytic mass %g", sum)
	}
	if _, err := Figure3(0, 1); err == nil {
		t.Fatal("0 samples accepted")
	}
	if out := r.Format(); !strings.Contains(out, "analytic") {
		t.Fatal("Format output broken")
	}
}

func TestRelativeMakespanSmall(t *testing.T) {
	// Scaled-down Figure 5 (top): a few irregular PTGs, both clusters.
	w, err := IrregularWorkload(50, 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	w.Graphs = w.Graphs[:6]
	w.Name = "irregular n=50"
	cfg := RelMakespanConfig{
		ModelName: "synthetic",
		EMTS:      "emts5",
		Baselines: []string{"mcpa", "hcpa"},
		Workloads: []Workload{w},
		Clusters:  []platform.Cluster{platform.Chti(), platform.Grelon()},
		Seed:      1,
	}
	res, err := RelativeMakespan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 4 { // 1 workload * 2 baselines * 2 clusters
		t.Fatalf("%d cells", len(res.Cells))
	}
	for _, c := range res.Cells {
		if c.Ratio.N != 6 {
			t.Fatalf("cell %v has n=%d", c, c.Ratio.N)
		}
		// EMTS seeds from the baselines, so every ratio is >= 1.
		if c.Ratio.Mean < 1-1e-9 {
			t.Fatalf("ratio %g < 1 for %s/%s", c.Ratio.Mean, c.Baseline, c.Cluster)
		}
	}
	// Paper shape: gains on the larger platform are at least as big.
	chti, _ := res.Lookup("irregular n=50", "mcpa", "chti")
	grelon, _ := res.Lookup("irregular n=50", "mcpa", "grelon")
	if grelon.Ratio.Mean < chti.Ratio.Mean-0.05 {
		t.Fatalf("grelon ratio %g much below chti %g", grelon.Ratio.Mean, chti.Ratio.Mean)
	}
	if out := res.Format(); !strings.Contains(out, "MCPA") {
		t.Fatal("Format broken")
	}
}

func TestRelativeMakespanValidation(t *testing.T) {
	if _, err := RelativeMakespan(RelMakespanConfig{}); err == nil {
		t.Fatal("empty config accepted")
	}
	w, _ := StrassenWorkload(1, 1)
	base := RelMakespanConfig{
		ModelName: "amdahl", EMTS: "emts5", Baselines: []string{"mcpa"},
		Workloads: []Workload{w}, Clusters: []platform.Cluster{platform.Chti()},
	}
	bad := base
	bad.ModelName = "nope"
	if _, err := RelativeMakespan(bad); err == nil {
		t.Fatal("bad model accepted")
	}
	bad = base
	bad.EMTS = "emts7"
	if _, err := RelativeMakespan(bad); err == nil {
		t.Fatal("bad EMTS preset accepted")
	}
	bad = base
	bad.Baselines = []string{"nope"}
	if _, err := RelativeMakespan(bad); err == nil {
		t.Fatal("bad baseline accepted")
	}
}

// TestRelativeMakespanWorkerCountIdentical checks that Figures 4/5 do not
// depend on how many workers run the instances: every Cell, float bits
// included, must equal the single-worker result. The sums behind Mean, SD
// and CI95 round differently if the ratios arrive in another order, so the
// instances must be aggregated in job order, not in completion order.
func TestRelativeMakespanWorkerCountIdentical(t *testing.T) {
	w, err := IrregularWorkload(50, 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	w.Graphs = w.Graphs[:24]
	cfg := RelMakespanConfig{
		ModelName: "synthetic",
		EMTS:      "emts5",
		Baselines: []string{"mcpa", "hcpa"},
		Workloads: []Workload{w},
		Clusters:  []platform.Cluster{platform.Chti(), platform.Grelon()},
		Seed:      1,
		Workers:   1,
	}
	want, err := RelativeMakespan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	bits := func(c Cell) [5]uint64 {
		r := c.Ratio
		return [5]uint64{math.Float64bits(r.Mean), math.Float64bits(r.SD),
			math.Float64bits(r.CI95), math.Float64bits(r.Min), math.Float64bits(r.Max)}
	}
	cfg.Workers = 4
	for run := 0; run < 3; run++ {
		got, err := RelativeMakespan(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Cells) != len(want.Cells) {
			t.Fatalf("run %d: %d cells, want %d", run, len(got.Cells), len(want.Cells))
		}
		for i, c := range got.Cells {
			wc := want.Cells[i]
			if c.Workload != wc.Workload || c.Baseline != wc.Baseline || c.Cluster != wc.Cluster ||
				c.Ratio.N != wc.Ratio.N || bits(c) != bits(wc) {
				t.Fatalf("run %d, cell %d (%s/%s/%s): 4 workers gave %#v, 1 worker %#v",
					run, i, c.Workload, c.Baseline, c.Cluster, c.Ratio, wc.Ratio)
			}
		}
	}
}

func TestFigure6(t *testing.T) {
	r, err := Figure6(3)
	if err != nil {
		t.Fatal(err)
	}
	if r.Graph.NumTasks() != 100 {
		t.Fatalf("%d tasks", r.Graph.NumTasks())
	}
	// Paper shape: EMTS10 finds a shorter schedule with better utilization.
	if r.EMTSMakespan > r.MCPAMakespan {
		t.Fatalf("EMTS10 (%g) worse than MCPA (%g)", r.EMTSMakespan, r.MCPAMakespan)
	}
	if r.EMTSUtilization < r.MCPAUtilization {
		t.Logf("note: EMTS utilization %g below MCPA %g (allowed; makespan is the objective)",
			r.EMTSUtilization, r.MCPAUtilization)
	}
	out := r.Format()
	for _, want := range []string{"MCPA", "EMTS10", "makespan"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Format missing %q", want)
		}
	}
}

func TestRuntimeTableSmall(t *testing.T) {
	r, err := RuntimeTable(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 8 { // 2 EAs * 2 workloads * 2 clusters
		t.Fatalf("%d rows", len(r.Rows))
	}
	byKey := map[string]RuntimeRow{}
	for _, row := range r.Rows {
		byKey[row.EMTS+"/"+row.Workload+"/"+row.Cluster] = row
		if row.Seconds.Mean <= 0 {
			t.Fatalf("non-positive runtime for %+v", row)
		}
	}
	// EMTS10 must do more work than EMTS5 on every workload and cluster.
	// The work is counted in evaluations per run, (μ + λ·generations):
	// comparing wall-clock means failed whenever a stall of a few
	// milliseconds hit the EMTS5 runs while other test packages ran.
	for _, key := range []string{"Strassen/chti", "Strassen/grelon", "irregular n=100/chti", "irregular n=100/grelon"} {
		e5, e10 := byKey["emts5/"+key].Evaluations, byKey["emts10/"+key].Evaluations
		if e5 != 130 || e10 != 1010 {
			t.Fatalf("%s: %g EMTS5 and %g EMTS10 evaluations per run, want 130 and 1010", key, e5, e10)
		}
	}
	if _, err := RuntimeTable(0, 1); err == nil {
		t.Fatal("0 instances accepted")
	}
	if out := r.Format(); !strings.Contains(out, "Python") {
		t.Fatal("Format missing paper reference")
	}
}

func TestConvergenceTrace(t *testing.T) {
	w, err := StrassenWorkload(3, 5)
	if err != nil {
		t.Fatal(err)
	}
	conv, err := ConvergenceTrace(w, platform.Grelon(), "synthetic", "emts5", 1)
	if err != nil {
		t.Fatal(err)
	}
	if conv.Instances != 3 || len(conv.MeanRelative) != 6 {
		t.Fatalf("conv = %+v", conv)
	}
	if conv.MeanRelative[0] != 1 {
		t.Fatalf("first point %g, want 1", conv.MeanRelative[0])
	}
	for i := 1; i < len(conv.MeanRelative); i++ {
		if conv.MeanRelative[i] > conv.MeanRelative[i-1]+1e-12 {
			t.Fatal("mean relative best increased")
		}
	}
}

func TestRelMakespanSVG(t *testing.T) {
	w, err := StrassenWorkload(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RelativeMakespan(RelMakespanConfig{
		ModelName: "synthetic", EMTS: "emts5", Baselines: []string{"mcpa", "hcpa"},
		Workloads: []Workload{w},
		Clusters:  []platform.Cluster{platform.Chti(), platform.Grelon()},
		Seed:      1,
	})
	if err != nil {
		t.Fatal(err)
	}
	svg := res.SVG(800, 400)
	for _, want := range []string{"<svg", "</svg>", "<rect", "MCPA", "chti", "grelon"} {
		if !strings.Contains(svg, want) {
			t.Fatalf("SVG missing %q", want)
		}
	}
	// Every bar must carry a tooltip with its CI.
	if !strings.Contains(svg, "±") {
		t.Fatal("SVG missing CI annotations")
	}
	empty := &RelMakespanResult{}
	if out := empty.SVG(100, 100); !strings.Contains(out, "svg") {
		t.Fatal("empty SVG broken")
	}
}

func TestConvergenceCSVAndSVG(t *testing.T) {
	w, err := StrassenWorkload(2, 9)
	if err != nil {
		t.Fatal(err)
	}
	c5, err := ConvergenceTrace(w, platform.Grelon(), "synthetic", "emts5", 1)
	if err != nil {
		t.Fatal(err)
	}
	c10, err := ConvergenceTrace(w, platform.Grelon(), "synthetic", "emts10", 1)
	if err != nil {
		t.Fatal(err)
	}
	csv := c5.CSV()
	if !strings.Contains(csv, "generation,mean_relative_best") || strings.Count(csv, "\n") != 7 {
		t.Fatalf("CSV:\n%s", csv)
	}
	svg := ConvergenceSVG(map[string]*Convergence{"emts5": c5, "emts10": c10}, 600, 400)
	for _, want := range []string{"<svg", "polyline", "emts5", "emts10", "generation"} {
		if !strings.Contains(svg, want) {
			t.Fatalf("SVG missing %q", want)
		}
	}
}
