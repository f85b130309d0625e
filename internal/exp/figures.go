package exp

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"

	"emts/internal/alloc"
	"emts/internal/core"
	"emts/internal/dag"
	"emts/internal/daggen"
	"emts/internal/ea"
	"emts/internal/listsched"
	"emts/internal/model"
	"emts/internal/platform"
	"emts/internal/schedule"
	"emts/internal/sim"
	"emts/internal/stats"
)

// ---------------------------------------------------------------------------
// Figure 1 — execution time of a PDGEMM-like parallel task vs. processor
// count for two matrix sizes. The paper measured ScaLAPACK PDGEMM on the Cray
// XT4 of LBNL; we have no Cray, so the curve is regenerated from the
// synthetic non-monotonic model (Model 2), which the paper designed to
// "imitate the execution time characteristics shown in Figure 1" — the
// substitution exercises exactly the code path the figure motivates
// (DESIGN.md item 4.13a).
// ---------------------------------------------------------------------------

// Figure1Series is the timing curve for one matrix size.
type Figure1Series struct {
	// MatrixSize is the square-matrix dimension (1024, 2048).
	MatrixSize int
	// Times[p-1] is the predicted execution time on p processors.
	Times []float64
}

// Figure1Result holds both series of Figure 1.
type Figure1Result struct {
	MaxProcs int
	Series   []Figure1Series
}

// Figure1 computes the PDGEMM-like curves for matrix sizes 1024 and 2048 on
// processor counts 1..maxProcs (the paper plots 2..32), using Model 2 with a
// small Amdahl fraction (PDGEMM is highly scalable).
func Figure1(maxProcs int) (*Figure1Result, error) {
	if maxProcs < 2 {
		return nil, fmt.Errorf("exp: figure 1 needs maxProcs >= 2, got %d", maxProcs)
	}
	cluster := platform.Cluster{Name: "xt4-like", Procs: maxProcs, SpeedGFlops: 8}
	res := &Figure1Result{MaxProcs: maxProcs}
	for _, n := range []int{1024, 2048} {
		task := dag.Task{
			Name:  fmt.Sprintf("pdgemm-%d", n),
			Flops: 2 * float64(n) * float64(n) * float64(n), // 2n^3 FLOP for n x n GEMM
			Alpha: 0.02,
			Data:  float64(n) * float64(n),
		}
		s := Figure1Series{MatrixSize: n, Times: make([]float64, maxProcs)}
		for p := 1; p <= maxProcs; p++ {
			s.Times[p-1] = model.Synthetic{}.Time(task, p, cluster)
		}
		res.Series = append(res.Series, s)
	}
	return res, nil
}

// NonMonotonic reports whether a series contains at least one increase — the
// property Figure 1 exists to demonstrate.
func (s Figure1Series) NonMonotonic() bool {
	for p := 1; p < len(s.Times); p++ {
		if s.Times[p] > s.Times[p-1] {
			return true
		}
	}
	return false
}

// Format renders the two curves as aligned columns.
func (r *Figure1Result) Format() string {
	var sb strings.Builder
	sb.WriteString("Figure 1 — PDGEMM-like execution time vs. processors (Model 2 substitution)\n")
	sb.WriteString("procs")
	for _, s := range r.Series {
		fmt.Fprintf(&sb, " %14s", fmt.Sprintf("%dx%d [s]", s.MatrixSize, s.MatrixSize))
	}
	sb.WriteString("\n")
	for p := 1; p <= r.MaxProcs; p++ {
		fmt.Fprintf(&sb, "%5d", p)
		for _, s := range r.Series {
			fmt.Fprintf(&sb, " %14.4f", s.Times[p-1])
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

// ---------------------------------------------------------------------------
// Figure 3 — probability density function of the mutation operator with
// sigma1 = sigma2 = 5 and a = 0.2.
// ---------------------------------------------------------------------------

// Figure3Result compares the empirical distribution of sampled allocation
// adjustments C with the analytic probability mass function.
type Figure3Result struct {
	// Lo and Hi bound the plotted adjustments (paper: -20..20).
	Lo, Hi int
	// Empirical[c-Lo] is the sampled probability of adjustment c.
	Empirical []float64
	// Analytic[c-Lo] is the exact probability of adjustment c.
	Analytic []float64
	// Samples is the number of draws.
	Samples int
	// MaxAbsError is the largest |empirical - analytic| over the range.
	MaxAbsError float64
}

// Figure3 samples the Eq. (1) mutation operator and compares it against the
// exact probability mass function
//
//	P(C = -k) = a   · (Φ(k/σ₁) - Φ((k-1)/σ₁)) · 2
//	P(C = +k) = (1-a) · (Φ(k/σ₂) - Φ((k-1)/σ₂)) · 2,  k >= 1
//
// (|X| has a folded normal distribution, so ⌊|X|⌋ = k-1 with probability
// 2(Φ(k/σ) - Φ((k-1)/σ))).
func Figure3(samples int, seed int64) (*Figure3Result, error) {
	if samples < 1 {
		return nil, fmt.Errorf("exp: figure 3 needs samples >= 1, got %d", samples)
	}
	const lo, hi = -20, 20
	pm := ea.DefaultPaperMutator()
	rng := rand.New(rand.NewSource(seed))
	counts := make([]int, hi-lo+1)
	for i := 0; i < samples; i++ {
		c := pm.Delta(rng)
		if c < lo || c > hi {
			continue // tail mass outside the plotted range
		}
		counts[c-lo]++
	}
	res := &Figure3Result{
		Lo: lo, Hi: hi, Samples: samples,
		Empirical: make([]float64, hi-lo+1),
		Analytic:  make([]float64, hi-lo+1),
	}
	for c := lo; c <= hi; c++ {
		res.Empirical[c-lo] = float64(counts[c-lo]) / float64(samples)
		res.Analytic[c-lo] = mutationPMF(c, pm)
		if d := math.Abs(res.Empirical[c-lo] - res.Analytic[c-lo]); d > res.MaxAbsError {
			res.MaxAbsError = d
		}
	}
	return res, nil
}

// mutationPMF is the exact probability of adjustment c under the operator.
func mutationPMF(c int, pm ea.PaperMutator) float64 {
	if c == 0 {
		return 0
	}
	k := float64(c)
	if c < 0 {
		k = -k
	}
	phi := func(x float64) float64 { return 0.5 * (1 + math.Erf(x/math.Sqrt2)) }
	if c < 0 {
		return pm.A * 2 * (phi(k/pm.Sigma1) - phi((k-1)/pm.Sigma1))
	}
	return (1 - pm.A) * 2 * (phi(k/pm.Sigma2) - phi((k-1)/pm.Sigma2))
}

// Format renders the densities with an ASCII bar per adjustment.
func (r *Figure3Result) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Figure 3 — mutation operator density (σ₁=σ₂=5, a=0.2, %d samples)\n", r.Samples)
	fmt.Fprintf(&sb, "%6s %10s %10s\n", "C", "empirical", "analytic")
	maxP := 0.0
	for _, p := range r.Analytic {
		if p > maxP {
			maxP = p
		}
	}
	for c := r.Lo; c <= r.Hi; c++ {
		bar := ""
		if maxP > 0 {
			bar = strings.Repeat("#", int(r.Empirical[c-r.Lo]/maxP*40+0.5))
		}
		fmt.Fprintf(&sb, "%6d %10.5f %10.5f %s\n", c, r.Empirical[c-r.Lo], r.Analytic[c-r.Lo], bar)
	}
	fmt.Fprintf(&sb, "max |empirical-analytic| = %.5f\n", r.MaxAbsError)
	return sb.String()
}

// ---------------------------------------------------------------------------
// Figure 6 — side-by-side schedules of MCPA and EMTS10 for an irregular
// 100-node PTG on Grelon under Model 2.
// ---------------------------------------------------------------------------

// Figure6Result holds the two schedules of the comparison.
type Figure6Result struct {
	Graph *dag.Graph
	// MCPA and EMTS are the two validated schedules.
	MCPA, EMTS *schedule.Schedule
	// MCPAMakespan, EMTSMakespan, and the utilizations quantify the
	// "poor resource utilization" contrast the paper draws.
	MCPAMakespan, EMTSMakespan       float64
	MCPAUtilization, EMTSUtilization float64
}

// Figure6 schedules one irregular 100-task PTG on Grelon with Model 2 using
// MCPA and EMTS10, reproducing the paper's qualitative comparison: MCPA's
// small allocations under-use the cluster, EMTS stretches the big tasks.
func Figure6(seed int64) (*Figure6Result, error) {
	g, err := daggen.Random(daggen.RandomConfig{
		N: 100, Width: 0.5, Regularity: 0.2, Density: 0.2, Jump: 2,
	}, daggen.DefaultCosts(), seed)
	if err != nil {
		return nil, err
	}
	cluster := platform.Grelon()
	tab, err := model.NewTable(g, model.Synthetic{}, cluster)
	if err != nil {
		return nil, err
	}
	mcpaAlloc, err := alloc.MCPA{}.Allocate(g, tab)
	if err != nil {
		return nil, err
	}
	mcpaSched, err := listsched.Map(g, tab, mcpaAlloc)
	if err != nil {
		return nil, err
	}
	emtsRes, err := core.Run(g, tab, core.EMTS10(seed))
	if err != nil {
		return nil, err
	}
	return &Figure6Result{
		Graph:           g,
		MCPA:            mcpaSched,
		EMTS:            emtsRes.Schedule,
		MCPAMakespan:    mcpaSched.Makespan(),
		EMTSMakespan:    emtsRes.Makespan,
		MCPAUtilization: mcpaSched.Utilization(),
		EMTSUtilization: emtsRes.Schedule.Utilization(),
	}, nil
}

// Format renders both Gantt charts and the headline numbers.
func (r *Figure6Result) Format() string {
	var sb strings.Builder
	sb.WriteString("Figure 6 — MCPA vs EMTS10 schedules (irregular n=100, Grelon, Model 2)\n\n")
	fmt.Fprintf(&sb, "MCPA:   makespan %8.2f s, utilization %5.1f%%\n", r.MCPAMakespan, 100*r.MCPAUtilization)
	fmt.Fprintf(&sb, "EMTS10: makespan %8.2f s, utilization %5.1f%%\n", r.EMTSMakespan, 100*r.EMTSUtilization)
	fmt.Fprintf(&sb, "speedup: %.2fx\n\n", r.MCPAMakespan/r.EMTSMakespan)
	sb.WriteString(r.MCPA.ASCII(100))
	sb.WriteString("\n")
	sb.WriteString(r.EMTS.ASCII(100))
	return sb.String()
}

// ---------------------------------------------------------------------------
// Convergence — not a numbered figure, but the paper's Section V discussion
// of EMTS5 vs EMTS10 implies the best-makespan-per-generation trace; exposed
// for the ablation benches and the examples.
// ---------------------------------------------------------------------------

// Convergence summarizes best-fitness histories across instances: mean best
// makespan (relative to the starting value) after each generation.
type Convergence struct {
	// MeanRelative[u] is mean(history[u] / history[0]) over instances.
	MeanRelative []float64
	Instances    int
}

// ConvergenceTrace runs EMTS on every graph of a workload and aggregates the
// per-generation improvement.
func ConvergenceTrace(w Workload, cluster platform.Cluster, modelName, emtsName string, seed int64) (*Convergence, error) {
	traces, err := ConvergenceTraces(w, cluster, modelName, []string{emtsName}, seed)
	if err != nil {
		return nil, err
	}
	return traces[emtsName], nil
}

// ConvergenceTraces is ConvergenceTrace for several EMTS variants at once,
// building each instance's execution-time table exactly once — the table is a
// pure function of (graph, model, cluster), so the EMTS5 and EMTS10 sweeps
// share it. Results are identical to separate ConvergenceTrace calls.
func ConvergenceTraces(w Workload, cluster platform.Cluster, modelName string, emtsNames []string, seed int64) (map[string]*Convergence, error) {
	m, err := sim.ModelByName(modelName)
	if err != nil {
		return nil, err
	}
	if len(w.Graphs) == 0 {
		return nil, fmt.Errorf("exp: empty workload %q", w.Name)
	}
	tabs := make([]*model.Table, len(w.Graphs))
	for i, g := range w.Graphs {
		if tabs[i], err = model.NewTable(g, m, cluster); err != nil {
			return nil, err
		}
	}
	traces := make(map[string]*Convergence, len(emtsNames))
	for _, emtsName := range emtsNames {
		plan, err := emtsPlan(modelName, emtsName, seed)
		if err != nil {
			return nil, err
		}
		var rel [][]float64
		for i, g := range w.Graphs {
			res, err := core.Run(g, tabs[i], *plan.Params)
			if err != nil {
				return nil, err
			}
			r := make([]float64, len(res.History))
			for j, h := range res.History {
				r[j] = h / res.History[0]
			}
			rel = append(rel, r)
		}
		conv := &Convergence{Instances: len(rel), MeanRelative: make([]float64, len(rel[0]))}
		for u := range conv.MeanRelative {
			col := make([]float64, len(rel))
			for i := range rel {
				col[i] = rel[i][u]
			}
			conv.MeanRelative[u] = stats.Mean(col)
		}
		traces[emtsName] = conv
	}
	return traces, nil
}

// CSV renders a convergence trace: generation, mean best makespan relative
// to the initial population's best.
func (c *Convergence) CSV() string {
	var sb strings.Builder
	sb.WriteString("generation,mean_relative_best\n")
	for u, v := range c.MeanRelative {
		fmt.Fprintf(&sb, "%d,%g\n", u, v)
	}
	return sb.String()
}

// SVG renders convergence traces as a line chart: one polyline per labelled
// trace, y = mean best makespan relative to the seeds (1.0 at generation 0).
func ConvergenceSVG(traces map[string]*Convergence, width, height int) string {
	const margin = 46
	yMin := 1.0
	maxGens := 1
	for _, c := range traces {
		for _, v := range c.MeanRelative {
			if v < yMin {
				yMin = v
			}
		}
		if len(c.MeanRelative) > maxGens {
			maxGens = len(c.MeanRelative)
		}
	}
	yMin -= (1 - yMin) * 0.1
	if yMin >= 1 {
		yMin = 0.9
	}
	plotW := float64(width - 2*margin)
	plotH := float64(height - 2*margin)
	xOf := func(u int) float64 { return margin + float64(u)/float64(maxGens-1)*plotW }
	yOf := func(v float64) float64 { return margin + (1-(v-yMin)/(1-yMin))*plotH }

	colors := []string{"#4e79a7", "#f28e2b", "#59a14f", "#e15759", "#b07aa1"}
	var sb strings.Builder
	fmt.Fprintf(&sb, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d">`+"\n",
		width, height, width, height)
	fmt.Fprintf(&sb, `<rect width="%d" height="%d" fill="white"/>`+"\n", width, height)
	fmt.Fprintf(&sb, `<text x="%d" y="18" font-family="sans-serif" font-size="13">EMTS convergence: mean best makespan relative to the seeded start</text>`+"\n", margin)
	fmt.Fprintf(&sb, `<rect x="%d" y="%d" width="%.0f" height="%.0f" fill="none" stroke="#999"/>`+"\n",
		margin, margin, plotW, plotH)
	// Sorted labels for deterministic output.
	var labels []string
	for name := range traces {
		labels = append(labels, name)
	}
	sort.Strings(labels)
	for li, name := range labels {
		c := traces[name]
		var pts []string
		for u, v := range c.MeanRelative {
			pts = append(pts, fmt.Sprintf("%.1f,%.1f", xOf(u), yOf(v)))
		}
		color := colors[li%len(colors)]
		fmt.Fprintf(&sb, `<polyline points="%s" fill="none" stroke="%s" stroke-width="2"/>`+"\n",
			strings.Join(pts, " "), color)
		fmt.Fprintf(&sb, `<text x="%d" y="%d" font-family="sans-serif" font-size="11" fill="%s">%s (n=%d)</text>`+"\n",
			margin+8, margin+16+14*li, color, escapeXML(name), c.Instances)
	}
	fmt.Fprintf(&sb, `<text x="%d" y="%d" font-family="sans-serif" font-size="10" text-anchor="end">1.00</text>`+"\n",
		margin-4, margin+4)
	fmt.Fprintf(&sb, `<text x="%d" y="%.0f" font-family="sans-serif" font-size="10" text-anchor="end">%.2f</text>`+"\n",
		margin-4, margin+plotH, yMin)
	fmt.Fprintf(&sb, `<text x="%.0f" y="%d" font-family="sans-serif" font-size="10" text-anchor="middle">generation</text>`+"\n",
		margin+plotW/2, height-10)
	sb.WriteString("</svg>\n")
	return sb.String()
}
