// Benchmarks that regenerate every figure and table of the paper's
// evaluation (Section V), plus the ablation studies listed in DESIGN.md and
// micro-benchmarks of the hot paths. Run with:
//
//	go test -bench=. -benchmem
//
// Each figure bench executes a scaled-down version of the experiment per
// iteration (the full-scale regeneration is `emts-experiments -scale 1`) and
// reports the headline numbers of the corresponding figure as custom metrics,
// so the paper's qualitative shape is visible straight from the bench output:
// ratios > 1 mean EMTS wins; grelon ratios exceeding chti ratios reproduce
// the paper's platform-size trend.
package emts_test

import (
	"fmt"
	"sync"
	"testing"

	"emts/internal/alloc"
	"emts/internal/core"
	"emts/internal/dag"
	"emts/internal/daggen"
	"emts/internal/ea"
	"emts/internal/exp"
	"emts/internal/listsched"
	"emts/internal/model"
	"emts/internal/onestep"
	"emts/internal/platform"
	"emts/internal/schedule"
	"emts/internal/stats"
)

// benchWorkloads builds the scaled-down paper workloads once.
var benchWorkloads struct {
	once sync.Once
	ws   []exp.Workload
	err  error
}

func workloads(b *testing.B) []exp.Workload {
	b.Helper()
	benchWorkloads.once.Do(func() {
		// ~1/10 of the paper's instance counts: 10 FFT per size, 10
		// Strassen, 1 seed per random combo (12 layered + 36 irregular).
		benchWorkloads.ws, benchWorkloads.err = exp.PaperWorkloads(0.1, 1)
	})
	if benchWorkloads.err != nil {
		b.Fatal(benchWorkloads.err)
	}
	return benchWorkloads.ws
}

// BenchmarkFigure1 regenerates the PDGEMM-like timing curves (Figure 1).
func BenchmarkFigure1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := exp.Figure1(32)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			s := r.Series[0]
			b.ReportMetric(s.Times[4]/s.Times[3], "spike_T5_over_T4")
		}
	}
}

// BenchmarkFigure3 regenerates the mutation-operator density (Figure 3).
func BenchmarkFigure3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := exp.Figure3(100_000, int64(i))
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(r.MaxAbsError, "max_pmf_error")
		}
	}
}

// relMakespanBench runs the Figure 4/5 experiment and reports the
// irregular-workload ratios (the paper's strongest effect) as metrics.
func relMakespanBench(b *testing.B, modelName, emtsName string) {
	ws := workloads(b)
	cfg := exp.RelMakespanConfig{
		ModelName: modelName,
		EMTS:      emtsName,
		Baselines: []string{"mcpa", "hcpa"},
		Workloads: ws,
		Clusters:  []platform.Cluster{platform.Chti(), platform.Grelon()},
		Seed:      1,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := exp.RelativeMakespan(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			if c, ok := res.Lookup("irregular n=100", "mcpa", "chti"); ok {
				b.ReportMetric(c.Ratio.Mean, "mcpa_ratio_chti")
			}
			if c, ok := res.Lookup("irregular n=100", "mcpa", "grelon"); ok {
				b.ReportMetric(c.Ratio.Mean, "mcpa_ratio_grelon")
			}
			if c, ok := res.Lookup("irregular n=100", "hcpa", "grelon"); ok {
				b.ReportMetric(c.Ratio.Mean, "hcpa_ratio_grelon")
			}
		}
	}
}

// BenchmarkFigure4 regenerates Figure 4: relative makespan of MCPA and HCPA
// vs EMTS5 under the monotone Amdahl model (Model 1).
func BenchmarkFigure4(b *testing.B) { relMakespanBench(b, "amdahl", "emts5") }

// BenchmarkFigure5Top regenerates the upper half of Figure 5: Model 2 with
// EMTS5.
func BenchmarkFigure5Top(b *testing.B) { relMakespanBench(b, "synthetic", "emts5") }

// BenchmarkFigure5Bottom regenerates the lower half of Figure 5: Model 2 with
// EMTS10.
func BenchmarkFigure5Bottom(b *testing.B) { relMakespanBench(b, "synthetic", "emts10") }

// BenchmarkFigure6 regenerates the Gantt comparison of Figure 6.
func BenchmarkFigure6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := exp.Figure6(3)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(r.MCPAMakespan/r.EMTSMakespan, "speedup_vs_mcpa")
			b.ReportMetric(r.EMTSUtilization/r.MCPAUtilization, "utilization_gain")
		}
	}
}

// BenchmarkRuntimeTable regenerates the Section V-B run-time numbers.
func BenchmarkRuntimeTable(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := exp.RuntimeTable(2, 1)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, row := range r.Rows {
				if row.EMTS == "emts10" && row.Workload == "irregular n=100" && row.Cluster == "grelon" {
					b.ReportMetric(row.Seconds.Mean, "emts10_grelon_large_s")
				}
			}
		}
	}
}

// ablationInstances returns a fixed batch of irregular PTGs with their time
// tables on Grelon under Model 2, the setting where EMTS has the most
// headroom.
func ablationInstances(b *testing.B, n int) []ablationInstance {
	b.Helper()
	w, err := exp.IrregularWorkload(50, 1, 99)
	if err != nil {
		b.Fatal(err)
	}
	if len(w.Graphs) > n {
		w.Graphs = w.Graphs[:n]
	}
	out := make([]ablationInstance, 0, len(w.Graphs))
	for _, g := range w.Graphs {
		tab, err := model.NewTable(g, model.Synthetic{}, platform.Grelon())
		if err != nil {
			b.Fatal(err)
		}
		out = append(out, ablationInstance{g, tab})
	}
	return out
}

type ablationInstance struct {
	g   *dag.Graph
	tab *model.Table
}

// runAblation evaluates a parameter variant over the batch, averaging each
// instance over three EA seeds to damp run-to-run noise, and returns the
// mean makespan.
func runAblation(b *testing.B, insts []ablationInstance, mkParams func(seed int64) core.Params) float64 {
	b.Helper()
	var ms []float64
	for _, in := range insts {
		for seed := int64(0); seed < 3; seed++ {
			res, err := core.Run(in.g, in.tab, mkParams(seed))
			if err != nil {
				b.Fatal(err)
			}
			ms = append(ms, res.Makespan)
		}
	}
	return stats.Mean(ms)
}

// BenchmarkAblationMutation compares the paper's Eq. (1) mutation operator
// against the uniform strawman (DESIGN.md A1). Lower mean makespan wins.
func BenchmarkAblationMutation(b *testing.B) {
	insts := ablationInstances(b, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mPaper := runAblation(b, insts, core.EMTS5)
		mUniform := runAblation(b, insts, func(seed int64) core.Params {
			p := core.EMTS5(seed)
			p.Mutation = ea.UniformMutator{}
			return p
		})
		mAdaptive := runAblation(b, insts, func(seed int64) core.Params {
			p := core.EMTS5(seed)
			p.SelfAdaptive = true
			return p
		})
		if i == 0 {
			b.ReportMetric(mUniform/mPaper, "uniform_over_eq1")
			b.ReportMetric(mAdaptive/mPaper, "selfadaptive_over_eq1")
		}
	}
}

// BenchmarkAblationSeeding compares heuristic seeding (MCPA/HCPA/Δ-CP)
// against a random-only initial population (DESIGN.md A2).
func BenchmarkAblationSeeding(b *testing.B) {
	insts := ablationInstances(b, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mSeeded := runAblation(b, insts, core.EMTS5)
		mRandom := runAblation(b, insts, func(seed int64) core.Params {
			p := core.EMTS5(seed)
			p.Seeds = []alloc.Allocator{alloc.Random{Seed: seed}}
			return p
		})
		if i == 0 {
			b.ReportMetric(mRandom/mSeeded, "random_over_seeded")
		}
	}
}

// BenchmarkAblationRejection measures the future-work rejection strategy of
// Section VI: identical results, fewer fully constructed schedules.
func BenchmarkAblationRejection(b *testing.B) {
	insts := ablationInstances(b, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var evals, rejected int
		for _, in := range insts {
			p := core.EMTS5(1)
			p.UseRejection = true
			res, err := core.Run(in.g, in.tab, p)
			if err != nil {
				b.Fatal(err)
			}
			evals += res.Evaluations
			rejected += res.Rejections
		}
		if i == 0 && evals > 0 {
			b.ReportMetric(float64(rejected)/float64(evals), "rejected_fraction")
		}
	}
}

// BenchmarkAblationCrossover compares mutation-only EMTS against the uniform
// crossover extension (DESIGN.md A4; the paper argues mutation-only suffices).
func BenchmarkAblationCrossover(b *testing.B) {
	insts := ablationInstances(b, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mPlain := runAblation(b, insts, core.EMTS5)
		mCross := runAblation(b, insts, func(seed int64) core.Params {
			p := core.EMTS5(seed)
			p.CrossoverProb = 0.5
			return p
		})
		if i == 0 {
			b.ReportMetric(mCross/mPlain, "crossover_over_plain")
		}
	}
}

// BenchmarkAblationSearchMethods compares EMTS against hill climbing,
// simulated annealing, random search, and the (μ,λ) comma strategy at an
// equal budget of 130 fitness evaluations (DESIGN.md A5, the paper's
// future-work study).
func BenchmarkAblationSearchMethods(b *testing.B) {
	w, err := exp.IrregularWorkload(50, 1, 99)
	if err != nil {
		b.Fatal(err)
	}
	w.Graphs = w.Graphs[:8]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := exp.CompareSearchMethods(w, platform.Grelon(), "synthetic", 130, 1)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, row := range res.Rows {
				b.ReportMetric(row.RelativeToEMTS.Mean, row.Method+"_over_emts")
			}
		}
	}
}

// BenchmarkAblationMonotoneEnvelope quantifies how much of EMTS's Model 2
// advantage a monotone-assuming heuristic can recover by running on the
// monotone envelope of the model (Günther et al., DESIGN.md): it reports
// mean makespans of MCPA on raw Model 2, MCPA on the envelope (schedules
// re-costed under the raw model via the envelope's best-q configurations),
// and EMTS5 on raw Model 2.
func BenchmarkAblationMonotoneEnvelope(b *testing.B) {
	insts := ablationInstances(b, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var rawSum, envSum, emtsSum float64
		for _, in := range insts {
			// MCPA on the raw non-monotonic table.
			a, err := (alloc.MCPA{}).Allocate(in.g, in.tab)
			if err != nil {
				b.Fatal(err)
			}
			ms, err := listsched.Makespan(in.g, in.tab, a)
			if err != nil {
				b.Fatal(err)
			}
			rawSum += ms

			// MCPA on the monotone envelope: allocations computed and
			// mapped against envelope times (which are achievable by
			// leaving surplus processors idle).
			envTab, err := model.NewTable(in.g, model.Monotone{Inner: model.Synthetic{}}, platform.Grelon())
			if err != nil {
				b.Fatal(err)
			}
			ae, err := (alloc.MCPA{}).Allocate(in.g, envTab)
			if err != nil {
				b.Fatal(err)
			}
			mse, err := listsched.Makespan(in.g, envTab, ae)
			if err != nil {
				b.Fatal(err)
			}
			envSum += mse

			res, err := core.Run(in.g, in.tab, core.EMTS5(1))
			if err != nil {
				b.Fatal(err)
			}
			emtsSum += res.Makespan
		}
		if i == 0 {
			b.ReportMetric(rawSum/emtsSum, "mcpa_raw_over_emts")
			b.ReportMetric(envSum/emtsSum, "mcpa_envelope_over_emts")
		}
	}
}

// BenchmarkAblationInsertionMapping compares the availability mapper (the
// paper's, used as the EA fitness function) against the insertion-based
// variant: schedule quality vs scheduling cost (Section VI notes the mapping
// step dominates EMTS's run time).
func BenchmarkAblationInsertionMapping(b *testing.B) {
	insts := ablationInstances(b, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var availSum, insSum float64
		for _, in := range insts {
			a, err := (alloc.MCPA{}).Allocate(in.g, in.tab)
			if err != nil {
				b.Fatal(err)
			}
			ms, err := listsched.Makespan(in.g, in.tab, a)
			if err != nil {
				b.Fatal(err)
			}
			availSum += ms
			ins, err := listsched.MapInsertion(in.g, in.tab, a)
			if err != nil {
				b.Fatal(err)
			}
			insSum += ins.Makespan()
		}
		if i == 0 {
			b.ReportMetric(insSum/availSum, "insertion_over_avail")
		}
	}
}

// BenchmarkInsertionMapping measures one insertion-based mapping of a
// 100-task PTG (compare with BenchmarkMappingFunction).
func BenchmarkInsertionMapping(b *testing.B) {
	g, tab, a := benchInstance(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := listsched.MapInsertion(g, tab, a); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBiCPAAllocation measures the bi-criteria sweep (related work).
func BenchmarkBiCPAAllocation(b *testing.B) {
	g, tab, _ := benchInstance(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (alloc.BiCPA{}).Allocate(g, tab); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOneStepEFT measures the one-step earliest-finish-time scheduler.
func BenchmarkOneStepEFT(b *testing.B) {
	g, tab, _ := benchInstance(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (onestep.GreedyEFT{}).Schedule(g, tab); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Micro-benchmarks of the hot paths ------------------------------------

// benchInstance is a 100-task irregular PTG on Grelon under Model 2.
func benchInstance(b *testing.B) (*dag.Graph, *model.Table, schedule.Allocation) {
	b.Helper()
	g, err := daggen.Random(daggen.RandomConfig{
		N: 100, Width: 0.5, Regularity: 0.5, Density: 0.5, Jump: 2,
	}, daggen.DefaultCosts(), 7)
	if err != nil {
		b.Fatal(err)
	}
	tab, err := model.NewTable(g, model.Synthetic{}, platform.Grelon())
	if err != nil {
		b.Fatal(err)
	}
	a, err := alloc.MCPA{}.Allocate(g, tab)
	if err != nil {
		b.Fatal(err)
	}
	return g, tab, a
}

// BenchmarkMappingFunction measures one fitness evaluation — the operation
// whose cost dominates EMTS (Section VI).
func BenchmarkMappingFunction(b *testing.B) {
	g, tab, a := benchInstance(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := listsched.Makespan(g, tab, a); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFullMap measures mapping with processor-set recording.
func BenchmarkFullMap(b *testing.B) {
	g, tab, a := benchInstance(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := listsched.Map(g, tab, a); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCPAAllocation measures the CPA allocation procedure
// (O(V(V+E)P), Section III-E).
func BenchmarkCPAAllocation(b *testing.B) {
	g, tab, _ := benchInstance(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (alloc.CPA{}).Allocate(g, tab); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMCPAAllocation measures MCPA (CPA plus the level bound).
func BenchmarkMCPAAllocation(b *testing.B) {
	g, tab, _ := benchInstance(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (alloc.MCPA{}).Allocate(g, tab); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTimeTableBuild measures building the V x P execution-time table.
func BenchmarkTimeTableBuild(b *testing.B) {
	g, _, _ := benchInstance(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := model.NewTable(g, model.Synthetic{}, platform.Grelon()); err != nil {
			b.Fatal(err)
		}
	}
}

// emtsInstanceBench measures one complete EMTS optimization of a 100-task
// PTG on Grelon — the unit of the run-time table — and reports the fraction
// of fitness evaluations cut short by the admissible lower-bound prefilter.
func emtsInstanceBench(b *testing.B, mkParams func(int64) core.Params) {
	g, tab, _ := benchInstance(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := core.Run(g, tab, mkParams(1))
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 && res.Evaluations > 0 {
			b.ReportMetric(float64(res.PrefilterRejections)/float64(res.Evaluations), "prefilter_reject_rate")
		}
	}
}

// withRejection enables the Section VI rejection strategy — the setting the
// layered fast path (DESIGN.md §10) targets, and since PR 3 the headline
// configuration of the instance benchmarks.
func withRejection(mk func(int64) core.Params) func(int64) core.Params {
	return func(seed int64) core.Params {
		p := mk(seed)
		p.UseRejection = true
		return p
	}
}

// BenchmarkEMTS5Instance measures one complete EMTS5 optimization of a
// 100-task PTG on Grelon — the unit of the run-time table — with the
// rejection strategy enabled.
func BenchmarkEMTS5Instance(b *testing.B) { emtsInstanceBench(b, withRejection(core.EMTS5)) }

// BenchmarkEMTS10Instance measures one complete EMTS10 optimization.
func BenchmarkEMTS10Instance(b *testing.B) { emtsInstanceBench(b, withRejection(core.EMTS10)) }

// BenchmarkEMTS5InstanceNoRejection is the pre-PR 3 headline workload: no
// rejection bound, so neither the prefilter nor in-loop rejection can fire
// and only delta bottom levels help.
func BenchmarkEMTS5InstanceNoRejection(b *testing.B) { emtsInstanceBench(b, core.EMTS5) }

// BenchmarkEMTS5InstanceNoFastPath is the A/B control for DESIGN.md §10:
// rejection enabled but the lower-bound prefilter and delta bottom levels
// switched off — the PR 2 evaluation engine on today's workload.
func BenchmarkEMTS5InstanceNoFastPath(b *testing.B) {
	emtsInstanceBench(b, func(seed int64) core.Params {
		p := core.EMTS5(seed)
		p.UseRejection = true
		p.DisablePrefilter = true
		p.DisableDelta = true
		return p
	})
}

// perIndividualBench runs a (10+λ)×5 optimization of the 100-task instance
// and reports the average evaluation cost per individual: the end-to-end cost
// of putting one more individual through a generation.
func perIndividualBench(b *testing.B, lambda int) {
	g, tab, _ := benchInstance(b)
	b.ResetTimer()
	totalEvals := 0
	for i := 0; i < b.N; i++ {
		p := core.EMTS5(1)
		p.Mu = 10
		p.Lambda = lambda
		p.Generations = 5
		p.UseRejection = true
		res, err := core.Run(g, tab, p)
		if err != nil {
			b.Fatal(err)
		}
		totalEvals += res.Evaluations
	}
	if totalEvals > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(totalEvals), "ns/individual")
	}
}

// BenchmarkPerIndividual measures the per-individual cost curve at
// λ ∈ {25, 100, 400}.
func BenchmarkPerIndividual(b *testing.B) {
	for _, lambda := range []int{25, 100, 400} {
		b.Run(fmt.Sprintf("lambda%d", lambda), func(b *testing.B) { perIndividualBench(b, lambda) })
	}
}

// islandInstanceBench runs the headline 100-task EMTS5 workload as an
// island-model optimization and reports ns/generation — the number the
// islands curve of artifacts/BENCH_PR10.json is built from. A generation of
// an N-island run advances all N populations one step (N×λ offspring), so on
// an M-core host ns/generation should stay roughly flat up to N ≈ M islands
// (the islands hide behind each other), while on a single core it grows
// linearly in N — parity of per-island cost, not wall-clock speedup.
func islandInstanceBench(b *testing.B, islands int) {
	g, tab, _ := benchInstance(b)
	b.ResetTimer()
	gens := 0
	for i := 0; i < b.N; i++ {
		p := core.EMTS5(1)
		p.UseRejection = true
		p.Islands = islands
		p.MigrationInterval = 2
		res, err := core.Run(g, tab, p)
		if err != nil {
			b.Fatal(err)
		}
		gens += res.Generations
	}
	if gens > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(gens), "ns/generation")
	}
}

// BenchmarkEMTSIslands measures the island-count scaling curve at
// N ∈ {1, 2, 4, 8}.
func BenchmarkEMTSIslands(b *testing.B) {
	for _, n := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("islands%d", n), func(b *testing.B) { islandInstanceBench(b, n) })
	}
}
