package exp

import (
	"fmt"
	"runtime"
	"strings"
	"sync"

	"emts/internal/alloc"
	"emts/internal/core"
	"emts/internal/dag"
	"emts/internal/listsched"
	"emts/internal/model"
	"emts/internal/platform"
	"emts/internal/sim"
	"emts/internal/stats"
)

// RelMakespanConfig drives the Figure 4 / Figure 5 experiment: for every PTG
// instance, run the baseline heuristics and EMTS on the same execution-time
// table, and aggregate the per-instance relative makespans
// T_baseline / T_EMTS (e.g. T_MCPA / T_EMTS5) per workload class and cluster.
type RelMakespanConfig struct {
	// ModelName selects the execution-time model ("amdahl" for Figure 4,
	// "synthetic" for Figure 5).
	ModelName string
	// EMTS selects the preset: "emts5" or "emts10".
	EMTS string
	// Baselines are the comparison heuristics (paper: MCPA and HCPA).
	Baselines []string
	// Workloads are the PTG classes (PaperWorkloads).
	Workloads []Workload
	// Clusters are the platforms (paper: Chti and Grelon).
	Clusters []platform.Cluster
	// Seed drives EMTS; the same seed is used for every instance, mirroring
	// the paper's "same (random) seed for all experiments".
	Seed int64
	// Workers bounds instance-level parallelism (0 = GOMAXPROCS). EMTS runs
	// single-threaded inside so parallel instances do not oversubscribe.
	Workers int
}

// Cell is one bar of Figures 4/5: the average relative makespan of one
// baseline vs. EMTS for one workload class on one cluster, with its 95%
// confidence interval.
type Cell struct {
	Workload string
	Baseline string
	Cluster  string
	// Ratio summarizes T_baseline / T_EMTS over the class's instances;
	// values > 1 mean EMTS produced the shorter schedule.
	Ratio stats.Summary
}

// RelMakespanResult is a complete Figure 4 or Figure 5 (half).
type RelMakespanResult struct {
	ModelName string
	EMTS      string
	Cells     []Cell
}

// instanceOutcome carries the ratios computed for one PTG on one cluster.
type instanceOutcome struct {
	workload int
	cluster  int
	ratios   map[string]float64 // baseline name -> ratio
	err      error
}

// RelativeMakespan runs the experiment. Instances fan out across a worker
// pool; every (instance, cluster) pair shares a single execution-time table
// across the baselines and EMTS, so all algorithms see identical task times.
func RelativeMakespan(cfg RelMakespanConfig) (*RelMakespanResult, error) {
	if len(cfg.Baselines) == 0 || len(cfg.Workloads) == 0 || len(cfg.Clusters) == 0 {
		return nil, fmt.Errorf("exp: empty baselines, workloads, or clusters")
	}
	plan, err := emtsPlan(cfg.ModelName, cfg.EMTS, cfg.Seed)
	if err != nil {
		return nil, err
	}
	params := *plan.Params
	params.Workers = 1 // parallelism lives at the instance level

	// Baselines stay an ordered slice, not a map: runInstance surfaces the
	// FIRST baseline error per instance, and "first" must mean cfg.Baselines
	// order, not map iteration order, for equal configs to fail identically.
	baseliners := make([]namedAllocator, 0, len(cfg.Baselines))
	for _, b := range cfg.Baselines {
		bp, err := sim.Resolve(cfg.ModelName, b, cfg.Seed)
		if err != nil {
			return nil, err
		}
		if bp.Allocator == nil {
			return nil, fmt.Errorf("exp: baseline %q is not a two-step heuristic", b)
		}
		baseliners = append(baseliners, namedAllocator{name: b, al: bp.Allocator})
	}

	type job struct {
		workload, cluster int
		g                 *dag.Graph
	}
	var jobs []job
	for wi, w := range cfg.Workloads {
		for ci := range cfg.Clusters {
			for _, g := range w.Graphs {
				jobs = append(jobs, job{wi, ci, g})
			}
		}
	}

	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	jobCh := make(chan job)
	outCh := make(chan instanceOutcome, len(jobs))
	var wg sync.WaitGroup
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobCh {
				outCh <- runInstance(j.g, cfg.Clusters[j.cluster], plan.Model, baseliners, params, j.workload, j.cluster)
			}
		}()
	}
	for _, j := range jobs {
		jobCh <- j
	}
	close(jobCh)
	wg.Wait()
	close(outCh)

	// Aggregate ratios per (workload, baseline, cluster).
	type key struct {
		workload, cluster int
		baseline          string
	}
	ratios := map[key][]float64{}
	for out := range outCh {
		if out.err != nil {
			return nil, out.err
		}
		for b, r := range out.ratios {
			k := key{out.workload, out.cluster, b}
			ratios[k] = append(ratios[k], r)
		}
	}

	res := &RelMakespanResult{ModelName: cfg.ModelName, EMTS: cfg.EMTS}
	for wi, w := range cfg.Workloads {
		for _, b := range cfg.Baselines {
			for ci, cl := range cfg.Clusters {
				rs := ratios[key{wi, ci, b}]
				res.Cells = append(res.Cells, Cell{
					Workload: w.Name,
					Baseline: b,
					Cluster:  cl.Name,
					Ratio:    stats.Summarize(rs),
				})
			}
		}
	}
	return res, nil
}

// namedAllocator pairs a baseline heuristic with its config name, preserving
// cfg.Baselines order through the per-instance loop.
type namedAllocator struct {
	name string
	al   alloc.Allocator
}

// runInstance computes T_baseline / T_EMTS for one PTG on one cluster.
// Baselines run in slice order so a failing instance reports the same
// baseline's error on every run.
func runInstance(g *dag.Graph, cluster platform.Cluster, m model.Model,
	baseliners []namedAllocator, params core.Params, wi, ci int) instanceOutcome {

	out := instanceOutcome{workload: wi, cluster: ci, ratios: map[string]float64{}}
	tab, err := model.NewTable(g, m, cluster)
	if err != nil {
		out.err = err
		return out
	}
	emtsRes, err := core.Run(g, tab, params)
	if err != nil {
		out.err = fmt.Errorf("exp: EMTS on %s/%s: %w", g.Name(), cluster.Name, err)
		return out
	}
	// One Mapper per instance: every baseline makespan reuses its arenas.
	mapper, err := listsched.NewMapper(g, tab)
	if err != nil {
		out.err = err
		return out
	}
	for _, b := range baseliners {
		a, err := b.al.Allocate(g, tab)
		if err != nil {
			out.err = fmt.Errorf("exp: %s on %s/%s: %w", b.name, g.Name(), cluster.Name, err)
			return out
		}
		ms, err := mapper.Makespan(a)
		if err != nil {
			out.err = err
			return out
		}
		out.ratios[b.name] = ms / emtsRes.Makespan
	}
	return out
}

// Format renders the result as a text table in the layout of Figures 4/5:
// one block per workload class, rows per baseline, columns per cluster.
func (r *RelMakespanResult) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Average relative makespan vs %s (model %s); > 1.00 means %s wins\n",
		strings.ToUpper(r.EMTS), r.ModelName, strings.ToUpper(r.EMTS))
	byWorkload := map[string][]Cell{}
	var order []string
	for _, c := range r.Cells {
		if _, ok := byWorkload[c.Workload]; !ok {
			order = append(order, c.Workload)
		}
		byWorkload[c.Workload] = append(byWorkload[c.Workload], c)
	}
	for _, w := range order {
		fmt.Fprintf(&sb, "\n%s\n", w)
		fmt.Fprintf(&sb, "  %-10s %-10s %10s %12s %6s\n", "baseline", "cluster", "ratio", "95% CI", "n")
		for _, c := range byWorkload[w] {
			fmt.Fprintf(&sb, "  %-10s %-10s %10.3f %12s %6d\n",
				strings.ToUpper(c.Baseline), c.Cluster, c.Ratio.Mean,
				fmt.Sprintf("±%.3f", c.Ratio.CI95), c.Ratio.N)
		}
	}
	return sb.String()
}

// Lookup returns the cell for (workload, baseline, cluster), or false.
func (r *RelMakespanResult) Lookup(workload, baseline, cluster string) (Cell, bool) {
	for _, c := range r.Cells {
		if c.Workload == workload && c.Baseline == baseline && c.Cluster == cluster {
			return c, true
		}
	}
	return Cell{}, false
}

// emtsPlan resolves a model and an EMTS preset by name.
func emtsPlan(modelName, emtsName string, seed int64) (*sim.Plan, error) {
	plan, err := sim.Resolve(modelName, emtsName, seed)
	if err != nil {
		return nil, err
	}
	if plan.Params == nil {
		return nil, fmt.Errorf("exp: %q is not an EMTS preset", emtsName)
	}
	return plan, nil
}
