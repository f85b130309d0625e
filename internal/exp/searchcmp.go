package exp

import (
	"fmt"
	"strings"

	"emts/internal/alloc"
	"emts/internal/core"
	"emts/internal/ea"
	"emts/internal/listsched"
	"emts/internal/model"
	"emts/internal/platform"
	"emts/internal/schedule"
	"emts/internal/search"
	"emts/internal/sim"
	"emts/internal/stats"
)

// SearchRow summarizes one optimization method in the search-method
// comparison (the future-work study of Section VI, DESIGN.md A5).
type SearchRow struct {
	Method string
	// RelativeToEMTS summarizes makespan(method) / makespan(EMTS) per
	// instance; > 1 means EMTS found the shorter schedule.
	RelativeToEMTS stats.Summary
}

// SearchComparison is the full study result.
type SearchComparison struct {
	Budget  int
	Cluster string
	Rows    []SearchRow
}

// CompareSearchMethods runs EMTS and the alternative meta-heuristics
// (hill climbing, simulated annealing, random search, and the (μ,λ) comma
// strategy) on every graph of the workload with an equal budget of fitness
// evaluations, all seeded from the MCPA allocation. budget should match an
// EMTS preset for a fair fight: 130 (EMTS5) or 1010 (EMTS10).
func CompareSearchMethods(w Workload, cluster platform.Cluster, modelName string, budget int, seed int64) (*SearchComparison, error) {
	m, err := sim.ModelByName(modelName)
	if err != nil {
		return nil, err
	}
	if budget < 10 {
		return nil, fmt.Errorf("exp: budget %d too small", budget)
	}
	// Match the EA shape to the budget: mu + U*lambda == budget.
	params := core.EMTS5(seed)
	if budget >= 1010 {
		params = core.EMTS10(seed)
	}

	ratios := map[string][]float64{}
	methods := search.Methods()
	for _, g := range w.Graphs {
		tab, err := model.NewTable(g, m, cluster)
		if err != nil {
			return nil, err
		}
		emtsRes, err := core.Run(g, tab, params)
		if err != nil {
			return nil, err
		}

		mcpaAlloc, err := alloc.MCPA{}.Allocate(g, tab)
		if err != nil {
			return nil, err
		}
		seeds := []schedule.Allocation{mcpaAlloc}
		// The search methods evaluate sequentially, so one Mapper per
		// instance serves the whole budget from warm arenas.
		mapper, err := listsched.NewMapper(g, tab)
		if err != nil {
			return nil, err
		}
		fitness := func(a schedule.Allocation, _ float64) (float64, error) {
			return mapper.Makespan(a)
		}
		for _, method := range methods {
			res, err := method.Optimize(g.NumTasks(), tab.Procs(), seeds, fitness, budget, seed)
			if err != nil {
				return nil, err
			}
			ratios[method.Name()] = append(ratios[method.Name()], res.Best.Fitness/emtsRes.Makespan)
		}

		// The (μ,λ) comma strategy on the same budget.
		comma := params
		comma.Strategy = ea.Comma
		commaRes, err := core.Run(g, tab, comma)
		if err != nil {
			return nil, err
		}
		ratios["comma-es"] = append(ratios["comma-es"], commaRes.Makespan/emtsRes.Makespan)
	}

	out := &SearchComparison{Budget: budget, Cluster: cluster.Name}
	order := []string{"hillclimb", "anneal", "random-search", "comma-es"}
	for _, name := range order {
		out.Rows = append(out.Rows, SearchRow{
			Method:         name,
			RelativeToEMTS: stats.Summarize(ratios[name]),
		})
	}
	return out, nil
}

// Format renders the comparison table.
func (c *SearchComparison) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Search-method comparison on %s (budget %d fitness evaluations; ratio > 1 means EMTS wins)\n",
		c.Cluster, c.Budget)
	fmt.Fprintf(&sb, "%-14s %10s %12s %6s\n", "method", "ratio", "95% CI", "n")
	for _, r := range c.Rows {
		fmt.Fprintf(&sb, "%-14s %10.3f %12s %6d\n",
			r.Method, r.RelativeToEMTS.Mean, fmt.Sprintf("±%.3f", r.RelativeToEMTS.CI95), r.RelativeToEMTS.N)
	}
	return sb.String()
}
