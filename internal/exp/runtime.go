package exp

import (
	"fmt"
	"strings"
	"time"

	"emts/internal/core"
	"emts/internal/dag"
	"emts/internal/model"
	"emts/internal/platform"
	"emts/internal/stats"
)

// RuntimeRow is one entry of the run-time report of Section V-B: the
// wall-clock time EMTS spends optimizing schedules of one PTG class on one
// platform model.
type RuntimeRow struct {
	EMTS     string
	Workload string
	Cluster  string
	// Seconds summarizes the optimization wall-clock over the instances.
	Seconds stats.Summary
}

// RuntimeResult is the full table.
type RuntimeResult struct {
	ModelName string
	Rows      []RuntimeRow
}

// RuntimeTable measures EMTS5 and EMTS10 optimization times for a small PTG
// class (Strassen) and a large one (irregular n=100) on Chti and Grelon,
// mirroring the numbers quoted in Section V-B's prose. instances bounds the
// number of PTGs measured per class.
//
// The paper's prototype was Python on an Intel Core i5 (EMTS5: 0.45 s–5.5 s,
// EMTS10 on Grelon: 9.6 s–38.1 s) and the authors expected "a reduction of
// the run time by a factor of 10 for an optimized C program"; this Go
// implementation plays that role, so absolute values are expected to be
// roughly three orders of magnitude below the Python numbers while preserving
// the workload orderings (EMTS10 ≈ 8x EMTS5 in evaluations; larger PTGs cost
// more). Larger platforms barely do: the mapper's cost per task grows with
// the number of distinct processor free times, not with P.
func RuntimeTable(instances int, seed int64) (*RuntimeResult, error) {
	if instances < 1 {
		return nil, fmt.Errorf("exp: runtime table needs instances >= 1")
	}
	strassen, err := StrassenWorkload(instances, seed)
	if err != nil {
		return nil, err
	}
	irregular, err := IrregularWorkload(100, 1, seed+1000)
	if err != nil {
		return nil, err
	}
	if len(irregular.Graphs) > instances {
		irregular.Graphs = irregular.Graphs[:instances]
	}
	res := &RuntimeResult{ModelName: "synthetic"}
	// Tables are a pure function of (graph, cluster); memoize them so the
	// EMTS5 and EMTS10 sweeps over the same instances don't rebuild each
	// (and table construction stays out of the measured optimization times).
	type tabKey struct {
		g       *dag.Graph
		cluster platform.Cluster
	}
	tabs := make(map[tabKey]*model.Table)
	tableFor := func(g *dag.Graph, cluster platform.Cluster) (*model.Table, error) {
		key := tabKey{g: g, cluster: cluster}
		if tab, ok := tabs[key]; ok {
			return tab, nil
		}
		tab, err := model.NewTable(g, model.Synthetic{}, cluster)
		if err != nil {
			return nil, err
		}
		tabs[key] = tab
		return tab, nil
	}
	for _, emtsName := range []string{"emts5", "emts10"} {
		plan, err := emtsPlan("synthetic", emtsName, seed)
		if err != nil {
			return nil, err
		}
		for _, w := range []Workload{strassen, irregular} {
			for _, cluster := range []platform.Cluster{platform.Chti(), platform.Grelon()} {
				times := make([]float64, 0, len(w.Graphs))
				for _, g := range w.Graphs {
					tab, err := tableFor(g, cluster)
					if err != nil {
						return nil, err
					}
					start := time.Now()
					if _, err := core.Run(g, tab, *plan.Params); err != nil {
						return nil, err
					}
					times = append(times, time.Since(start).Seconds())
				}
				res.Rows = append(res.Rows, RuntimeRow{
					EMTS:     emtsName,
					Workload: w.Name,
					Cluster:  cluster.Name,
					Seconds:  stats.Summarize(times),
				})
			}
		}
	}
	return res, nil
}

// Format renders the table next to the paper's quoted Python numbers.
func (r *RuntimeResult) Format() string {
	paper := map[string]string{
		"emts5/Strassen/chti":           "0.45 s (SD 0.01)",
		"emts5/irregular n=100/chti":    "2.7 s (SD 1.1)",
		"emts5/Strassen/grelon":         "1.3 s (SD 0.07)",
		"emts5/irregular n=100/grelon":  "5.5 s (SD 1.7)",
		"emts10/Strassen/grelon":        "9.6 s (SD 0.5)",
		"emts10/irregular n=100/grelon": "38.1 s (SD 9.5)",
	}
	var sb strings.Builder
	sb.WriteString("EMTS optimization run time (Section V-B; paper numbers are the Python prototype on an i5)\n")
	fmt.Fprintf(&sb, "%-8s %-18s %-8s %14s %12s   %s\n",
		"EA", "workload", "cluster", "mean [s]", "SD [s]", "paper (Python)")
	for _, row := range r.Rows {
		key := row.EMTS + "/" + row.Workload + "/" + row.Cluster
		fmt.Fprintf(&sb, "%-8s %-18s %-8s %14.4f %12.4f   %s\n",
			row.EMTS, row.Workload, row.Cluster, row.Seconds.Mean, row.Seconds.SD, paper[key])
	}
	return sb.String()
}
