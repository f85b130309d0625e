package alloc

import (
	"math"

	"emts/internal/dag"
	"emts/internal/listsched"
	"emts/internal/model"
	"emts/internal/schedule"
)

// BiCPA implements the bi-criteria allocation of Desprez & Suter ("A
// Bi-criteria Algorithm for Scheduling Parallel Task Graphs on Clusters",
// CCGrid 2010), cited by the paper as related work that optimizes both the
// completion time of the PTG and the amount of resources used.
//
// The algorithm re-runs CPA's growth loop against a sweep of virtual cluster
// sizes q = 1..P: for size q, growth stops when T_CP <= area/q, so larger q
// yields more aggressive allocations. Because the threshold only tightens as
// q grows, the sweep is incremental — one pass of CPA's own growth loop
// (cpaLoop, with its incremental bottom levels) generates every candidate
// allocation, carrying the allocation and its area from one q to the next.
// Each candidate is then mapped with the list scheduler, and the final
// allocation minimizes the bi-criteria scalarization
// makespan^(1-Theta) * work^Theta, where work is the consumed processor-time
// (the resource criterion).
type BiCPA struct {
	// Theta in [0, 1) weighs resource usage against makespan; 0 selects the
	// pure-makespan candidate (default 0.5, an even tradeoff).
	Theta float64
	// Stride evaluates only every Stride-th cluster size (default 1). The
	// mapping of a candidate costs O(E + V log V + V·K), K ≤ min(P, V+1);
	// large platforms can trade optimality for speed.
	Stride int
}

// Name implements Allocator.
func (BiCPA) Name() string { return "bicpa" }

// Candidate records one swept allocation for diagnostics and Pareto
// analysis.
type Candidate struct {
	// Q is the virtual cluster size that produced the allocation.
	Q int
	// Alloc is the candidate allocation.
	Alloc schedule.Allocation
	// Makespan is the mapped completion time.
	Makespan float64
	// Work is the consumed processor-time Σ s(v)·T(v, s(v)).
	Work float64
}

// Allocate implements Allocator.
func (b BiCPA) Allocate(g *dag.Graph, tab *model.Table) (schedule.Allocation, error) {
	cands, err := b.Sweep(g, tab)
	if err != nil {
		return nil, err
	}
	theta := b.Theta
	if theta < 0 || theta >= 1 {
		theta = 0.5
	}
	best := -1
	bestScore := math.Inf(1)
	for i, c := range cands {
		score := math.Pow(c.Makespan, 1-theta) * math.Pow(c.Work, theta)
		if score < bestScore {
			bestScore = score
			best = i
		}
	}
	return cands[best].Alloc, nil
}

// Sweep generates the full candidate series (deduplicated by allocation
// change) for q = 1..P. The first candidate is always the all-ones
// allocation (q = 1).
func (b BiCPA) Sweep(g *dag.Graph, tab *model.Table) ([]Candidate, error) {
	if err := checkInputs(g, tab); err != nil {
		return nil, err
	}
	stride := b.Stride
	if stride < 1 {
		stride = 1
	}
	procs := tab.Procs()
	c := newCPALoop(g, tab, nil, nil)
	m, err := listsched.NewMapper(g, tab)
	if err != nil {
		return nil, err
	}
	var cands []Candidate
	changedSinceLast := true // force the q=1 candidate
	for q := 1; q <= procs; q += stride {
		if c.grow(q) {
			changedSinceLast = true
		}
		if !changedSinceLast {
			continue // identical to the previous candidate; skip the mapping
		}
		alloc := c.s.Clone()
		ms, err := m.Makespan(alloc)
		if err != nil {
			return nil, err
		}
		cands = append(cands, Candidate{Q: q, Alloc: alloc, Makespan: ms, Work: c.area})
		changedSinceLast = false
	}
	return cands, nil
}

// ParetoFront filters candidates to the (makespan, work) Pareto-optimal
// subset, ordered by increasing makespan.
func ParetoFront(cands []Candidate) []Candidate {
	var front []Candidate
	for _, c := range cands {
		dominated := false
		for _, o := range cands {
			if (o.Makespan < c.Makespan && o.Work <= c.Work) ||
				(o.Makespan <= c.Makespan && o.Work < c.Work) {
				dominated = true
				break
			}
		}
		if !dominated {
			front = append(front, c)
		}
	}
	// Insertion sort by makespan: fronts are small.
	for i := 1; i < len(front); i++ {
		for j := i; j > 0 && front[j].Makespan < front[j-1].Makespan; j-- {
			front[j], front[j-1] = front[j-1], front[j]
		}
	}
	return front
}
