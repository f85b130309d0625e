// Package search implements alternative meta-heuristics for the moldable
// allocation problem on the same encoding and fitness function as EMTS:
// stochastic hill climbing, simulated annealing, and pure random search.
//
// Section VI of the paper names the comparison of "different evolutionary
// methods ... with respect to scheduling performance and speed" as future
// work; these methods (together with the (μ,λ)-strategy in package ea) are
// that comparison's subjects. All methods consume an explicit budget of
// fitness evaluations so they can be compared fairly against EMTS5
// (5 + 5·25 = 130 evaluations) and EMTS10 (10 + 10·100 = 1010).
package search

import (
	"fmt"
	"math"

	"emts/internal/ea"
	"emts/internal/schedule"
)

// Result reports the outcome of one optimization run.
type Result struct {
	// Best is the fittest allocation found and its fitness.
	Best ea.Individual
	// Evaluations counts fitness-function calls (== the requested budget
	// unless the method converged or an error occurred).
	Evaluations int
	// Accepted counts accepted moves (method-specific diagnostics).
	Accepted int
}

// Method optimizes an allocation vector of length v for a platform with
// procs processors against a fitness function, spending at most budget
// evaluations. seeds provides starting points (the first is used as the
// incumbent; an empty list starts from a random allocation).
type Method interface {
	// Name identifies the method in reports.
	Name() string
	// Optimize runs the search.
	Optimize(v, procs int, seeds []schedule.Allocation, fitness ea.Evaluator, budget int, seed int64) (*Result, error)
}

// validate checks the shared preconditions and returns the evaluated
// incumbent (best seed by fitness, or a random individual).
func validate(v, procs, budget int, seeds []schedule.Allocation, fitness ea.Evaluator, rng *ea.Rand) (ea.Individual, int, error) {
	if v < 1 || procs < 1 {
		return ea.Individual{}, 0, fmt.Errorf("search: v=%d procs=%d, want >= 1", v, procs)
	}
	if budget < 1 {
		return ea.Individual{}, 0, fmt.Errorf("search: budget %d, want >= 1", budget)
	}
	evals := 0
	var best ea.Individual
	bestSet := false
	for _, s := range seeds {
		if len(s) != v {
			return ea.Individual{}, 0, fmt.Errorf("search: seed has %d alleles, want %d", len(s), v)
		}
		if evals >= budget {
			break
		}
		cand := s.Clone().Clamp(procs)
		f, err := fitness(cand, 0)
		if err != nil {
			return ea.Individual{}, 0, err
		}
		evals++
		if !bestSet || f < best.Fitness {
			best = ea.Individual{Alloc: cand, Fitness: f}
			bestSet = true
		}
	}
	if !bestSet {
		cand := make(schedule.Allocation, v)
		for i := range cand {
			cand[i] = 1 + rng.Intn(procs)
		}
		f, err := fitness(cand, 0)
		if err != nil {
			return ea.Individual{}, 0, err
		}
		evals++
		best = ea.Individual{Alloc: cand, Fitness: f}
	}
	return best, evals, nil
}

// HillClimber is first-improvement stochastic hill climbing: each step
// mutates a few alleles of the incumbent with the paper's mutation operator
// and accepts the neighbour only if it is strictly better.
type HillClimber struct {
	// Mutations is the number of alleles changed per step (default 1).
	Mutations int
	// Mutator generates neighbours; nil means the paper's Eq. (1) operator.
	Mutator ea.Mutator
}

// Name implements Method.
func (HillClimber) Name() string { return "hillclimb" }

// Optimize implements Method.
func (h HillClimber) Optimize(v, procs int, seeds []schedule.Allocation, fitness ea.Evaluator, budget int, seed int64) (*Result, error) {
	rng := ea.NewRand(seed)
	cur, evals, err := validate(v, procs, budget, seeds, fitness, rng)
	if err != nil {
		return nil, err
	}
	mut := h.Mutator
	if mut == nil {
		mut = ea.DefaultPaperMutator()
	}
	m := h.Mutations
	if m < 1 {
		m = 1
	}
	res := &Result{Best: cur.Clone(), Evaluations: evals}
	for res.Evaluations < budget {
		cand := cur.Alloc.Clone()
		mut.Mutate(rng, cand, m, procs)
		f, err := fitness(cand, 0)
		if err != nil {
			return nil, err
		}
		res.Evaluations++
		if f < cur.Fitness {
			cur = ea.Individual{Alloc: cand, Fitness: f}
			res.Accepted++
			if f < res.Best.Fitness {
				res.Best = cur.Clone()
			}
		}
	}
	return res, nil
}

// Annealer is simulated annealing with geometric cooling: worse neighbours
// are accepted with probability exp(-Δ/T), where Δ is the relative fitness
// degradation and T cools from T0 to roughly T0·Cooling^budget.
type Annealer struct {
	// T0 is the initial temperature on the relative-degradation scale
	// (default 0.05: a 5% worse neighbour starts ~37% acceptable).
	T0 float64
	// Cooling is the per-evaluation temperature factor (default set so the
	// temperature decays by ~100x across the budget).
	Cooling float64
	// Mutations is the number of alleles changed per step (default 1).
	Mutations int
	// Mutator generates neighbours; nil means the paper's Eq. (1) operator.
	Mutator ea.Mutator
}

// Name implements Method.
func (Annealer) Name() string { return "anneal" }

// Optimize implements Method.
func (a Annealer) Optimize(v, procs int, seeds []schedule.Allocation, fitness ea.Evaluator, budget int, seed int64) (*Result, error) {
	rng := ea.NewRand(seed)
	cur, evals, err := validate(v, procs, budget, seeds, fitness, rng)
	if err != nil {
		return nil, err
	}
	mut := a.Mutator
	if mut == nil {
		mut = ea.DefaultPaperMutator()
	}
	m := a.Mutations
	if m < 1 {
		m = 1
	}
	t0 := a.T0
	if t0 <= 0 {
		t0 = 0.05
	}
	cooling := a.Cooling
	if cooling <= 0 || cooling >= 1 {
		// Decay to t0/100 across the remaining budget.
		steps := budget - evals
		if steps < 1 {
			steps = 1
		}
		cooling = math.Pow(0.01, 1/float64(steps))
	}
	res := &Result{Best: cur.Clone(), Evaluations: evals}
	temp := t0
	for res.Evaluations < budget {
		cand := cur.Alloc.Clone()
		mut.Mutate(rng, cand, m, procs)
		f, err := fitness(cand, 0)
		if err != nil {
			return nil, err
		}
		res.Evaluations++
		accept := f < cur.Fitness
		if !accept && cur.Fitness > 0 && temp > 0 {
			delta := (f - cur.Fitness) / cur.Fitness
			accept = rng.Float64() < math.Exp(-delta/temp)
		}
		if accept {
			cur = ea.Individual{Alloc: cand, Fitness: f}
			res.Accepted++
			if f < res.Best.Fitness {
				res.Best = cur.Clone()
			}
		}
		temp *= cooling
	}
	return res, nil
}

// RandomSearch samples uniform random allocations and keeps the best — the
// baseline every informed method must beat.
type RandomSearch struct{}

// Name implements Method.
func (RandomSearch) Name() string { return "random-search" }

// Optimize implements Method.
func (RandomSearch) Optimize(v, procs int, seeds []schedule.Allocation, fitness ea.Evaluator, budget int, seed int64) (*Result, error) {
	rng := ea.NewRand(seed)
	best, evals, err := validate(v, procs, budget, seeds, fitness, rng)
	if err != nil {
		return nil, err
	}
	res := &Result{Best: best.Clone(), Evaluations: evals}
	cand := make(schedule.Allocation, v)
	for res.Evaluations < budget {
		for i := range cand {
			cand[i] = 1 + rng.Intn(procs)
		}
		f, err := fitness(cand, 0)
		if err != nil {
			return nil, err
		}
		res.Evaluations++
		if f < res.Best.Fitness {
			res.Best = ea.Individual{Alloc: cand.Clone(), Fitness: f}
			res.Accepted++
		}
	}
	return res, nil
}

// Methods returns the implemented methods with default parameters.
func Methods() []Method {
	return []Method{HillClimber{}, Annealer{}, RandomSearch{}}
}
