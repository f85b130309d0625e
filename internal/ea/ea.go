// Package ea provides the (μ+λ) evolution-strategy machinery of EMTS
// (Section III of the paper): the individual encoding, the adaptive
// mutation-count schedule, the asymmetric mutation operator of Eq. (1),
// plus-selection, and a deterministic parallel fitness-evaluation loop.
//
// The package is deliberately independent of graphs and schedules: an
// individual is an allocation vector and fitness is whatever the supplied
// Evaluator computes (for EMTS, the makespan produced by the list-scheduling
// mapping function). This keeps the evolutionary core reusable and testable
// in isolation.
package ea

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"

	"emts/internal/schedule"
)

// Individual pairs an allocation vector (the encoding of Figure 2: position i
// holds s(v_i)) with its fitness, the makespan of the mapped schedule.
// Smaller fitness is better.
type Individual struct {
	Alloc   schedule.Allocation
	Fitness float64
	// Sigma is the individual's mutation step size when the run uses
	// self-adaptation (Config.SelfAdaptive); 0 otherwise.
	Sigma float64
}

// Clone returns a deep copy of the individual.
func (ind Individual) Clone() Individual {
	return Individual{Alloc: ind.Alloc.Clone(), Fitness: ind.Fitness, Sigma: ind.Sigma}
}

// Evaluator computes the fitness of an allocation. rejectAbove > 0 allows the
// evaluator to abort early once the fitness is shown to exceed the bound, up
// to rounding: it then returns schedule.ErrRejected (or its prefilter
// variant, schedule.ErrRejectedPrefilter, counted in
// Result.PrefilterRejections) and the individual is treated as infinitely
// unfit. The run passes a bound to every offspring evaluation of a
// plus-selection run (the worst parent's fitness, see Result.Culls) or of a
// UseRejection run (the best fitness so far, Section VI). An evaluator may
// ignore the bound; one that honours it must never reject a fitness more
// than a part in 1e9 below the bound. Evaluators must be pure functions:
// they are called concurrently from multiple goroutines.
type Evaluator func(alloc schedule.Allocation, rejectAbove float64) (float64, error)

// Mutator derives one offspring allocation change. Implementations mutate
// exactly the requested number of alleles (or all of them if the vector is
// shorter) and must keep every allele within [1, procs]. A run checks every
// child of a Mutator defined outside this package and fails with
// schedule.Allocation.Validate's error on the first one out of range;
// PaperMutator's and UniformMutator's children are in range by construction
// and are not checked.
type Mutator interface {
	// Name identifies the operator in ablation reports.
	Name() string
	// Mutate modifies m distinct alleles of alloc in place, drawing from rng.
	Mutate(rng *Rand, alloc schedule.Allocation, m, procs int)
}

// PaperMutator is the mutation operator of Section III-D. The number of
// processors C added to or removed from an allocation is
//
//	C = +(⌊|X₂|⌋ + 1) with probability 1 − A (stretch), X₂ ~ N(0, σ₂)
//	C = −(⌊|X₁|⌋ + 1) with probability A     (shrink),  X₁ ~ N(0, σ₁)
//
// so |C| >= 1 always, small changes are more likely than large ones, and
// shrinking is less likely than stretching (A = 0.2 in the paper: "the number
// of processors allocated to a task decreases with a probability of 20%").
// The result is clamped to [1, procs]. See DESIGN.md item 4.2 for the sign
// convention relative to the paper's Eq. (1).
type PaperMutator struct {
	// A is the shrink probability (paper: 0.2).
	A float64
	// Sigma1 is the standard deviation of the shrink magnitude (paper: 5).
	Sigma1 float64
	// Sigma2 is the standard deviation of the stretch magnitude (paper: 5).
	Sigma2 float64
}

// DefaultPaperMutator returns the operator with the paper's parameters
// (a = 0.2, σ₁ = σ₂ = 5, as in Figure 3).
func DefaultPaperMutator() PaperMutator { return PaperMutator{A: 0.2, Sigma1: 5, Sigma2: 5} }

// Name implements Mutator.
func (PaperMutator) Name() string { return "paper-eq1" }

// Delta samples the allocation adjustment C of Eq. (1).
func (pm PaperMutator) Delta(rng *Rand) int {
	if rng.Float64() < pm.A {
		return -(int(math.Floor(math.Abs(rng.NormFloat64()*pm.Sigma1))) + 1)
	}
	return int(math.Floor(math.Abs(rng.NormFloat64()*pm.Sigma2))) + 1
}

// Mutate implements Mutator: it adjusts m distinct random alleles by Delta,
// clamping each result into [1, procs]. Delta does not inline, so its draws
// are written out here rather than called once per allele.
//
//schedlint:hotpath
func (pm PaperMutator) Mutate(rng *Rand, alloc schedule.Allocation, m, procs int) {
	for _, i := range rng.positions(len(alloc), m) {
		var v int
		if rng.Float64() < pm.A {
			v = alloc[i] - (int(math.Floor(math.Abs(rng.NormFloat64()*pm.Sigma1))) + 1)
		} else {
			v = alloc[i] + int(math.Floor(math.Abs(rng.NormFloat64()*pm.Sigma2))) + 1
		}
		alloc[i] = min(max(v, 1), procs)
	}
}

// UniformMutator resamples each selected allele uniformly from [1, procs].
// It is the "any uniform distribution could be applied" strawman of Section
// III-D, kept for the mutation-operator ablation (DESIGN.md experiment A1).
type UniformMutator struct{}

// Name implements Mutator.
func (UniformMutator) Name() string { return "uniform" }

// Mutate implements Mutator.
//
//schedlint:hotpath
func (UniformMutator) Mutate(rng *Rand, alloc schedule.Allocation, m, procs int) {
	for _, i := range rng.positions(len(alloc), m) {
		alloc[i] = 1 + rng.Intn(procs)
	}
}

// positions draws min(m, n) distinct indices from [0, n) by a partial
// Fisher-Yates shuffle of the stream's position buffer, with m Intn draws,
// and returns them in the buffer, valid until the next call. The buffer
// holds the identity between calls except at the places the last call
// swapped, and positions restores those first in O(m) instead of resetting
// the buffer in O(n): only the first m places and the drawn positions at or
// past m were written, since a place p ≥ m first swapped at step i sends its
// own value p to place i, where it stays, so p was drawn. The buffer grows to
// the longest allocation once per stream, so the offspring loop allocates
// nothing.
//
//schedlint:hotpath
func (r *Rand) positions(n, m int) []int {
	perm := r.perm
	for _, p := range perm[:r.drawn] {
		if p >= r.drawn {
			perm[p] = p
		}
	}
	for i := range perm[:r.drawn] {
		perm[i] = i
	}
	if len(perm) < n {
		//schedlint:allow hotescape -- grows once per stream, to the longest allocation mutated
		perm = make([]int, n)
		for i := range perm {
			perm[i] = i
		}
		r.perm = perm
	}
	m = max(min(m, n), 0)
	for i := 0; i < m; i++ {
		j := i + r.Intn(n-i)
		perm[i], perm[j] = perm[j], perm[i]
	}
	r.drawn = m
	return perm[:m]
}

// MutationCount implements the adaptive schedule of Section III-C: in
// generation u of U (0-based), m = (1 − u/U)·fm·V alleles are mutated, so
// exploration shrinks as the search converges. The count is clamped to at
// least 1 so every offspring differs from its parent (DESIGN.md item 4.3).
func MutationCount(u, generations int, fm float64, v int) int {
	if generations <= 0 {
		generations = 1
	}
	m := int(math.Round((1 - float64(u)/float64(generations)) * fm * float64(v)))
	if m < 1 {
		m = 1
	}
	if m > v {
		m = v
	}
	return m
}

// Strategy selects how the next parent generation is formed.
type Strategy int

const (
	// Plus is the (μ+λ) strategy of the paper: parents compete with their
	// offspring, so the best solution is always conserved and the population
	// never worsens (Section IV, citing Schwefel & Rudolph).
	Plus Strategy = iota
	// Comma is the (μ,λ) strategy: parents are discarded and the μ best
	// offspring survive. Requires Lambda >= Mu. The population may worsen,
	// which helps escaping local optima at the cost of monotonicity; the
	// overall best individual is still tracked across generations. Provided
	// for the strategy comparison the paper lists as future work
	// (Section VI).
	Comma
)

// String implements fmt.Stringer.
func (s Strategy) String() string {
	if s == Comma {
		return "comma"
	}
	return "plus"
}

// GenStats summarizes one generation's selection pool for tracing.
type GenStats struct {
	// Generation is the 0-based index u.
	Generation int
	// Island is the 0-based index of the island that produced this
	// generation; always 0 for single-island runs. Multi-island runs deliver
	// one GenStats per island per generation, in (generation, island) order.
	Island int
	// Best, Mean, Worst summarize the finite fitness values of the pool the
	// new parents were selected from. Rejected and culled offspring have no
	// finite fitness, so they are left out: in a plus-selection run without
	// UseRejection, Mean and Worst cover the parents and the offspring that
	// were not culled (see Result.Culls). Best is unaffected.
	Best, Mean, Worst float64
	// BestEver is the best fitness seen so far, including earlier
	// generations. For multi-island runs it is the aggregate minimum across
	// every island and every delivered generation, so the sequence of
	// BestEver values an observer sees is non-increasing and its last value
	// equals Result.Best.Fitness exactly.
	BestEver float64
	// Rejected counts this generation's offspring rejected by the
	// UseRejection bound. Culled offspring are not counted.
	Rejected int
	// Evaluations and PrefilterRejections are cumulative snapshots of the
	// run's counters (Result.Evaluations etc.) taken after this generation's
	// evaluation pass — observers (progress streams, anytime dashboards) can
	// report budget consumption without waiting for the final Result.
	Evaluations         int
	PrefilterRejections int
}

// Config parametrizes one (μ+λ) evolution-strategy run.
type Config struct {
	// Mu is the number of parents kept each generation (paper: 5 or 10).
	Mu int
	// Lambda is the number of offspring per generation (paper: 25 or 100).
	Lambda int
	// Generations is U, the number of evolutionary steps (paper: 5 or 10).
	Generations int
	// Fm is the initial fraction of alleles mutated (paper: 0.33).
	Fm float64
	// Mutator generates offspring; nil means DefaultPaperMutator.
	Mutator Mutator
	// CrossoverProb, when positive, creates offspring by uniform crossover of
	// two distinct parents with this probability before mutation. The paper
	// argues for mutation-only (Section III-C); crossover exists for the
	// ablation study A4.
	CrossoverProb float64
	// UseRejection passes the best fitness found so far as rejectAbove to the
	// Evaluator, enabling the early-abort optimization of Section VI. Unlike
	// the cull (Result.Culls), it can change results: under plus selection
	// with μ > 1 a child worse than the best but better than the worst parent
	// would have become a parent, and rejection drops it. EXPERIMENTS.md A3
	// gives the measured effect.
	UseRejection bool
	// Workers bounds the parallelism of the run (0 = GOMAXPROCS; a budget
	// above GOMAXPROCS counts as GOMAXPROCS, see WorkerCount): each island's
	// engine evaluates on an equal share of it, each worker through an
	// evaluator of its own, and helpers start evaluating a generation's
	// offspring while the rest are still being mutated. 1 forces sequential
	// evaluation. Results never depend on it.
	Workers int
	// Seed drives all stochastic choices; equal seeds give equal runs.
	Seed int64
	// Islands, when > 1, runs that many independent populations (the
	// coarse-grained island model, DESIGN.md §17), each with a private RNG
	// stream derived from Seed by splitmix64 (island 0 keeps the raw seed),
	// a private evaluation engine, and Mu parents of its own; every
	// MigrationInterval generations a copy of each island's best parent
	// goes to the next island of a ring. 0 and 1 both mean the classic
	// single panmictic population, which is bit-identical to runs predating
	// the island layer. Results for any fixed Islands value are independent
	// of Workers and GOMAXPROCS.
	Islands int
	// MigrationInterval is the number of generations between migrations for
	// Islands > 1; 0 defaults to 1 (migrate at every generation boundary).
	// The final generation is never followed by a migration.
	MigrationInterval int
	// Strategy selects plus- (default) or comma-selection.
	Strategy Strategy
	// SelfAdaptive enables per-individual mutation step sizes in the style
	// of contemporary evolution strategies (Schwefel & Rudolph, cited in
	// Section IV): each individual starts at the paper's σ = 5, each
	// offspring inherits its parent's σ, perturbs it log-normally
	// (τ = 1/√(2V)), and mutates its alleles with the paper's Eq. (1)
	// operator at σ₁ = σ₂ = σ'. Overrides Mutator.
	SelfAdaptive bool
	// OnGeneration, when non-nil, receives per-generation statistics after
	// selection. It is called from the Run goroutine, in order.
	OnGeneration func(GenStats)
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Mu < 1 {
		return fmt.Errorf("ea: mu = %d, want >= 1", c.Mu)
	}
	if c.Lambda < 1 {
		return fmt.Errorf("ea: lambda = %d, want >= 1", c.Lambda)
	}
	if c.Generations < 1 {
		return fmt.Errorf("ea: generations = %d, want >= 1", c.Generations)
	}
	if c.Fm <= 0 || c.Fm > 1 {
		return fmt.Errorf("ea: fm = %g, want in ]0, 1]", c.Fm)
	}
	if c.CrossoverProb < 0 || c.CrossoverProb > 1 {
		return fmt.Errorf("ea: crossover probability %g outside [0,1]", c.CrossoverProb)
	}
	if c.Strategy == Comma && c.Lambda < c.Mu {
		return fmt.Errorf("ea: comma strategy needs lambda (%d) >= mu (%d)", c.Lambda, c.Mu)
	}
	if c.Islands < 0 {
		return fmt.Errorf("ea: islands = %d, want >= 0", c.Islands)
	}
	if c.MigrationInterval < 0 {
		return fmt.Errorf("ea: migration interval = %d, want >= 0", c.MigrationInterval)
	}
	return nil
}

// Result reports the outcome of a run.
type Result struct {
	// Best is the fittest individual ever evaluated.
	Best Individual
	// History holds the best fitness after initialization (History[0]) and
	// after each generation; it is non-increasing by plus-selection.
	History []float64
	// Evaluations counts fitness evaluations, rejected ones included: one per
	// individual of the initial pool and one per offspring.
	Evaluations int
	// Rejections counts evaluations aborted by the UseRejection bound.
	Rejections int
	// PrefilterRejections counts the subset of Rejections decided by an O(V)
	// lower-bound prefilter before the full fitness computation
	// (schedule.ErrRejectedPrefilter): every evaluation reaches an
	// evaluator, so the counter is exactly the number of map loops skipped.
	PrefilterRejections int
	// Culls counts offspring whose evaluation was cut short because
	// plus-selection could not keep them. Every offspring of a plus-selection
	// run without UseRejection is evaluated under a bound of the worst
	// parent's fitness times 1 + 1e-9, and a child the evaluator rejects
	// there (schedule.ErrRejected or its prefilter variant) scores +Inf.
	// Such a child is at least as unfit as the worst parent, which selection
	// keeps ahead of it, so a run culls exactly the offspring selection
	// drops and returns the same Best, History and counters as with an
	// evaluator that ignores its bound. Culls are counted neither in
	// Rejections nor in PrefilterRejections, and in Evaluations like any
	// other offspring.
	Culls int
	// Generations counts the generations actually completed. It equals
	// Config.Generations for a full run and may be smaller when the run was
	// cancelled mid-flight — Best then holds the incumbent at cancellation,
	// a valid anytime answer by plus-selection's incumbent monotonicity.
	Generations int
}

// Run executes the (μ+λ) evolution strategy on allocations of length v for a
// platform with procs processors, starting from the given seed individuals
// (allocations from heuristics such as MCPA and HCPA, Section III-B, with
// their fitness). Missing parents are filled with uniform random individuals;
// surplus seeds compete, and the best μ form the first parent generation.
//
// Each seed's Fitness must be what the run's evaluators return for its Alloc
// without a bound, as core.Run's seeding workers compute it: the run takes
// those values instead of evaluating the seeds, and it evaluates a random
// fill individual only if no seed holds the same allocation. Evaluations
// counts the seeds all the same. A seed must already hold v alleles in
// [1, procs]: it is checked, not clamped, since its fitness belongs to
// exactly that allocation.
//
// Each island's engine calls newEval once for each of its workers, on the
// island's goroutine, before the first parallel evaluation starts the
// helpers that then serve the island until the run returns. It calls each
// evaluator from one goroutine at a time, so an arena-backed evaluator (a
// listsched.Mapper, as core.Run wires it) reuses its scratch state without
// locks. No helper outlives the run. The evaluators must obey Evaluator's
// purity contract.
//
// Because the paper uses a plus-strategy, the best solution is conserved: the
// population never worsens across generations (Section IV, citing Schwefel &
// Rudolph).
//
// ctx is observed before the initial evaluation and before every epoch, the
// generations between two migrations (one generation when Islands <= 1), so
// cancellation adds zero cost to the hot fitness path and cannot perturb the
// RNG streams: a run that completes under a live context is bit-identical to
// the same seed under context.Background(). On cancellation the error wraps
// ctx's cause (context.Canceled or DeadlineExceeded), so errors.Is works. A
// cancellation after initialization returns the partial Result alongside the
// error: Best is the incumbent at cancellation (a valid answer by
// plus-selection — the population never worsens) and Result.Generations
// counts the generations every island completed, 0 when ctx was cancelled
// during the initial evaluation. Only a cancellation before the initial
// evaluation returns a nil Result.
func Run(ctx context.Context, cfg Config, v, procs int, seeds []Individual, newEval func() Evaluator) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("ea: run cancelled before initialization: %w", err)
	}
	if v < 1 {
		return nil, fmt.Errorf("ea: individual length %d, want >= 1", v)
	}
	if procs < 1 {
		return nil, fmt.Errorf("ea: procs = %d, want >= 1", procs)
	}
	if newEval == nil {
		return nil, errors.New("ea: no evaluator")
	}
	return runIslands(ctx, cfg, v, procs, seeds, newEval)
}

// poolStats summarizes the finite fitness values of a selection pool.
func poolStats(u int, pool []Individual, bestEver float64, rejected int) GenStats {
	gs := GenStats{Generation: u, BestEver: bestEver, Rejected: rejected}
	n := 0
	sum := 0.0
	for _, ind := range pool {
		if math.IsInf(ind.Fitness, 0) {
			continue
		}
		if n == 0 || ind.Fitness < gs.Best {
			gs.Best = ind.Fitness
		}
		if n == 0 || ind.Fitness > gs.Worst {
			gs.Worst = ind.Fitness
		}
		sum += ind.Fitness
		n++
	}
	if n > 0 {
		gs.Mean = sum / float64(n)
	}
	return gs
}

// uniformCrossover overwrites roughly half of child's alleles with other's.
func uniformCrossover(rng *Rand, child, other schedule.Allocation) {
	for i := range child {
		if rng.Intn(2) == 0 {
			child[i] = other[i]
		}
	}
}

// selectBest returns the mu fittest individuals of pool (stable order, so
// earlier individuals win ties — parents persist over equal offspring).
//
// The first stable entries of pool are backed by vectors that stay live and
// unmutated for the rest of the run (previous parents, or the fresh initial
// pool); they are passed through without cloning. Cloning every survivor
// instead raised an EMTS10 run from 190 to 282 allocations and from 195 to
// 277 KB (DESIGN.md §10). Entries at index >= stable are arena-backed
// offspring and are cloned. Sorting indices instead of the individuals
// keeps the tie-breaking identical to a stable sort of the pool itself.
func selectBest(pool []Individual, mu, stable int) []Individual {
	idx := make([]int, len(pool))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return pool[idx[a]].Fitness < pool[idx[b]].Fitness })
	if mu > len(idx) {
		mu = len(idx)
	}
	out := make([]Individual, mu)
	for i := range out {
		j := idx[i]
		if j < stable {
			out[i] = pool[j]
		} else {
			out[i] = pool[j].Clone()
		}
	}
	return out
}
