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
	"math/rand"
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

	// parent and mutated record the offspring's lineage for delta-aware
	// evaluation (DESIGN.md §10, Layer 3): parent is the parent's live
	// allocation vector and mutated lists the allele positions the mutation
	// operator touched, so Alloc[i] == parent[i] for every position not in
	// mutated. Both are nil for seeds, crossover offspring, and selected
	// parents (Clone and selectBest clear them). Run only sets them when the
	// parent vector is guaranteed to stay unmutated for the rest of the run.
	parent  schedule.Allocation
	mutated []int
}

// Clone returns a deep copy of the individual. Lineage is not carried over:
// a clone is a free-standing vector, not a delta against its parent.
func (ind Individual) Clone() Individual {
	return Individual{Alloc: ind.Alloc.Clone(), Fitness: ind.Fitness, Sigma: ind.Sigma}
}

// Evaluator computes the fitness of an allocation. rejectAbove > 0 allows the
// evaluator to abort early (Section VI's rejection strategy) once it can
// prove the fitness exceeds the bound; it then returns ErrRejected and the
// individual is treated as infinitely unfit. Evaluators must be pure
// functions: they are called concurrently from multiple goroutines.
type Evaluator func(alloc schedule.Allocation, rejectAbove float64) (float64, error)

// DeltaEvaluator is an Evaluator that additionally receives the offspring's
// lineage: the parent allocation it was mutated from and the positions that
// were mutated. Implementations may exploit the lineage to skip work (see
// listsched.Mapper.MakespanDelta) but must return bit-identical results to a
// lineage-free evaluation of alloc. parent may be nil (no usable lineage);
// implementations must then fall back to a full evaluation.
type DeltaEvaluator func(alloc, parent schedule.Allocation, mutated []int, rejectAbove float64) (float64, error)

// ErrRejected is returned by an Evaluator that aborted due to rejectAbove.
// It mirrors listsched.ErrRejected without importing the package.
var ErrRejected = errors.New("ea: individual rejected by fitness bound")

// ErrRejectedPrefilter is the ErrRejected variant for rejections decided by
// an O(V) lower-bound prefilter before the full fitness computation
// (listsched.ErrRejectedPrefilter, mirrored here without the import). It
// wraps ErrRejected; the engine counts it separately in
// Result.PrefilterRejections.
var ErrRejectedPrefilter = fmt.Errorf("%w (lower-bound prefilter)", ErrRejected)

// Mutator derives one offspring allocation change. Implementations mutate
// exactly the requested number of alleles (or all of them if the vector is
// shorter) and must keep every allele within [1, procs].
type Mutator interface {
	// Name identifies the operator in ablation reports.
	Name() string
	// Mutate modifies m distinct alleles of alloc in place.
	Mutate(rng *rand.Rand, alloc schedule.Allocation, m, procs int)
}

// PositionsMutator is an optional extension of Mutator for operators that can
// report which positions they touched and work from a caller-owned scratch
// buffer. Run uses it for two things: zero-allocation offspring generation
// (the permutation buffer is reused across all offspring of a run) and
// lineage threading to delta-aware evaluators. MutateInto must consume the
// RNG in exactly the same call sequence as Mutate, so switching between the
// two paths cannot change a seeded run.
type PositionsMutator interface {
	Mutator
	// MutateInto is Mutate using perm (grown if needed) as the position
	// scratch buffer. It returns the mutated positions; the returned slice
	// aliases perm and is only valid until the next call.
	MutateInto(rng *rand.Rand, alloc schedule.Allocation, m, procs int, perm []int) []int
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
func (pm PaperMutator) Delta(rng *rand.Rand) int {
	if rng.Float64() < pm.A {
		return -(int(math.Floor(math.Abs(rng.NormFloat64()*pm.Sigma1))) + 1)
	}
	return int(math.Floor(math.Abs(rng.NormFloat64()*pm.Sigma2))) + 1
}

// Mutate implements Mutator: it adjusts m distinct random alleles by Delta,
// clamping each result into [1, procs].
func (pm PaperMutator) Mutate(rng *rand.Rand, alloc schedule.Allocation, m, procs int) {
	pm.MutateInto(rng, alloc, m, procs, nil)
}

// MutateInto implements PositionsMutator.
func (pm PaperMutator) MutateInto(rng *rand.Rand, alloc schedule.Allocation, m, procs int, perm []int) []int {
	positions := samplePositionsInto(rng, len(alloc), m, perm)
	for _, i := range positions {
		v := alloc[i] + pm.Delta(rng)
		if v < 1 {
			v = 1
		}
		if v > procs {
			v = procs
		}
		alloc[i] = v
	}
	return positions
}

// UniformMutator resamples each selected allele uniformly from [1, procs].
// It is the "any uniform distribution could be applied" strawman of Section
// III-D, kept for the mutation-operator ablation (DESIGN.md experiment A1).
type UniformMutator struct{}

// Name implements Mutator.
func (UniformMutator) Name() string { return "uniform" }

// Mutate implements Mutator.
func (UniformMutator) Mutate(rng *rand.Rand, alloc schedule.Allocation, m, procs int) {
	UniformMutator{}.MutateInto(rng, alloc, m, procs, nil)
}

// MutateInto implements PositionsMutator.
func (UniformMutator) MutateInto(rng *rand.Rand, alloc schedule.Allocation, m, procs int, perm []int) []int {
	positions := samplePositionsInto(rng, len(alloc), m, perm)
	for _, i := range positions {
		alloc[i] = 1 + rng.Intn(procs)
	}
	return positions
}

// samplePositions draws min(m, n) distinct indices from [0, n) via a partial
// Fisher-Yates shuffle.
func samplePositions(rng *rand.Rand, n, m int) []int {
	return samplePositionsInto(rng, n, m, nil)
}

// samplePositionsInto is samplePositions writing into perm, which is grown if
// its capacity is below n and reused otherwise — the offspring loop of Run
// passes one buffer for the whole run, so mutation allocates nothing. The
// RNG consumption (m Intn calls) is identical regardless of the buffer.
func samplePositionsInto(rng *rand.Rand, n, m int, perm []int) []int {
	if m > n {
		m = n
	}
	if m <= 0 {
		return nil
	}
	if cap(perm) < n {
		perm = make([]int, n)
	}
	idx := perm[:n]
	for i := range idx {
		idx[i] = i
	}
	for i := 0; i < m; i++ {
		j := i + rng.Intn(n-i)
		idx[i], idx[j] = idx[j], idx[i]
	}
	return idx[:m]
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
	// new parents were selected from.
	Best, Mean, Worst float64
	// BestEver is the best fitness seen so far, including earlier
	// generations. For multi-island runs it is the aggregate minimum across
	// every island and every delivered generation, so the sequence of
	// BestEver values an observer sees is non-increasing and its last value
	// equals Result.Best.Fitness exactly.
	BestEver float64
	// Rejected counts this generation's rejected offspring.
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
	// Evaluator, enabling the early-abort optimization of Section VI.
	UseRejection bool
	// Workers bounds the parallelism of fitness evaluation; 0 means
	// runtime.GOMAXPROCS(0). 1 forces sequential evaluation.
	Workers int
	// DeltaEvaluatorFactory, when non-nil, supplies one (plain, delta)
	// evaluator pair per worker goroutine instead of sharing the Evaluator
	// passed to Run. Each worker owns its pair for the whole run, so
	// arena-backed evaluators (listsched.Mapper) reuse their scratch state
	// lock-free: a (5+25)×5 EMTS run builds O(workers) arenas instead of ~130.
	// The delta evaluator is used for offspring with a recorded lineage (pure
	// mutations of a live parent), the plain one for everything else. Both
	// must be backed by the same state, so the delta path sees the same arenas
	// (see core.Run's wiring of listsched.Mapper.MakespanDelta), and both must
	// obey the purity contract of Evaluator.
	DeltaEvaluatorFactory func() (Evaluator, DeltaEvaluator)
	// DisableDelta ignores DeltaEvaluatorFactory's delta evaluator and
	// lineage information, forcing full evaluations. Results are
	// bit-identical either way (the delta sweep is exact); the switch exists
	// for A/B measurement and regression tests.
	DisableDelta bool
	// Seed drives all stochastic choices; equal seeds give equal runs.
	Seed int64
	// Islands, when > 1, runs that many independent populations (the
	// coarse-grained island model, DESIGN.md §17), each with a private RNG
	// stream derived from Seed by splitmix64 (island 0 keeps the raw seed),
	// a private evaluation engine, and Mu parents of its own; the islands
	// exchange their best individuals every MigrationInterval generations.
	// 0 and 1 both mean the classic single panmictic population, which is
	// bit-identical to runs predating the island layer. Results for any
	// fixed Islands value are independent of Workers and GOMAXPROCS.
	Islands int
	// MigrationInterval is the number of generations between migrations for
	// Islands > 1; 0 defaults to 1 (migrate at every generation boundary).
	// The final generation is never followed by a migration.
	MigrationInterval int
	// MigrationCount is the number of top individuals each island emits per
	// migration (its rank-ordered parent prefix); 0 defaults to 1.
	MigrationCount int
	// Topology selects who receives whose migrants: TopologyRing (the
	// default, also "") or TopologyFull.
	Topology string
	// Strategy selects plus- (default) or comma-selection.
	Strategy Strategy
	// SelfAdaptive enables per-individual mutation step sizes in the style
	// of contemporary evolution strategies (Schwefel & Rudolph, cited in
	// Section IV): each offspring inherits its parent's σ, perturbs it
	// log-normally (τ = 1/√(2V)), and mutates its alleles with the paper's
	// Eq. (1) operator at σ₁ = σ₂ = σ'. Overrides Mutator.
	SelfAdaptive bool
	// InitialSigma is the starting step size for self-adaptation
	// (default 5, the paper's σ).
	InitialSigma float64
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
	if c.MigrationCount < 0 {
		return fmt.Errorf("ea: migration count = %d, want >= 0", c.MigrationCount)
	}
	switch c.Topology {
	case "", TopologyRing, TopologyFull:
	default:
		return fmt.Errorf("ea: unknown topology %q (want %q or %q)", c.Topology, TopologyRing, TopologyFull)
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
	// Rejections counts evaluations aborted by the rejection bound.
	Rejections int
	// PrefilterRejections counts the subset of Rejections decided by an O(V)
	// lower-bound prefilter before the full fitness computation
	// (ErrRejectedPrefilter): every evaluation reaches an evaluator, so the
	// counter is exactly the number of map loops skipped.
	PrefilterRejections int
	// Generations counts the generations actually completed. It equals
	// Config.Generations for a full run and may be smaller when the run was
	// cancelled mid-flight — Best then holds the incumbent at cancellation,
	// a valid anytime answer by plus-selection's incumbent monotonicity.
	Generations int
}

// Run executes the (μ+λ) evolution strategy on allocations of length v for a
// platform with procs processors, starting from the given seed individuals
// (already-allocated vectors from heuristics such as MCPA and HCPA,
// Section III-B). Missing parents are filled with uniform random individuals;
// surplus seeds compete, and the best μ form the first parent generation.
// fitness is shared by every worker; it may be nil when
// cfg.DeltaEvaluatorFactory supplies per-worker evaluators instead.
//
// Because the paper uses a plus-strategy, the best solution is conserved: the
// population never worsens across generations (Section IV, citing Schwefel &
// Rudolph).
func Run(cfg Config, v, procs int, seeds []schedule.Allocation, fitness Evaluator) (*Result, error) {
	return RunContext(context.Background(), cfg, v, procs, seeds, fitness)
}

// RunContext is Run with cooperative cancellation. ctx is observed at two
// points only — before the initial evaluation and once at the top of each
// generation (for Islands > 1: once at each migration barrier) — so
// cancellation adds zero cost to the hot fitness path and cannot perturb the
// RNG streams: a run that completes under a live context is bit-identical to
// the same seed under context.Background(). On cancellation the error wraps
// ctx's cause (context.Canceled or DeadlineExceeded), so errors.Is works. A
// cancellation after initialization returns the partial Result alongside the
// error: Best is the incumbent at cancellation (a valid answer by
// plus-selection — the population never worsens) and Result.Generations
// counts the generations actually completed (for Islands > 1, by every
// island — islands only stop at barriers). Only a cancellation before the
// initial evaluation returns a nil Result.
func RunContext(ctx context.Context, cfg Config, v, procs int, seeds []schedule.Allocation, fitness Evaluator) (*Result, error) {
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
	if fitness == nil && cfg.DeltaEvaluatorFactory == nil {
		return nil, errors.New("ea: no evaluator: pass a fitness function or set DeltaEvaluatorFactory")
	}
	if cfg.Islands > 1 {
		return runIslands(ctx, cfg, v, procs, seeds, fitness)
	}
	// Single panmictic population: one island executing the classic
	// generation loop, observer delivered inline from this goroutine.
	isl := newIsland(0, cfg, v, procs, seeds, fitness)
	if err := isl.init(); err != nil {
		return nil, err
	}
	for u := 0; u < cfg.Generations; u++ {
		if err := ctx.Err(); err != nil {
			// Anytime contract: the incumbent in res.Best is already a
			// private clone and History covers every completed generation, so
			// the partial Result is safe to hand out alongside the error.
			return isl.res, fmt.Errorf("ea: run cancelled before generation %d: %w", u, err)
		}
		if err := isl.step(u); err != nil {
			return nil, err
		}
	}
	return isl.res, nil
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
func uniformCrossover(rng *rand.Rand, child, other schedule.Allocation) {
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
// pool); they are passed through without cloning, which both saves the copy
// and preserves vector identity across generations — the property the
// delta evaluator's parent-keyed baseline cache relies on
// (listsched.Mapper.MakespanDelta). Entries at index >= stable are
// arena-backed offspring and are cloned. Sorting indices instead of the
// individuals keeps the tie-breaking identical to a stable sort of the pool
// itself. Lineage fields are cleared either way: a parent is a free-standing
// vector from now on.
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
			out[i].parent, out[i].mutated = nil, nil
		} else {
			out[i] = pool[j].Clone()
		}
	}
	return out
}
