// Package core implements EMTS — Evolutionary Moldable Task Scheduling — the
// primary contribution of Hunold & Lepping (CLUSTER 2011), Section III.
//
// EMTS is a two-step scheduler. The allocation step is a (μ+λ) evolution
// strategy over allocation vectors whose fitness is the makespan produced by
// the list-scheduling mapping step (package listsched). The initial
// population is seeded with the allocations computed by other heuristics —
// MCPA, HCPA, and the Δ-critical-path heuristic (package alloc) — so the
// search starts from already-good solutions and improves them within a small,
// fixed number of generations. Because the fitness function only queries an
// execution-time table, EMTS works unchanged with any model, monotonic or
// not.
//
// The two configurations evaluated in the paper are provided as presets:
// EMTS5, a (5+25)-EA run for 5 generations, and EMTS10, a (10+100)-EA run for
// 10 generations.
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"

	"emts/internal/alloc"
	"emts/internal/dag"
	"emts/internal/ea"
	"emts/internal/evalpool"
	"emts/internal/listsched"
	"emts/internal/model"
	"emts/internal/schedule"
)

// Params configures one EMTS run. The zero value is not runnable; start from
// EMTS5, EMTS10, or DefaultParams and override fields as needed.
type Params struct {
	// Mu, Lambda, Generations define the (μ+λ)-EA (Section IV: (5+25)×5 for
	// EMTS5, (10+100)×10 for EMTS10).
	Mu, Lambda, Generations int
	// Fm is the initial mutation fraction (paper: 0.33).
	Fm float64
	// Mutation is the offspring operator; nil means the paper's Eq. (1)
	// operator with a = 0.2, σ₁ = σ₂ = 5.
	Mutation ea.Mutator
	// CrossoverProb enables the optional uniform-crossover extension
	// (ablation A4); the paper's EMTS is mutation-only (0).
	CrossoverProb float64
	// Seeds produce the starting individuals (Section III-B). Nil means
	// DefaultSeeds(Seed): MCPA, HCPA, Δ-CP(0.9), the all-ones allocation,
	// and one random individual. Seed allocators that fail are skipped (the
	// EA pads with random individuals); at least one must succeed.
	Seeds []alloc.Allocator
	// Strategy selects plus- (default, the paper's choice) or
	// comma-selection; see ea.Strategy.
	Strategy ea.Strategy
	// SelfAdaptive enables per-individual mutation step sizes (contemporary
	// ES style); see ea.Config.SelfAdaptive. InitialSigma 0 means the
	// paper's σ = 5.
	SelfAdaptive bool
	// InitialSigma is the starting step size for self-adaptation.
	InitialSigma float64
	// OnGeneration, when non-nil, receives per-generation statistics.
	OnGeneration func(ea.GenStats)
	// UseRejection enables the future-work rejection strategy of Section VI
	// inside the fitness function.
	UseRejection bool
	// DisablePrefilter turns off the O(V) admissible lower-bound prefilter
	// that short-circuits the map loop for rejected individuals when
	// UseRejection is set (DESIGN.md §10, Layer 1). Results are bit-identical
	// either way; the switch exists for A/B measurement and the determinism
	// regression tests.
	DisablePrefilter bool
	// DisableDelta turns off delta-aware bottom-level evaluation: offspring
	// are then evaluated with a full O(V+E) bottom-level sweep instead of
	// recomputing only the alleles their mutation touched plus affected
	// ancestors (DESIGN.md §10, Layer 3). Results are bit-identical either
	// way; A/B switch like DisablePrefilter.
	DisableDelta bool
	// Islands, when > 1, runs the EA as that many independent populations
	// with periodic migration (the island model, DESIGN.md §17). Each island
	// derives a private RNG stream from Seed, so results are deterministic
	// for any worker count; 0 and 1 mean the classic single population,
	// bit-identical to pre-island runs. See ea.Config.Islands.
	Islands int
	// MigrationInterval is the number of generations between migrations when
	// Islands > 1 (0 = every generation); see ea.Config.MigrationInterval.
	MigrationInterval int
	// MigrationCount is the number of top individuals each island emits per
	// migration (0 = 1); see ea.Config.MigrationCount.
	MigrationCount int
	// Topology selects the migration topology: ea.TopologyRing (default,
	// also "") or ea.TopologyFull.
	Topology string
	// Workers bounds fitness-evaluation parallelism (0 = GOMAXPROCS). With
	// Islands > 1 the budget is divided evenly across the islands.
	Workers int
	// MapperPool, when non-nil, supplies the listsched.Mapper arenas for this
	// run — the seed evaluator, every EA worker's evaluator pair, and the
	// final schedule materialization — instead of constructing fresh ones.
	// All checked-out Mappers are returned before RunContext returns. Results
	// are bit-identical with or without a pool (Mapper.Rebind resets all
	// instance state); nil means allocate per run, the pre-pool behavior.
	MapperPool *evalpool.Pool
	// Seed drives every stochastic choice. Equal seeds ⇒ identical results,
	// which is how the paper guarantees EMTS10 finds every EMTS5 solution.
	Seed int64
}

// EMTS5 returns the paper's (5+25)-EA preset, run for 5 generations.
func EMTS5(seed int64) Params {
	return Params{Mu: 5, Lambda: 25, Generations: 5, Fm: 0.33, Seed: seed}
}

// EMTS10 returns the paper's (10+100)-EA preset, run for 10 generations.
func EMTS10(seed int64) Params {
	return Params{Mu: 10, Lambda: 100, Generations: 10, Fm: 0.33, Seed: seed}
}

// DefaultParams is an alias for EMTS5, the configuration the paper deems
// applicable in practice for every workload size.
func DefaultParams(seed int64) Params { return EMTS5(seed) }

// DefaultSeeds returns the paper's starting-solution providers: the
// allocation functions of MCPA and HCPA (Section III-B), the Δ-critical-path
// heuristic with Δ = 0.9 (Section IV), the all-ones allocation, and one
// seeded random individual.
func DefaultSeeds(seed int64) []alloc.Allocator {
	return []alloc.Allocator{
		alloc.MCPA{},
		alloc.HCPA{},
		alloc.DeltaCP{Delta: 0.9},
		alloc.OneEach{},
		alloc.Random{Seed: seed},
	}
}

// SeedResult records how one starting heuristic performed, for reporting and
// for the relative-makespan figures.
type SeedResult struct {
	// Name is the allocator's name.
	Name string
	// Makespan is the fitness of the heuristic's allocation under the EMTS
	// mapping function.
	Makespan float64
	// Err is non-nil when the allocator failed and was skipped.
	Err error
}

// Result is the outcome of one EMTS run.
type Result struct {
	// Schedule is the fully mapped best schedule (passes Validate).
	Schedule *schedule.Schedule
	// Alloc is the best allocation vector found.
	Alloc schedule.Allocation
	// Makespan is the fitness of Alloc — the optimization objective.
	Makespan float64
	// Seeds reports the starting heuristics and their makespans.
	Seeds []SeedResult
	// History is the best makespan after initialization and after each
	// generation (non-increasing).
	History []float64
	// Evaluations counts fitness evaluations; Rejections counts the ones cut
	// short by the rejection bound.
	Evaluations, Rejections int
	// CacheHits is always 0.
	//
	// Deprecated: the fitness memo cache it counted was removed; the field
	// stays so existing readers still compile.
	CacheHits int
	// PrefilterRejections counts the rejections decided by the O(V)
	// lower-bound prefilter instead of the map loop (see
	// ea.Result.PrefilterRejections) — map loops skipped entirely.
	PrefilterRejections int
	// Generations counts the EA generations actually completed (see
	// ea.Result.Generations). It is smaller than Params.Generations when the
	// run was cancelled mid-flight and the Result is the anytime incumbent.
	Generations int
	// Islands is the effective island count the run used: 1 for the classic
	// single population (Params.Islands <= 1), Params.Islands otherwise.
	Islands int
}

// BestSeedMakespan returns the smallest makespan among successful starting
// heuristics, or +Inf if none succeeded. By plus-selection,
// Result.Makespan <= BestSeedMakespan always holds.
func (r *Result) BestSeedMakespan() float64 {
	best := math.Inf(1)
	for _, s := range r.Seeds {
		if s.Err == nil && s.Makespan < best {
			best = s.Makespan
		}
	}
	return best
}

// Run executes EMTS on graph g with execution times tab (which also carries
// the processor count of the platform).
func Run(g *dag.Graph, tab *model.Table, p Params) (*Result, error) {
	return RunContext(context.Background(), g, tab, p)
}

// RunContext is Run with cooperative cancellation: the evolutionary loop
// observes ctx once per generation (see ea.RunContext), so an in-flight
// optimization stops within one generation of ctx being cancelled or its
// deadline passing. Cancellation never perturbs results — a run that
// completes is bit-identical to the same seed without a context.
//
// A cancellation after the EA's initial evaluation returns the partial
// Result alongside the context error: the incumbent allocation is
// materialized into a fully validated schedule exactly like a completed
// run's, and Result.Generations records how many generations finished —
// the anytime contract of the (μ+λ) plus-strategy (paper §III: the
// population never worsens, so every intermediate best is a valid answer).
// Callers distinguish the cases by (res, err): complete (res, nil), anytime
// partial (res, ctx error), nothing usable (nil, err).
func RunContext(ctx context.Context, g *dag.Graph, tab *model.Table, p Params) (*Result, error) {
	if g.NumTasks() == 0 {
		return nil, errors.New("emts: empty graph")
	}
	if tab.NumTasks() != g.NumTasks() {
		return nil, fmt.Errorf("emts: table covers %d tasks, graph has %d", tab.NumTasks(), g.NumTasks())
	}
	procs := tab.Procs()

	seeders := p.Seeds
	if seeders == nil {
		seeders = DefaultSeeds(p.Seed)
	}
	res := &Result{}

	// newMapper checks arenas out of the configured pool (warm checkouts
	// rebind existing arenas with zero allocations) or constructs them fresh;
	// every checked-out Mapper is returned when the run ends. Within one
	// evaluation engine the factory runs serially before its worker
	// goroutines, but an Islands > 1 run constructs N engines' evaluators
	// concurrently — one per island goroutine — so the checkout list takes a
	// mutex. Cold path: O(workers + islands) acquisitions per run, never per
	// evaluation.
	var (
		mapperMu   sync.Mutex
		checkedOut []*listsched.Mapper
	)
	newMapper := func() (*listsched.Mapper, error) {
		if p.MapperPool == nil {
			return listsched.NewMapper(g, tab)
		}
		m, err := p.MapperPool.Get(g, tab)
		if err != nil {
			return nil, err
		}
		mapperMu.Lock()
		checkedOut = append(checkedOut, m)
		mapperMu.Unlock()
		return m, nil
	}
	defer func() {
		for _, m := range checkedOut {
			p.MapperPool.Put(m)
		}
	}()

	seedMapper, err := newMapper()
	if err != nil {
		return nil, err
	}
	var seedAllocs []schedule.Allocation
	for _, s := range seeders {
		a, err := s.Allocate(g, tab)
		if err != nil {
			res.Seeds = append(res.Seeds, SeedResult{Name: s.Name(), Err: err})
			continue
		}
		a.Clamp(procs)
		ms, err := seedMapper.Makespan(a)
		if err != nil {
			res.Seeds = append(res.Seeds, SeedResult{Name: s.Name(), Err: err})
			continue
		}
		res.Seeds = append(res.Seeds, SeedResult{Name: s.Name(), Makespan: ms})
		seedAllocs = append(seedAllocs, a)
	}
	if len(seedAllocs) == 0 && len(seeders) > 0 {
		return nil, fmt.Errorf("emts: every starting heuristic failed (first: %v)", res.Seeds[0].Err)
	}

	// mapErr translates listsched sentinels into their ea mirrors so the
	// evaluation engine can count rejections (and prefilter rejections)
	// without importing listsched. The prefilter variant wraps the generic
	// one, so it must be tested first.
	mapErr := func(err error) error {
		if errors.Is(err, listsched.ErrRejectedPrefilter) {
			return ea.ErrRejectedPrefilter
		}
		if errors.Is(err, listsched.ErrRejected) {
			return ea.ErrRejected
		}
		return err
	}

	// factory hands each EA worker its own Mapper for the whole run, so a
	// warm fitness call allocates nothing. Both closures share the Mapper
	// (and thus its bottom-level arena and parent-baseline ring); the engine
	// calls them from a single worker goroutine, never concurrently.
	baseOpt := listsched.Options{SkipProcSets: true, DisablePrefilter: p.DisablePrefilter}
	factory := func() (ea.Evaluator, ea.DeltaEvaluator) {
		m, err := newMapper()
		if err != nil {
			// Unreachable (sizes were validated above), but a constructor
			// error must surface: every evaluation then reports it.
			return func(schedule.Allocation, float64) (float64, error) { return 0, err }, nil
		}
		plain := func(a schedule.Allocation, rejectAbove float64) (float64, error) {
			opt := baseOpt
			opt.RejectAbove = rejectAbove
			f, err := m.MakespanOpts(a, opt)
			if err != nil {
				return 0, mapErr(err)
			}
			return f, nil
		}
		delta := func(a, parent schedule.Allocation, mutated []int, rejectAbove float64) (float64, error) {
			opt := baseOpt
			opt.RejectAbove = rejectAbove
			f, err := m.MakespanDelta(a, parent, mutated, opt)
			if err != nil {
				return 0, mapErr(err)
			}
			return f, nil
		}
		return plain, delta
	}

	cfg := ea.Config{
		Mu:                    p.Mu,
		Lambda:                p.Lambda,
		Generations:           p.Generations,
		Fm:                    p.Fm,
		Mutator:               p.Mutation,
		CrossoverProb:         p.CrossoverProb,
		UseRejection:          p.UseRejection,
		Workers:               p.Workers,
		Seed:                  p.Seed,
		DeltaEvaluatorFactory: factory,
		DisableDelta:          p.DisableDelta,
		Islands:               p.Islands,
		MigrationInterval:     p.MigrationInterval,
		MigrationCount:        p.MigrationCount,
		Topology:              p.Topology,
		Strategy:              p.Strategy,
		SelfAdaptive:          p.SelfAdaptive,
		InitialSigma:          p.InitialSigma,
		OnGeneration:          p.OnGeneration,
	}
	run, runErr := ea.RunContext(ctx, cfg, g.NumTasks(), procs, seedAllocs, nil)
	if run == nil {
		// Hard failure or a cancellation before the initial evaluation:
		// nothing usable to materialize.
		return nil, runErr
	}

	// Materialize the best schedule on the seed Mapper instead of the one-shot
	// package function: Mapper results are bit-identical to listsched.Map, and
	// reusing the arena saves a full Mapper construction per run. The same
	// path materializes the incumbent of a cancelled run (runErr non-nil),
	// so an anytime answer passes the exact validation a completed one does.
	sched, err := seedMapper.Map(run.Best.Alloc)
	if err != nil {
		return nil, fmt.Errorf("emts: mapping best allocation: %w", err)
	}
	res.Schedule = sched
	res.Alloc = run.Best.Alloc
	res.Makespan = run.Best.Fitness
	res.History = run.History
	res.Evaluations = run.Evaluations
	res.Rejections = run.Rejections
	res.PrefilterRejections = run.PrefilterRejections
	res.Generations = run.Generations
	res.Islands = 1
	if p.Islands > 1 {
		res.Islands = p.Islands
	}
	return res, runErr
}
