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
	"slices"
	"sync"
	"sync/atomic"

	"emts/internal/alloc"
	"emts/internal/dag"
	"emts/internal/ea"
	"emts/internal/listsched"
	"emts/internal/model"
	"emts/internal/schedule"
)

// Params configures one EMTS run: the (μ+λ)-EA's configuration (ea.Config,
// whose fields it promotes) plus the two things the EA does not know about.
// The zero value is not runnable; start from EMTS5, EMTS10, or DefaultParams
// and override fields as needed. Workers also bounds the seeding phase: the
// seed allocators run on up to Workers goroutines. Results never depend on
// it.
type Params struct {
	ea.Config
	// Seeds produce the starting individuals (Section III-B). Nil means
	// DefaultSeeds(Seed): MCPA, HCPA, Δ-CP(0.9), the all-ones allocation,
	// and one random individual. Seed allocators that fail are skipped (the
	// EA pads with random individuals); at least one must succeed. The
	// allocators run concurrently on the Workers budget, so each must be safe
	// to call alongside the others (see alloc.Allocator); Result.Seeds keeps
	// their order whatever order they finish in.
	Seeds []alloc.Allocator
	// DisablePrefilter turns off the O(V) admissible lower-bound prefilter
	// that short-circuits the map loop for rejected and culled individuals
	// (DESIGN.md §10, Layer 1). Results are bit-identical either way; the
	// switch exists for A/B measurement and the determinism regression tests.
	DisablePrefilter bool
}

// EMTS5 returns the paper's (5+25)-EA preset, run for 5 generations
// (Section IV).
func EMTS5(seed int64) Params {
	return Params{Config: ea.Config{Mu: 5, Lambda: 25, Generations: 5, Fm: 0.33, Seed: seed}}
}

// EMTS10 returns the paper's (10+100)-EA preset, run for 10 generations
// (Section IV). EMTS10 at a seed does not contain EMTS5's run at that seed:
// the two presets draw different populations from the same stream, so
// EMTS10 beats EMTS5 on average but can lose on a single instance (ROADMAP
// item 3).
func EMTS10(seed int64) Params {
	return Params{Config: ea.Config{Mu: 10, Lambda: 100, Generations: 10, Fm: 0.33, Seed: seed}}
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
	// Culls counts the offspring whose evaluation stopped because
	// plus-selection could not keep them (see ea.Result.Culls). They are in
	// Evaluations and in neither Rejections nor PrefilterRejections, and
	// every other field is the same as without the cull.
	Culls int
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

// seedOutcome is one seeder's starting allocation, clamped into [1, P] and
// mapped, or its error.
type seedOutcome struct {
	alloc    schedule.Allocation
	makespan float64
	err      error
}

// mapSeed clamps a into [1, procs] and maps it on m; the Mapper's own check
// rejects an allocation of the wrong length.
func mapSeed(m *listsched.Mapper, a schedule.Allocation, procs int) seedOutcome {
	a.Clamp(procs)
	ms, err := m.Makespan(a)
	if err != nil {
		return seedOutcome{err: err}
	}
	return seedOutcome{alloc: a, makespan: ms}
}

// pairIndices returns the positions of the first alloc.MCPA and the first
// alloc.HCPA among seeders, or -1s unless both are there.
func pairIndices(seeders []alloc.Allocator) (iM, iH int) {
	iM, iH = -1, -1
	for i, s := range seeders {
		switch s.(type) {
		case alloc.MCPA:
			if iM < 0 {
				iM = i
			}
		case alloc.HCPA:
			if iH < 0 {
				iH = i
			}
		}
	}
	if iM < 0 || iH < 0 {
		return -1, -1
	}
	return iM, iH
}

// allocateSeeds runs the seeders and maps their allocations on up to
// ea.WorkerCount(workers) goroutines, each with a Mapper of its own, and
// returns the outcomes by seeder index. m is the calling goroutine's Mapper.
// Every allocation is mapped by the worker that produced it, and MCPA's and
// HCPA's allocations are mapped once when they are equal.
//
// An MCPA and an HCPA seeder share one CPA pass (alloc.CPAPair): the pair is
// the first job and MCPA's fork the last, so the worker that claims the fork
// either runs it next to the pair's HCPA or learns that MCPA equals CPA.
// Workers claim jobs from one shared cursor. Allocators and the map are pure
// functions of (g, tab), so the claim order changes timing only.
func allocateSeeds(g *dag.Graph, tab *model.Table, m *listsched.Mapper, seeders []alloc.Allocator, workers int) []seedOutcome {
	procs := tab.Procs()
	out := make([]seedOutcome, len(seeders))
	var jobs []func(m *listsched.Mapper)
	iM, iH := pairIndices(seeders)
	forked := make(chan func() schedule.Allocation, 1) // the pair sends once
	if iM >= 0 {
		jobs = append(jobs, func(m *listsched.Mapper) {
			mcpa, hcpa, err := alloc.CPAPair(g, tab, seeders[iH].(alloc.HCPA), func(rest func() schedule.Allocation) { forked <- rest })
			switch {
			case err != nil:
				out[iM].err, out[iH].err = err, err
			case mcpa == nil:
				out[iH] = mapSeed(m, hcpa, procs)
				return // MCPA forked: the fork job maps its allocation
			default:
				out[iH] = mapSeed(m, hcpa, procs)
				if h := out[iH]; h.err == nil && slices.Equal(mcpa.Clamp(procs), h.alloc) {
					out[iM] = seedOutcome{alloc: mcpa, makespan: h.makespan}
				} else {
					out[iM] = mapSeed(m, mcpa, procs)
				}
			}
			forked <- nil
		})
	}
	for i, s := range seeders {
		if i == iM || i == iH {
			continue
		}
		jobs = append(jobs, func(m *listsched.Mapper) {
			a, err := s.Allocate(g, tab)
			if err != nil {
				out[i] = seedOutcome{err: err}
				return
			}
			out[i] = mapSeed(m, a, procs)
		})
	}
	if iM >= 0 {
		jobs = append(jobs, func(m *listsched.Mapper) {
			if rest := <-forked; rest != nil {
				out[iM] = mapSeed(m, rest(), procs)
			}
		})
	}

	var next atomic.Int64
	claim := func(m *listsched.Mapper) {
		for {
			i := int(next.Add(1) - 1)
			if i >= len(jobs) {
				return
			}
			jobs[i](m)
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < min(ea.WorkerCount(workers), len(jobs)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			wm, _ := listsched.NewMapper(g, tab) // m was built from the same inputs
			claim(wm)
		}()
	}
	claim(m)
	wg.Wait()
	return out
}

// Run executes EMTS on graph g with execution times tab (which also carries
// the processor count of the platform).
func Run(g *dag.Graph, tab *model.Table, p Params) (*Result, error) {
	return RunContext(context.Background(), g, tab, p)
}

// RunContext is Run with cooperative cancellation: the evolutionary loop
// observes ctx before every epoch, the first right after the initial
// evaluation (an epoch is one generation, or MigrationInterval generations
// with Islands > 1; see ea.Run), so an in-flight optimization stops
// within one epoch of ctx being cancelled or its deadline passing.
// Cancellation never perturbs results — a run that completes is
// bit-identical to the same seed without a context.
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

	seedMapper, err := listsched.NewMapper(g, tab)
	if err != nil {
		return nil, err
	}
	var seedInds []ea.Individual
	for i, o := range allocateSeeds(g, tab, seedMapper, seeders, p.Workers) {
		res.Seeds = append(res.Seeds, SeedResult{Name: seeders[i].Name(), Makespan: o.makespan, Err: o.err})
		if o.err == nil {
			seedInds = append(seedInds, ea.Individual{Alloc: o.alloc, Fitness: o.makespan})
		}
	}
	if len(seedInds) == 0 && len(seeders) > 0 {
		return nil, fmt.Errorf("emts: every starting heuristic failed (first: %v)", res.Seeds[0].Err)
	}

	// newEval hands each EA worker its own Mapper for the whole run, so a
	// warm fitness call allocates nothing. The engine calls each evaluator
	// from a single worker goroutine, never concurrently. The EA checks every
	// allocation where it enters the run and keeps its own within [1, P], so
	// evaluations skip the Mapper's entry check.
	baseOpt := listsched.Options{DisablePrefilter: p.DisablePrefilter}
	newEval := func() ea.Evaluator {
		m, err := listsched.NewMapper(g, tab)
		if err != nil {
			// Unreachable (sizes were validated above), but a constructor
			// error must surface: every evaluation then reports it.
			return func(schedule.Allocation, float64) (float64, error) { return 0, err }
		}
		return func(a schedule.Allocation, rejectAbove float64) (float64, error) {
			opt := baseOpt
			opt.RejectAbove = rejectAbove
			return listsched.MakespanUnchecked(m, a, opt)
		}
	}

	run, runErr := ea.Run(ctx, p.Config, g.NumTasks(), procs, seedInds, newEval)
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
	res.Culls = run.Culls
	res.Generations = run.Generations
	res.Islands = max(p.Islands, 1)
	return res, runErr
}
