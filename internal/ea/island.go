// Island-model execution (DESIGN.md §17). An island is one self-contained
// (μ+λ) population: it owns its parents, its offspring arena, its RNG stream
// (seed.go), and its evaluation engine with the engine's per-worker
// evaluators, so islands never contend on shared mutable state. Every run
// goes through one coordinator (runIslands): a single-island run
// (Config.Islands <= 1) is island 0 alone, with exactly the statement
// sequence and the RNG stream of the pre-island engine, and more islands
// compose the same island steps with deterministic migration barriers.

package ea

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"emts/internal/schedule"
)

// island is one population of a run, plus the scratch state its generation
// loop reuses. All fields are private to the island's goroutine between
// barriers; the coordinator only touches them while the island is parked.
type island struct {
	idx      int
	cfg      Config // private copy; Workers holds this island's budget
	v, procs int
	seeds    []Individual // shared, read-only
	rng      *Rand
	eng      *evalEngine
	res      *Result

	mut Mutator
	// outside is set when mut is neither PaperMutator nor UniformMutator,
	// whose children are in range by construction: each child is checked.
	outside bool
	tau     float64

	// Generation-loop arenas, allocated once in init (see the aliasing-rule
	// comment there).
	pool      []Individual
	parents   []Individual
	offspring []Individual
	arena     schedule.Allocation

	// Coordinator bookkeeping, touched only at barriers.
	stats   []GenStats // per-generation stats when observed, indexed by generation
	migrant Individual // this island's best parent, cloned at the barrier
	err     error      // the island's failure, collected by the coordinator
}

// newIsland builds island idx of a run. cfg is the island's private copy:
// the coordinator pre-divides the worker budget, everything else is shared
// verbatim.
func newIsland(idx int, cfg Config, v, procs int, seeds []Individual, newEval func() Evaluator) *island {
	mut := cfg.Mutator
	if mut == nil {
		mut = DefaultPaperMutator()
	}
	is := &island{idx: idx, cfg: cfg, v: v, procs: procs, seeds: seeds, mut: mut}
	switch mut.(type) {
	case PaperMutator, UniformMutator:
	default:
		is.outside = true
	}
	is.rng = newIslandRNG(cfg.Seed, idx)
	is.res = &Result{}
	is.eng = newEvalEngine(cfg.Workers, newEval)
	if cfg.OnGeneration != nil {
		is.stats = make([]GenStats, 0, cfg.Generations)
	}
	return is
}

// init seeds and evaluates the initial population, selects the first parent
// generation, and allocates the generation-loop arenas.
func (is *island) init() error {
	cfg := &is.cfg
	// Initial pool: seeds, which carry their fitness and must already be in
	// range, plus random fill.
	pool := make([]Individual, 0, max(len(is.seeds), cfg.Mu))
	for _, s := range is.seeds {
		if err := s.Alloc.ValidateLen(is.v, is.procs); err != nil {
			return err
		}
		pool = append(pool, Individual{Alloc: s.Alloc.Clone(), Fitness: s.Fitness})
	}
	known := len(pool)
	for len(pool) < cfg.Mu {
		a := make(schedule.Allocation, is.v)
		for i := range a {
			a[i] = 1 + is.rng.Intn(is.procs)
		}
		pool = append(pool, Individual{Alloc: a})
	}
	// Evaluate what is not known: a random fill equal to a seed takes the
	// seed's fitness. Evaluations counts the whole pool either way.
	var todo []Individual
	var at []int
	for i := known; i < len(pool); i++ {
		if j := slices.IndexFunc(pool[:known], func(s Individual) bool { return slices.Equal(s.Alloc, pool[i].Alloc) }); j >= 0 {
			pool[i].Fitness = pool[j].Fitness
			continue
		}
		todo, at = append(todo, pool[i]), append(at, i)
	}
	if err := is.eng.evaluateAll(todo, 0, is.res); err != nil {
		return err
	}
	for k, i := range at {
		pool[i].Fitness = todo[k].Fitness
	}
	is.res.Evaluations += len(pool) - len(todo)
	// The initial pool's vectors are all freshly allocated and private to
	// this island, so every entry qualifies for clone-free passthrough.
	is.parents = selectBest(pool, cfg.Mu, len(pool))
	is.res.Best = is.parents[0].Clone()
	is.res.History = append(is.res.History, is.res.Best.Fitness)

	// Self-adaptation bookkeeping: every first parent starts at the paper's
	// σ, and every later individual inherits a perturbed σ from its parent.
	if cfg.SelfAdaptive {
		for i := range is.parents {
			is.parents[i].Sigma = 5
		}
	}
	is.tau = 1 / math.Sqrt(2*float64(is.v))

	// Offspring arena: one backing array serves all λ child vectors and is
	// reused every generation, and the stream's position buffer serves every
	// mutation call — offspring generation allocates nothing after the first
	// generation. The aliasing rule making this safe:
	// anything that must outlive the generation is copied out — selectBest
	// clones arena-backed survivors — so overwriting the arena next
	// generation cannot corrupt them.
	is.offspring = make([]Individual, cfg.Lambda)
	is.arena = make(schedule.Allocation, cfg.Lambda*is.v)
	is.pool = pool
	return nil
}

// cullSlack is the relative margin of the cull bound over the worst parent's
// fitness. listsched.Mapper rejects when a lower bound exceeds the bound, and
// its in-loop lower bound sums a path right to left while the schedule sums
// it left to right, so a child's lower bound can exceed its own makespan by
// rounding: by up to 1.5e-14 relative on 20,000-task chains. Without a margin
// a child a few ulps better than the worst parent, which selection would
// keep, could be culled. 1e-9 is five orders of magnitude wider than that
// rounding, and a child culled under it is still strictly worse than the
// worst parent.
const cullSlack = 1e-9

// step runs generation u: offspring generation, evaluation, selection,
// incumbent/history update, and observer delivery. Every RNG draw is the
// pre-island engine's generation body's, in its order. Each child is
// published to the engine as soon as it is written, so the engine's helpers
// evaluate the first children while the island's goroutine mutates the rest;
// a child depends only on the RNG stream and its parents, never on another
// child's fitness, so the overlap changes timing only.
func (is *island) step(u int) error {
	cfg := &is.cfg
	m := MutationCount(u, cfg.Generations, cfg.Fm, is.v)
	parents, offspring := is.parents, is.offspring
	// The evaluation bound. Under UseRejection it is §VI's best fitness so
	// far. Otherwise, under plus-selection, it is the worst parent's fitness:
	// the island always holds μ parents in fitness order, and selectBest
	// ranks a child whose fitness is at least the last one's after all of
	// them (a tie goes to the parent), so the child can never be selected,
	// and cutting its evaluation short (the cull) changes no parent,
	// incumbent or counter other than Result.Culls. cullSlack lifts the bound
	// above the evaluator's rounding (see there). Comma selection discards
	// the parents, so it has no such bound.
	bound, cull := 0.0, false
	switch {
	case cfg.UseRejection:
		bound = is.res.Best.Fitness
	case cfg.Strategy == Plus:
		bound, cull = parents[len(parents)-1].Fitness*(1+cullSlack), true
	}
	rejectedBefore := is.res.Rejections
	is.eng.start(offspring, bound, cull)
	for i := range offspring {
		parent := parents[is.rng.Intn(len(parents))]
		child := is.arena[i*is.v : (i+1)*is.v : (i+1)*is.v]
		copy(child, parent.Alloc)
		if cfg.CrossoverProb > 0 && len(parents) > 1 && is.rng.Float64() < cfg.CrossoverProb {
			other := parents[is.rng.Intn(len(parents))].Alloc
			uniformCrossover(is.rng, child, other)
		}
		sigma := 0.0
		if cfg.SelfAdaptive {
			sigma = parent.Sigma * math.Exp(is.tau*is.rng.NormFloat64())
			if sigma < 0.3 {
				sigma = 0.3 // keep |C| >= 1 meaningful
			}
			if max := float64(is.procs); sigma > max {
				sigma = max
			}
			PaperMutator{A: 0.2, Sigma1: sigma, Sigma2: sigma}.Mutate(is.rng, child, m, is.procs)
		} else {
			is.mut.Mutate(is.rng, child, m, is.procs)
			// A child of an outside operator enters the run here.
			if is.outside {
				if err := child.ValidateLen(is.v, is.procs); err != nil {
					is.eng.abandon()
					return err
				}
			}
		}
		offspring[i] = Individual{Alloc: child, Sigma: sigma}
		is.eng.publish(i + 1)
	}
	if err := is.eng.finish(is.res); err != nil {
		return err
	}
	// Selection: plus-strategy pools parents with offspring; the
	// comma-strategy selects from the offspring alone. The leading
	// parents region is stable (clone-free passthrough); the offspring
	// region is arena-backed and must be cloned when selected.
	is.pool = is.pool[:0]
	stable := 0
	if cfg.Strategy == Plus {
		is.pool = append(is.pool, parents...)
		stable = len(parents)
	}
	is.pool = append(is.pool, offspring...)
	is.parents = selectBest(is.pool, cfg.Mu, stable)
	if is.parents[0].Fitness < is.res.Best.Fitness {
		is.res.Best = is.parents[0].Clone()
	}
	is.res.History = append(is.res.History, is.res.Best.Fitness)
	is.res.Generations = u + 1
	if cfg.OnGeneration != nil {
		gs := poolStats(u, is.pool, is.res.Best.Fitness, is.res.Rejections-rejectedBefore)
		gs.Island = is.idx
		gs.Evaluations = is.res.Evaluations
		gs.PrefilterRejections = is.res.PrefilterRejections
		is.stats = append(is.stats, gs)
	}
	return nil
}

// runIslands executes a run on N = max(Islands, 1) islands, which advance in
// epochs: the generations between two migrations, MigrationInterval of them,
// or one when N = 1, since a single island never migrates. Before each epoch,
// the first included, the coordinator observes ctx. Then every island runs
// the epoch, island 0 on the coordinator's goroutine and each other island on
// one of its own, up to a full barrier. There the coordinator replays the
// epoch's GenStats in (generation, island) order and, when N > 1 and
// generations remain, migrates. Every cross-island exchange happens at a
// barrier with all island goroutines parked, so the run is a deterministic
// function of (Config, seeds) — worker counts, GOMAXPROCS, and goroutine
// interleaving change timing but never bytes.
func runIslands(ctx context.Context, cfg Config, v, procs int, seeds []Individual, newEval func() Evaluator) (*Result, error) {
	n := max(cfg.Islands, 1)
	interval := 1
	if n > 1 && cfg.MigrationInterval > 0 {
		interval = cfg.MigrationInterval
	}

	// Divide the worker budget: each island's engine gets an equal share
	// (floor, min 1) so N islands saturate the same core budget one island
	// would. Purely a timing decision — results are worker-count independent.
	icfg := cfg
	icfg.Workers = max(WorkerCount(cfg.Workers)/n, 1)
	isls := make([]*island, n)
	for i := range isls {
		isls[i] = newIsland(i, icfg, v, procs, seeds, newEval)
	}

	// barrier runs one phase on every island, island 0 on this goroutine,
	// and collects the first failure in island order (deterministic, unlike
	// a racing CAS). The WaitGroup and the span bounds live outside the
	// epoch loop, so an epoch allocates nothing here.
	var wg sync.WaitGroup
	// Each engine keeps its helpers from its first parallel phase on, and
	// no return path leaves one running. Should island 0's phase panic, the
	// other islands first finish theirs.
	defer func() {
		wg.Wait()
		for _, is := range isls {
			is.eng.stop()
		}
	}()
	barrier := func(phase func(*island) error) error {
		for _, is := range isls[1:] {
			wg.Add(1)
			go func() {
				defer wg.Done()
				is.err = phase(is)
			}()
		}
		isls[0].err = phase(isls[0])
		wg.Wait()
		for _, is := range isls {
			if is.err != nil {
				return is.err
			}
		}
		return nil
	}
	var from, to int
	span := func(is *island) error {
		for u := from; u < to; u++ {
			if err := is.step(u); err != nil {
				return err
			}
		}
		return nil
	}

	if err := barrier((*island).init); err != nil {
		return nil, err
	}

	// aggBest is the running minimum of BestEver across all islands: the
	// replay rewrites each event's BestEver to it, so an observer watching
	// the stream sees best_makespan non-increasing, and the last delivered
	// BestEver equals the assembled Result.Best.Fitness.
	aggBest := math.Inf(1)
	for ; from < cfg.Generations; from = to {
		if err := ctx.Err(); err != nil {
			// Anytime contract at island granularity: every island has
			// completed exactly from generations and every completed
			// generation's stats were delivered, so the partial Result is
			// consistent with the observer stream.
			return assembleIslands(isls), fmt.Errorf("ea: run cancelled before generation %d: %w", from, err)
		}
		to = min(from+interval, cfg.Generations)
		if err := barrier(span); err != nil {
			return nil, err
		}
		if cfg.OnGeneration != nil {
			for u := from; u < to; u++ {
				for _, is := range isls {
					gs := is.stats[u]
					if gs.BestEver < aggBest {
						aggBest = gs.BestEver
					}
					gs.BestEver = aggBest
					cfg.OnGeneration(gs)
				}
			}
		}
		if n > 1 && to < cfg.Generations {
			migrate(isls)
		}
	}
	return assembleIslands(isls), nil
}

// migrate sends a copy of each island's best parent to the next island of
// the ring: island i receives island (i−1+N) mod N's. Two phases: first
// every island clones its migrant (so merges cannot observe a peer's
// post-merge parents), then every island merges its predecessor's.
// Migration consumes no RNG, so the per-island streams are independent of
// it.
func migrate(isls []*island) {
	for _, is := range isls {
		// parents are rank-ordered by selectBest, so the best comes first.
		is.migrant = is.parents[0].Clone()
	}
	n := len(isls)
	for i, is := range isls {
		is.mergeMigrant(isls[(i+n-1)%n].migrant)
	}
}

// mergeMigrant forms the island's next parent generation from its current
// parents plus the incoming migrant: rank-ordered by fitness, ties broken by
// the canonical placement bytes (and then by the stable sort, so an existing
// parent wins over a byte-identical migrant). The migrant is the island's
// own clone, so parents and migrant all pass through without a copy.
func (is *island) mergeMigrant(migrant Individual) {
	cand := append(slices.Clip(is.parents), migrant)
	idx := make([]int, len(cand))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return bestLess(cand[idx[a]], cand[idx[b]]) })
	next := make([]Individual, min(is.cfg.Mu, len(cand)))
	for i := range next {
		next[i] = cand[idx[i]]
	}
	is.parents = next
}

// assembleIslands folds the island results into island 0's, which it
// returns: counters are summed, History[g] is the best incumbent across
// islands after generation g, and Best is the global winner — fitness
// first, ties broken by the canonical placement bytes, then by island index
// (the iteration order) — so the assembled result is independent of which
// island finished first. Every island has completed the same generations.
func assembleIslands(isls []*island) *Result {
	res := isls[0].res
	for _, is := range isls[1:] {
		for g, h := range is.res.History {
			if h < res.History[g] {
				res.History[g] = h
			}
		}
		res.Evaluations += is.res.Evaluations
		res.Rejections += is.res.Rejections
		res.PrefilterRejections += is.res.PrefilterRejections
		res.Culls += is.res.Culls
		if bestLess(is.res.Best, res.Best) {
			res.Best = is.res.Best // already a private clone
		}
	}
	return res
}

// bestLess orders individuals by fitness, ties broken by the canonical
// placement bytes — the total order behind every cross-island decision
// (migration merges, final winner selection).
func bestLess(a, b Individual) bool {
	//schedlint:allow floateq -- deliberate exact tie-break: equal fitness must fall through to the byte order, and both values come from the same deterministic evaluator
	if a.Fitness != b.Fitness {
		return a.Fitness < b.Fitness
	}
	return allocLess(a.Alloc, b.Alloc)
}

// allocLess is the lexicographic order on allocation vectors.
func allocLess(a, b schedule.Allocation) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}
