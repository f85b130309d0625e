// Island-model execution (DESIGN.md §17). An island is one self-contained
// (μ+λ) population: it owns its parents, its offspring arena, its RNG stream
// (seed.go), and its evaluation engine with the engine's per-worker
// evaluators, so islands never contend on shared mutable state. A
// single-island run (Config.Islands <= 1) executes exactly the statement
// sequence the pre-island RunContext executed, against exactly the same RNG
// stream; the multi-island coordinator (runIslands) composes the same island
// steps with deterministic migration barriers.

package ea

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"sync"

	"emts/internal/schedule"
)

// Topology names for Config.Topology.
const (
	// TopologyRing connects the islands in a directed cycle: island i
	// receives migrants from island (i−1+N) mod N. The default.
	TopologyRing = "ring"
	// TopologyFull connects every island to every other: island i receives
	// the migrants of all N−1 peers.
	TopologyFull = "full"
)

// island is one population of a run, plus the scratch state its generation
// loop reuses. All fields are private to the island's goroutine between
// barriers; the coordinator only touches them while the island is parked.
type island struct {
	idx      int
	cfg      Config // private copy; Workers holds this island's budget
	v, procs int
	seeds    starts // shared, read-only
	rng      *islandRNG
	eng      *evalEngine
	res      *Result

	mut Mutator
	// own is the mutation operator when it is this package's PaperMutator
	// or UniformMutator, whose children need no check; nil for any other.
	own          ownMutator
	initialSigma float64
	tau          float64

	// Generation-loop arenas, allocated once in init (see the aliasing-rule
	// comment there).
	pool      []Individual
	parents   []Individual
	offspring []Individual
	arena     schedule.Allocation
	perm      []int // the identity of [0, v) between children

	// observe receives each generation's GenStats. The single-island path
	// wires Config.OnGeneration directly; the coordinator wires a buffering
	// closure and replays the buffer in deterministic order at each barrier.
	observe func(GenStats)

	// Multi-island bookkeeping, touched only at barriers.
	stats  []GenStats   // buffered per-generation stats, indexed by generation
	outbox []Individual // this island's migrants, cloned at the barrier
	err    error        // the island's failure, collected by the coordinator
}

// newIsland builds island idx of a run. cfg is the island's private copy:
// the coordinator pre-divides the worker budget, everything else is shared
// verbatim. The construction order (mutator, RNG, result, engine) mirrors
// the pre-island RunContext.
func newIsland(idx int, cfg Config, v, procs int, seeds starts, fitness Evaluator) *island {
	mut := cfg.Mutator
	if mut == nil {
		mut = DefaultPaperMutator()
	}
	is := &island{idx: idx, cfg: cfg, v: v, procs: procs, seeds: seeds, mut: mut}
	is.rng = newIslandRNG(cfg.Seed, idx)
	is.res = &Result{}
	is.eng = newEvalEngine(cfg, fitness)
	switch m := mut.(type) {
	case PaperMutator:
		is.own = m
	case UniformMutator:
		is.own = m
	}
	is.observe = cfg.OnGeneration
	return is
}

// ownMutator is implemented by the mutation operators of this package, which
// draw from an island's stream directly.
type ownMutator interface {
	mutateOn(r *islandRNG, alloc schedule.Allocation, m, procs int, perm []int)
}

// init seeds and evaluates the initial population, selects the first parent
// generation, and allocates the generation-loop arenas.
func (is *island) init() error {
	cfg := &is.cfg
	// Initial pool: seeds plus random fill. Seeds of unknown fitness are
	// clamped defensively; seeds of known fitness must already be in range.
	pool := make([]Individual, 0, max(len(is.seeds.inds), cfg.Mu))
	for _, s := range is.seeds.inds {
		if len(s.Alloc) != is.v {
			return fmt.Errorf("ea: seed individual has %d alleles, want %d", len(s.Alloc), is.v)
		}
		a := s.Alloc.Clone()
		if !is.seeds.known {
			pool = append(pool, Individual{Alloc: a.Clamp(is.procs)})
			continue
		}
		if err := a.ValidateLen(is.v, is.procs); err != nil {
			return err
		}
		pool = append(pool, Individual{Alloc: a, Fitness: s.Fitness})
	}
	known := 0
	if is.seeds.known {
		known = len(pool)
	}
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

	// Self-adaptation bookkeeping.
	is.initialSigma = cfg.InitialSigma
	if is.initialSigma <= 0 {
		is.initialSigma = 5 // the paper's σ
	}
	if cfg.SelfAdaptive {
		for i := range is.parents {
			if is.parents[i].Sigma <= 0 {
				is.parents[i].Sigma = is.initialSigma
			}
		}
	}
	is.tau = 1 / math.Sqrt(2*float64(is.v))

	// Offspring arena: one backing array serves all λ child vectors and is
	// reused every generation, and one permutation buffer, kept the identity
	// between children, serves every mutation call — offspring generation
	// allocates nothing after this point. The aliasing rule making this safe:
	// anything that must outlive the generation is copied out — selectBest
	// clones arena-backed survivors — so overwriting the arena next
	// generation cannot corrupt them.
	is.offspring = make([]Individual, cfg.Lambda)
	is.arena = make(schedule.Allocation, cfg.Lambda*is.v)
	is.perm = make([]int, is.v)
	for i := range is.perm {
		is.perm[i] = i
	}
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
// pre-island RunContext generation body's, in its order. Each child is
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
			sigma = parent.Sigma
			if sigma <= 0 {
				sigma = is.initialSigma
			}
			sigma *= math.Exp(is.tau * is.rng.NormFloat64())
			if sigma < 0.3 {
				sigma = 0.3 // keep |C| >= 1 meaningful
			}
			if max := float64(is.procs); sigma > max {
				sigma = max
			}
			PaperMutator{A: 0.2, Sigma1: sigma, Sigma2: sigma}.mutateOn(is.rng, child, m, is.procs, is.perm)
		} else if is.own != nil {
			is.own.mutateOn(is.rng, child, m, is.procs, is.perm)
		} else {
			is.mut.Mutate(is.rng.std, child, m, is.procs)
			// A child of an outside operator enters the run here.
			if err := child.ValidateLen(is.v, is.procs); err != nil {
				is.eng.abandon()
				return err
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
	if is.observe != nil {
		gs := poolStats(u, is.pool, is.res.Best.Fitness, is.res.Rejections-rejectedBefore)
		gs.Island = is.idx
		gs.Evaluations = is.res.Evaluations
		gs.PrefilterRejections = is.res.PrefilterRejections
		is.observe(gs)
	}
	return nil
}

// runSpan runs generations [from, to). The multi-island epoch body; context
// is deliberately not consulted here — the coordinator observes it at the
// migration barriers only, so a cancelled multi-island run always stops at a
// barrier with every island at the same generation (the anytime contract's
// "result equals the last streamed aggregate" then holds exactly).
func (is *island) runSpan(from, to int) error {
	for u := from; u < to; u++ {
		if err := is.step(u); err != nil {
			return err
		}
	}
	return nil
}

// runIslands executes an Islands > 1 run: N independent islands advance in
// epochs of MigrationInterval generations between full barriers; at each
// barrier the coordinator replays buffered GenStats in (generation, island)
// order, observes ctx, and migrates the top MigrationCount individuals along
// the topology. Every cross-island exchange happens at a barrier with all
// island goroutines parked, so the run is a deterministic function of
// (Config, seeds) — worker counts, GOMAXPROCS, and goroutine interleaving
// change timing but never bytes.
func runIslands(ctx context.Context, cfg Config, v, procs int, seeds starts, fitness Evaluator) (*Result, error) {
	n := cfg.Islands
	interval := cfg.MigrationInterval
	if interval <= 0 {
		interval = 1
	}
	count := cfg.MigrationCount
	if count <= 0 {
		count = 1
	}
	full := cfg.Topology == TopologyFull

	// Divide the worker budget: each island's engine gets an equal share
	// (floor, min 1) so N islands saturate the same core budget one island
	// would. Purely a timing decision — results are worker-count independent.
	totalW := cfg.Workers
	if totalW <= 0 {
		totalW = runtime.GOMAXPROCS(0)
	}
	perIslandW := totalW / n
	if perIslandW < 1 {
		perIslandW = 1
	}

	isls := make([]*island, n)
	for i := range isls {
		icfg := cfg
		icfg.Workers = perIslandW
		is := newIsland(i, icfg, v, procs, seeds, fitness)
		if cfg.OnGeneration != nil {
			is.observe = func(gs GenStats) { is.stats = append(is.stats, gs) }
		} else {
			is.observe = nil
		}
		isls[i] = is
	}

	// barrier runs one phase on every island concurrently and collects the
	// first failure in island order (deterministic, unlike a racing CAS).
	barrier := func(phase func(*island) error) error {
		var wg sync.WaitGroup
		for _, is := range isls {
			wg.Add(1)
			go func(is *island) {
				defer wg.Done()
				is.err = phase(is)
			}(is)
		}
		wg.Wait()
		for _, is := range isls {
			if is.err != nil {
				return is.err
			}
		}
		return nil
	}

	if err := barrier(func(is *island) error { return is.init() }); err != nil {
		return nil, err
	}

	// deliver replays the islands' buffered stats for generations [from, to)
	// in (generation, island) order, rewriting BestEver to the aggregate
	// running minimum across all islands — so an observer watching any
	// single stream of events sees best_makespan non-increasing, and the
	// last delivered BestEver equals the assembled Result.Best.Fitness.
	aggBest := math.Inf(1)
	deliver := func(from, to int) {
		if cfg.OnGeneration == nil {
			return
		}
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

	for g := 0; g < cfg.Generations; {
		end := g + interval
		if end > cfg.Generations {
			end = cfg.Generations
		}
		if err := barrier(func(is *island) error { return is.runSpan(g, end) }); err != nil {
			return nil, err
		}
		deliver(g, end)
		g = end
		if g < cfg.Generations {
			if err := ctx.Err(); err != nil {
				// Anytime contract at island granularity: every island has
				// completed exactly g generations and every completed
				// generation's stats were delivered, so the partial Result is
				// consistent with the observer stream.
				return assembleIslands(isls, g), fmt.Errorf("ea: run cancelled before generation %d: %w", g, err)
			}
			migrate(isls, count, full)
		}
	}
	return assembleIslands(isls, cfg.Generations), nil
}

// migrate exchanges the islands' top-count parents along the topology. Two
// phases: first every island clones its migrants into its outbox (so merges
// cannot observe a peer's post-merge parents), then every island merges its
// inbox. Migration consumes no RNG, so the per-island streams are
// independent of topology and migration parameters.
func migrate(isls []*island, count int, full bool) {
	for _, is := range isls {
		is.outbox = is.outbox[:0]
		// parents are rank-ordered by selectBest, so the top-count is a
		// prefix; Clone makes the migrants free-standing.
		for i := 0; i < count && i < len(is.parents); i++ {
			is.outbox = append(is.outbox, is.parents[i].Clone())
		}
	}
	n := len(isls)
	for i, is := range isls {
		if full {
			var inbox []Individual
			for j := 0; j < n; j++ {
				if j != i {
					inbox = append(inbox, isls[j].outbox...)
				}
			}
			is.mergeMigrants(inbox)
		} else {
			is.mergeMigrants(isls[(i+n-1)%n].outbox)
		}
	}
}

// mergeMigrants forms the island's next parent generation from its current
// parents plus the incoming migrants: rank-ordered by fitness, ties broken
// by the canonical placement bytes (and then by the stable sort, so an
// existing parent wins over a byte-identical migrant). Surviving parents
// pass through without a copy, as in selectBest, where the measured saving
// is recorded, while surviving migrants are cloned, because under the full
// topology the same outbox clone lands in several inboxes.
func (is *island) mergeMigrants(inbox []Individual) {
	if len(inbox) == 0 {
		return
	}
	np := len(is.parents)
	cand := make([]Individual, 0, np+len(inbox))
	cand = append(cand, is.parents...)
	cand = append(cand, inbox...)
	idx := make([]int, len(cand))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return bestLess(cand[idx[a]], cand[idx[b]]) })
	mu := is.cfg.Mu
	if mu > len(cand) {
		mu = len(cand)
	}
	next := make([]Individual, mu)
	for i := range next {
		j := idx[i]
		if j < np {
			next[i] = cand[j]
		} else {
			next[i] = cand[j].Clone()
		}
	}
	is.parents = next
}

// assembleIslands folds N island results into one Result: counters are
// summed, History[g] is the best incumbent across islands after generation
// g, and Best is the global winner — fitness first, ties broken by the
// canonical placement bytes, then by island index (the iteration order) —
// so the assembled result is independent of which island finished first.
func assembleIslands(isls []*island, gens int) *Result {
	res := &Result{Generations: gens}
	res.History = make([]float64, gens+1)
	for g := range res.History {
		best := isls[0].res.History[g]
		for _, is := range isls[1:] {
			if h := is.res.History[g]; h < best {
				best = h
			}
		}
		res.History[g] = best
	}
	bestIdx := 0
	for i, is := range isls {
		res.Evaluations += is.res.Evaluations
		res.Rejections += is.res.Rejections
		res.PrefilterRejections += is.res.PrefilterRejections
		res.Culls += is.res.Culls
		if i > 0 && bestLess(is.res.Best, isls[bestIdx].res.Best) {
			bestIdx = i
		}
	}
	res.Best = isls[bestIdx].res.Best // already a private clone
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
