package ea

import (
	"errors"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"emts/internal/schedule"
)

// evalEngine evaluates the individuals of one Run (of one island, for
// Islands > 1) — the loop EMTS spends its time in (paper §III-A). It owns one
// evaluator per worker, built once by the run's constructor (Run's newEval),
// so arena-backed evaluators like listsched.Mapper are reused for the whole
// run and never shared between goroutines.
//
// A generation is evaluated in three steps, so that evaluation can start
// while the caller (the producer) is still writing offspring: start resets
// the dispatch state for a slice of individuals, publish(n) declares
// individuals [0, n) written, and finish, called after publish(len), has the
// caller evaluate what is left as worker 0, joins the helpers and merges
// their tallies. The first publish spawns the helpers (workers 1..W−1). A
// helper claims only published indices, by CAS on one shared cursor, and
// returns as soon as it catches up with the producer instead of spinning or
// blocking; whatever it leaves, worker 0 evaluates in finish. Evaluators are
// pure functions of the allocation and every outcome is filed at the
// individual's fixed index, so which worker evaluates which index, and when,
// changes timing, never results: the counters are sums and the reported
// error is the one at the lowest failing index. With one worker no helper is
// spawned and finish runs the loop inline.
type evalEngine struct {
	newEval func() Evaluator
	workers int
	perW    []Evaluator

	// Dispatch state of the generation between start and finish, reused
	// across generations. inds, rejectAbove, cull and active are written by
	// start before any helper of the generation is spawned; spawnPending is
	// the producer's own.
	inds         []Individual
	rejectAbove  float64
	cull         bool
	active       int
	spawnPending bool
	cursor       atomic.Int64 // next unclaimed index
	published    atomic.Int64 // individuals [0, published) are written
	tallies      []tally
	wg           sync.WaitGroup
}

// tally is one worker's share of a generation's bookkeeping, merged after the
// join. err is the worker's first failure and errAt its index; the cursor
// hands every worker increasing indices, so that is the worker's lowest one.
type tally struct {
	rejected, prefiltered int
	errAt                 int
	err                   error
}

func newEvalEngine(workers int, newEval func() Evaluator) *evalEngine {
	return &evalEngine{newEval: newEval, workers: WorkerCount(workers)}
}

// WorkerCount resolves a worker budget (Config.Workers) to the number of
// goroutines a parallel phase of a run may use: GOMAXPROCS when workers <= 0,
// and 1 on a single-core host, where fan-out cannot overlap anything.
// Results are worker-count independent, so this decides timing only.
func WorkerCount(workers int) int {
	if runtime.GOMAXPROCS(0) == 1 {
		return 1
	}
	if workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return workers
}

// ensureEvaluators constructs the evaluators of workers [0, n) that do not
// exist yet. Called serially, before any worker goroutine starts.
//
//schedlint:hotpath
func (eng *evalEngine) ensureEvaluators(n int) {
	for len(eng.perW) < n {
		eng.perW = append(eng.perW, eng.newEval())
	}
}

// evaluateAll computes the fitness of every individual; rejected individuals
// get +Inf. Evaluations counts every individual, Rejections and
// PrefilterRejections every rejection decision.
//
//schedlint:hotpath
func (eng *evalEngine) evaluateAll(inds []Individual, rejectAbove float64, res *Result) error {
	eng.start(inds, rejectAbove, false)
	eng.publish(len(inds))
	return eng.finish(res)
}

// start begins the evaluation of inds, none of which is published yet.
// cull files the generation's rejections under Result.Culls instead of
// Rejections and PrefilterRejections.
//
//schedlint:hotpath
func (eng *evalEngine) start(inds []Individual, rejectAbove float64, cull bool) {
	eng.inds, eng.rejectAbove, eng.cull = inds, rejectAbove, cull
	eng.active = max(1, min(eng.workers, len(inds)))
	eng.ensureEvaluators(eng.active)
	if cap(eng.tallies) < eng.active {
		//schedlint:allow hotescape -- once-per-run setup: sized to the worker count on the first generation
		eng.tallies = make([]tally, eng.active)
	}
	eng.cursor.Store(0)
	eng.published.Store(0)
	eng.spawnPending = eng.active > 1
}

// publish declares individuals [0, n) written: from here on helpers may
// evaluate them, and the producer must not touch them until finish returns.
// n never decreases between start and finish. The first call spawns the
// helpers.
//
//schedlint:hotpath
func (eng *evalEngine) publish(n int) {
	eng.published.Store(int64(n))
	if eng.spawnPending {
		eng.spawnHelpers()
	}
}

// spawnHelpers starts workers 1..active−1, each on its own goroutine.
//
//schedlint:hotpath
func (eng *evalEngine) spawnHelpers() {
	eng.spawnPending = false
	for w := 1; w < eng.active; w++ {
		eng.wg.Add(1)
		go eng.helper(w)
	}
}

// helper runs worker w until it catches up with the producer.
//
//schedlint:hotpath
func (eng *evalEngine) helper(w int) {
	defer eng.wg.Done()
	eng.work(w)
}

// abandon stops a generation before all of it is published: it waits for
// the helpers, which evaluate only published individuals, and leaves the
// tallies unmerged. The run is failing; the engine is not used again.
func (eng *evalEngine) abandon() {
	eng.wg.Wait()
}

// finish evaluates, as worker 0, every individual no helper claimed, waits
// for the helpers and merges the generation's tallies into res. It must
// follow publish(len(inds)).
//
//schedlint:hotpath
func (eng *evalEngine) finish(res *Result) error {
	eng.work(0)
	eng.wg.Wait()

	var err error
	errAt := len(eng.inds)
	for _, t := range eng.tallies[:eng.active] {
		if eng.cull {
			res.Culls += t.rejected
		} else {
			res.Rejections += t.rejected
			res.PrefilterRejections += t.prefiltered
		}
		if t.err != nil && t.errAt < errAt {
			err, errAt = t.err, t.errAt
		}
	}
	res.Evaluations += len(eng.inds)
	return err
}

// work evaluates published individuals claimed from the shared cursor,
// through worker w's evaluator, until none is left to claim, and files
// worker w's tally. A claim is a CAS from i to i+1 made only while i is
// below the published count, so no worker ever reads an allocation the
// producer is still writing.
//
//schedlint:hotpath
func (eng *evalEngine) work(w int) {
	ev := eng.perW[w]
	inds, rejectAbove := eng.inds, eng.rejectAbove
	var t tally
	for {
		c := eng.cursor.Load()
		if c >= eng.published.Load() {
			break
		}
		if !eng.cursor.CompareAndSwap(c, c+1) {
			continue
		}
		i := int(c)
		ind := &inds[i]
		f, err := ev(ind.Alloc, rejectAbove)
		switch {
		case err == nil:
			ind.Fitness = f
		case errors.Is(err, schedule.ErrRejectedPrefilter):
			ind.Fitness = math.Inf(1)
			t.rejected++
			t.prefiltered++
		case errors.Is(err, schedule.ErrRejected):
			ind.Fitness = math.Inf(1)
			t.rejected++
		case t.err == nil:
			t.err, t.errAt = err, i
		}
	}
	eng.tallies[w] = t
}
