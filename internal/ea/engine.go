package ea

import (
	"errors"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
)

// evalEngine evaluates the individuals of one Run (of one island, for
// Islands > 1) — the loop EMTS spends its time in (paper §III-A). It owns one
// evaluator per worker, built once from Config.EvaluatorFactory, so
// arena-backed evaluators like listsched.Mapper are reused for the whole run
// and never shared between goroutines.
//
// Every generation is evaluated the same way: the workers claim indices from
// one shared atomic cursor and file each outcome at the individual's fixed
// index. Evaluators are pure functions of the allocation, so which worker
// evaluates which index changes timing, never results: the counters are sums
// and the reported error is the one at the lowest failing index. With one
// worker the loop runs inline on the caller's goroutine.
type evalEngine struct {
	fallback Evaluator
	factory  func() Evaluator
	workers  int
	perW     []Evaluator

	// Dispatch state, reused across generations.
	cursor  atomic.Int64
	tallies []tally
	wg      sync.WaitGroup
}

// tally is one worker's share of a generation's bookkeeping, merged after the
// join. err is the worker's first failure and errAt its index; the cursor
// hands every worker increasing indices, so that is the worker's lowest one.
type tally struct {
	rejected, prefiltered int
	errAt                 int
	err                   error
}

func newEvalEngine(cfg Config, fitness Evaluator) *evalEngine {
	eng := &evalEngine{
		fallback: fitness,
		factory:  cfg.EvaluatorFactory,
		workers:  cfg.Workers,
	}
	if eng.workers <= 0 {
		eng.workers = runtime.GOMAXPROCS(0)
	}
	if runtime.GOMAXPROCS(0) == 1 {
		// On a single-core host worker fan-out cannot overlap anything.
		// Results are worker-count independent, so clamping to the inline
		// loop changes timing only.
		eng.workers = 1
	}
	return eng
}

// ensureEvaluators constructs the evaluators of workers [0, n) that do not
// exist yet. Called serially, before any worker goroutine starts.
//
//schedlint:hotpath
func (eng *evalEngine) ensureEvaluators(n int) {
	for len(eng.perW) < n {
		ev := eng.fallback
		if eng.factory != nil {
			ev = eng.factory()
		}
		eng.perW = append(eng.perW, ev)
	}
}

// evaluateAll computes the fitness of every individual; rejected individuals
// get +Inf. Evaluations counts every individual, Rejections and
// PrefilterRejections every rejection decision.
//
//schedlint:hotpath
func (eng *evalEngine) evaluateAll(inds []Individual, rejectAbove float64, res *Result) error {
	workers := max(1, min(eng.workers, len(inds)))
	eng.ensureEvaluators(workers)
	if cap(eng.tallies) < workers {
		//schedlint:allow hotescape -- once-per-run setup: sized to the worker count on the first generation
		eng.tallies = make([]tally, workers)
	}
	eng.cursor.Store(0)
	for w := 1; w < workers; w++ {
		eng.wg.Add(1)
		go eng.spawned(w, inds, rejectAbove)
	}
	eng.work(0, inds, rejectAbove)
	eng.wg.Wait()

	var err error
	errAt := len(inds)
	for _, t := range eng.tallies[:workers] {
		res.Rejections += t.rejected
		res.PrefilterRejections += t.prefiltered
		if t.err != nil && t.errAt < errAt {
			err, errAt = t.err, t.errAt
		}
	}
	res.Evaluations += len(inds)
	return err
}

// spawned runs worker w on its own goroutine.
//
//schedlint:hotpath
func (eng *evalEngine) spawned(w int, inds []Individual, rejectAbove float64) {
	defer eng.wg.Done()
	eng.work(w, inds, rejectAbove)
}

// work evaluates individuals claimed from the shared cursor until none is
// left, through worker w's evaluator, and files worker w's tally.
//
//schedlint:hotpath
func (eng *evalEngine) work(w int, inds []Individual, rejectAbove float64) {
	ev := eng.perW[w]
	var t tally
	for {
		i := int(eng.cursor.Add(1) - 1)
		if i >= len(inds) {
			break
		}
		ind := &inds[i]
		f, err := ev(ind.Alloc, rejectAbove)
		switch {
		case err == nil:
			ind.Fitness = f
		case errors.Is(err, ErrRejectedPrefilter):
			ind.Fitness = math.Inf(1)
			t.rejected++
			t.prefiltered++
		case errors.Is(err, ErrRejected):
			ind.Fitness = math.Inf(1)
			t.rejected++
		case t.err == nil:
			t.err, t.errAt = err, i
		}
	}
	eng.tallies[w] = t
}
