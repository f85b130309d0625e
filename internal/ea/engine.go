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
// A generation is one phase, evaluated in three steps, so that evaluation
// can start while the caller (the producer) is still writing offspring:
// start hands the helpers a slice of individuals, publish(n) declares
// individuals [0, n) written, and finish, called after publish(len), has the
// caller evaluate what is left as worker 0, waits for the helpers to leave
// the phase and merges their tallies. The helpers (workers 1..W−1) live for
// the whole run: the first parallel start spawns them, every parallel start
// bumps a phase counter they wait on, and stop, which runIslands defers,
// ends them. A helper claims only published indices, by CAS on one shared cursor;
// when it catches up with the producer it waits for the next publish, and it
// leaves the phase once every index up to the phase's total is claimed.
// Every wait yields to the OS as well as to Go (yield), and a helper idle
// between phases for parkAfter yields parks until start wakes it.
// Evaluators are pure functions of the allocation and every outcome is filed
// at the individual's fixed index, so which worker evaluates which index,
// and when, changes timing, never results: the counters are sums and the
// reported error is the one at the lowest failing index. With one worker no
// helper is spawned and finish runs the loop inline.
type evalEngine struct {
	newEval func() Evaluator
	workers int
	perW    []Evaluator
	tallies []tally        // one per worker
	parkers []parker       // one per helper, indexed by worker
	started bool           // the helpers are running
	wg      sync.WaitGroup // the helpers, joined by stop

	// Dispatch state of the current phase, reused across phases. inds,
	// rejectAbove, cull and stopping are written by start (stopping by stop)
	// before it bumps phase, and helpers read them only after seeing the
	// bump; active is the producer's own.
	inds        []Individual
	rejectAbove float64
	cull        bool
	stopping    bool
	active      int // workers in the phase: 1 (inline) or all of them

	// The hot counters, each on a cache line of its own: helpers poll phase
	// between phases and published while they wait, and every claim writes
	// cursor.
	_         cacheLinePad
	cursor    atomic.Int64 // next unclaimed index
	_         cacheLinePad
	published atomic.Int64 // individuals [0, published) are written
	total     atomic.Int64 // the phase's length; abandon lowers it to published
	_         cacheLinePad
	phase     atomic.Int64 // count of parallel phases started, plus stop's bump
	_         cacheLinePad
	pending   atomic.Int64 // helpers still in the current phase
	_         cacheLinePad
}

// cacheLinePad keeps the fields around it on separate cache lines.
type cacheLinePad [64]byte

// parker is where a helper sleeps between phases once it has yielded
// parkAfter times. parked is set by the helper before it sleeps and cleared
// by whichever side wins the CAS; the producer sends one token on wake only
// when it wins, and the helper receives that token whether it is asleep or
// has already seen the new phase.
type parker struct {
	parked atomic.Bool
	wake   chan struct{} // capacity 1
}

// parkAfter is the number of yields a helper spends waiting for the next
// phase before it parks. A yield costs about 1.5 µs on the 2-vCPU host when
// no other thread wants the CPU, so a helper spins through the few
// microseconds of selection between two generations and parks in longer
// serial stretches, such as an observer's work at a barrier.
const parkAfter = 200

// tally is one worker's share of a phase's bookkeeping, merged after the
// phase. err is the worker's first failure and errAt its index; the cursor
// hands every worker increasing indices, so that is the worker's lowest one.
type tally struct {
	rejected, prefiltered int
	errAt                 int
	err                   error
}

func newEvalEngine(workers int, newEval func() Evaluator) *evalEngine {
	w := WorkerCount(workers)
	eng := &evalEngine{newEval: newEval, workers: w, tallies: make([]tally, w), parkers: make([]parker, w)}
	for i := 1; i < w; i++ {
		eng.parkers[i].wake = make(chan struct{}, 1)
	}
	return eng
}

// WorkerCount resolves a worker budget (Config.Workers) to the number of
// goroutines a parallel phase of a run may use: workers, capped at
// GOMAXPROCS because a worker beyond the Ps only waits for one, and
// GOMAXPROCS when workers <= 0. A single-core host so gets one worker, and
// no fan-out. Results are worker-count independent, so this decides timing
// only.
func WorkerCount(workers int) int {
	procs := runtime.GOMAXPROCS(0)
	if workers <= 0 || workers > procs {
		return procs
	}
	return workers
}

// ensureEvaluators constructs the evaluators of workers [0, n) that do not
// exist yet. Called on the producer, before any helper starts.
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
// cull files the phase's rejections under Result.Culls instead of Rejections
// and PrefilterRejections. A phase of fewer than two individuals, or of a
// one-worker engine, runs inline and leaves the helpers waiting.
//
//schedlint:hotpath
func (eng *evalEngine) start(inds []Individual, rejectAbove float64, cull bool) {
	eng.inds, eng.rejectAbove, eng.cull = inds, rejectAbove, cull
	eng.cursor.Store(0)
	eng.published.Store(0)
	eng.total.Store(int64(len(inds)))
	eng.active = 1
	if eng.workers == 1 || len(inds) < 2 {
		eng.ensureEvaluators(1)
		return
	}
	eng.active = eng.workers
	if !eng.started {
		//schedlint:allow hotescape -- once per run: the first parallel phase spawns the helpers
		eng.startHelpers()
	}
	eng.pending.Store(int64(eng.workers - 1))
	eng.phase.Add(1)
	eng.wakeParked()
}

// startHelpers builds every worker's evaluator and spawns workers 1..W−1,
// once per run.
func (eng *evalEngine) startHelpers() {
	eng.started = true
	eng.ensureEvaluators(eng.workers)
	for w := 1; w < eng.workers; w++ {
		eng.wg.Add(1)
		go eng.helper(w)
	}
}

// wakeParked wakes every helper parked since the last phase. start and stop
// bump phase before they call it, and a helper re-reads phase after it sets
// parked, so a helper either sees the bump or is seen here.
//
//schedlint:hotpath
func (eng *evalEngine) wakeParked() {
	for w := 1; w < eng.workers; w++ {
		if p := &eng.parkers[w]; p.parked.Load() && p.parked.CompareAndSwap(true, false) {
			p.wake <- struct{}{}
		}
	}
}

// publish declares individuals [0, n) written: from here on helpers may
// evaluate them, and the producer must not touch them until finish returns.
// n never decreases between start and finish.
//
//schedlint:hotpath
func (eng *evalEngine) publish(n int) {
	eng.published.Store(int64(n))
}

// helper runs worker w for the rest of the run: it serves every parallel
// phase once, in order, and returns at stop.
//
//schedlint:hotpath
func (eng *evalEngine) helper(w int) {
	defer eng.wg.Done()
	for served := int64(0); ; {
		served = eng.nextPhase(&eng.parkers[w], served)
		if eng.stopping {
			return
		}
		eng.work(w)
		eng.pending.Add(-1)
	}
}

// nextPhase waits until phase differs from served and returns it, yielding
// parkAfter times and then sleeping on p until wakeParked.
//
//schedlint:hotpath
func (eng *evalEngine) nextPhase(p *parker, served int64) int64 {
	for idle := 0; ; idle++ {
		if ph := eng.phase.Load(); ph != served {
			return ph
		}
		if idle < parkAfter {
			yield()
			continue
		}
		p.parked.Store(true)
		if eng.phase.Load() != served && p.parked.CompareAndSwap(true, false) {
			continue
		}
		// Either no phase has begun, or wakeParked cleared parked first and
		// sends a token: take it.
		<-p.wake
	}
}

// awaitHelpers waits, as worker 0, for every helper to leave the phase.
//
//schedlint:hotpath
func (eng *evalEngine) awaitHelpers() {
	for eng.pending.Load() != 0 {
		yield()
	}
}

// abandon stops a phase before all of it is published: lowering the total
// to the published count lets the helpers leave once that much is claimed,
// and abandon waits for them. The tallies stay unmerged; the run is failing.
func (eng *evalEngine) abandon() {
	eng.total.Store(eng.published.Load())
	eng.awaitHelpers()
}

// stop ends the helpers and waits for them to return. It follows the run's
// last phase, or a phase the producer left early by a panic, which abandon
// closes first.
func (eng *evalEngine) stop() {
	if !eng.started {
		return
	}
	eng.abandon()
	eng.stopping = true
	eng.phase.Add(1)
	eng.wakeParked()
	eng.wg.Wait()
}

// finish evaluates, as worker 0, every individual no helper claimed, waits
// for the helpers to leave the phase and merges its tallies into res. It
// must follow publish(len(inds)).
//
//schedlint:hotpath
func (eng *evalEngine) finish(res *Result) error {
	eng.work(0)
	eng.awaitHelpers()

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
// through worker w's evaluator, until every index below the phase's total
// is claimed, and files worker w's tally. A claim is a CAS from i to i+1
// made only while i is below the published count, so no worker ever reads
// an allocation the producer is still writing; a helper that catches up
// with the producer yields until the next publish. Worker 0 runs after the
// last publish and never waits.
//
//schedlint:hotpath
func (eng *evalEngine) work(w int) {
	ev := eng.perW[w]
	inds, rejectAbove := eng.inds, eng.rejectAbove
	var t tally
	for {
		c := eng.cursor.Load()
		if c >= eng.published.Load() {
			if c >= eng.total.Load() {
				break
			}
			yield()
			continue
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
