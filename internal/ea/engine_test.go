package ea

import (
	"errors"
	"math"
	"reflect"
	"sync/atomic"
	"testing"
	"testing/quick"

	"emts/internal/schedule"
)

// tieredFitness is sphereFitness with the two rejection layers of the
// listsched evaluator: above twice the bound it rejects as a prefilter would,
// above the bound as the in-loop check would.
func tieredFitness(target schedule.Allocation) Evaluator {
	inner := sphereFitness(target)
	return func(a schedule.Allocation, rejectAbove float64) (float64, error) {
		f, _ := inner(a, 0)
		switch {
		case rejectAbove > 0 && f > 2*rejectAbove:
			return 0, ErrRejectedPrefilter
		case rejectAbove > 0 && f > rejectAbove:
			return 0, ErrRejected
		}
		return f, nil
	}
}

// enginePopulation returns n distinct individuals of length v.
func enginePopulation(n, v, procs int) []Individual {
	inds := make([]Individual, n)
	for i := range inds {
		a := make(schedule.Allocation, v)
		for j := range a {
			a[j] = 1 + (i*(j+3)+j)%procs
		}
		inds[i] = Individual{Alloc: a}
	}
	return inds
}

// TestEngineOutcomesAtFixedIndices: for any worker count, every individual
// gets exactly its own evaluation's outcome (+Inf when rejected), and the
// counters count every individual and every rejection decision.
func TestEngineOutcomesAtFixedIndices(t *testing.T) {
	const n, v, procs = 37, 6, 8
	target := schedule.Ones(v)
	fitness := tieredFitness(target)
	const bound = 60.0
	var want []float64
	wantRej, wantPre := 0, 0
	for _, ind := range enginePopulation(n, v, procs) {
		f, err := fitness(ind.Alloc, bound)
		switch {
		case errors.Is(err, ErrRejectedPrefilter):
			wantRej++
			wantPre++
			f = math.Inf(1)
		case errors.Is(err, ErrRejected):
			wantRej++
			f = math.Inf(1)
		}
		want = append(want, f)
	}
	if wantPre == 0 || wantRej == wantPre || wantRej == n {
		t.Fatalf("population does not exercise every outcome: %d rejected, %d prefiltered of %d", wantRej, wantPre, n)
	}
	for _, workers := range []int{1, 2, 3, 8, 64} {
		eng := newEvalEngine(Config{Workers: workers}, fitness)
		inds := enginePopulation(n, v, procs)
		var res Result
		if err := eng.evaluateAll(inds, bound, &res); err != nil {
			t.Fatal(err)
		}
		for i := range inds {
			if inds[i].Fitness != want[i] {
				t.Fatalf("workers=%d: individual %d fitness %g, want %g", workers, i, inds[i].Fitness, want[i])
			}
		}
		if res.Evaluations != n || res.Rejections != wantRej || res.PrefilterRejections != wantPre {
			t.Fatalf("workers=%d: counters (%d, %d, %d), want (%d, %d, %d)", workers,
				res.Evaluations, res.Rejections, res.PrefilterRejections, n, wantRej, wantPre)
		}
	}
}

// TestEngineLowestIndexError: when several evaluations fail, evaluateAll
// reports the failure at the lowest index, whichever worker hit it first.
func TestEngineLowestIndexError(t *testing.T) {
	const n, v, procs = 40, 5, 6
	inds := enginePopulation(n, v, procs)
	errLow, errHigh := errors.New("low"), errors.New("high")
	low, high := &inds[9].Alloc[0], &inds[31].Alloc[0]
	fitness := func(a schedule.Allocation, _ float64) (float64, error) {
		switch &a[0] {
		case low:
			return 0, errLow
		case high:
			return 0, errHigh
		}
		return 1, nil
	}
	for _, workers := range []int{1, 2, 4, 8} {
		for rep := 0; rep < 20; rep++ {
			eng := newEvalEngine(Config{Workers: workers}, fitness)
			var res Result
			if err := eng.evaluateAll(inds, 0, &res); err != errLow {
				t.Fatalf("workers=%d: evaluateAll returned %v, want the lowest-index error %v", workers, err, errLow)
			}
		}
	}
}

// TestEngineDeltaDispatch: individuals with a lineage go to the worker's
// delta evaluator, the rest to its plain one; DisableDelta routes everything
// to the plain evaluator.
func TestEngineDeltaDispatch(t *testing.T) {
	const n, v, procs = 20, 5, 6
	target := schedule.Ones(v)
	for _, disable := range []bool{false, true} {
		var plainCalls, deltaCalls atomic.Int64
		cfg := Config{Workers: 3, DisableDelta: disable}
		cfg.DeltaEvaluatorFactory = func() (Evaluator, DeltaEvaluator) {
			plain := func(a schedule.Allocation, bound float64) (float64, error) {
				plainCalls.Add(1)
				return sphereFitness(target)(a, bound)
			}
			delta := func(a, _ schedule.Allocation, _ []int, bound float64) (float64, error) {
				deltaCalls.Add(1)
				return sphereFitness(target)(a, bound)
			}
			return plain, delta
		}
		inds := enginePopulation(n, v, procs)
		withLineage := 0
		for i := range inds {
			if i%3 == 0 {
				inds[i].parent, inds[i].mutated = target, []int{0}
				withLineage++
			}
		}
		eng := newEvalEngine(cfg, nil)
		var res Result
		if err := eng.evaluateAll(inds, 0, &res); err != nil {
			t.Fatal(err)
		}
		wantDelta := int64(withLineage)
		if disable {
			wantDelta = 0
		}
		if deltaCalls.Load() != wantDelta || plainCalls.Load() != n-wantDelta {
			t.Fatalf("DisableDelta=%v: %d delta and %d plain calls, want %d and %d",
				disable, deltaCalls.Load(), plainCalls.Load(), wantDelta, n-wantDelta)
		}
	}
}

// TestEvaluatorFactoryUsedPerWorker: when a factory is configured, Run builds
// one evaluator pair per worker, never calls the fallback, and calls an
// evaluator exactly once per counted evaluation.
func TestEvaluatorFactoryUsedPerWorker(t *testing.T) {
	const v, procs = 8, 4
	target := schedule.Ones(v)

	var built, calls, fallbackCalls atomic.Int64
	cfg := defaultConfig(11)
	cfg.Workers = 3
	cfg.DeltaEvaluatorFactory = func() (Evaluator, DeltaEvaluator) {
		built.Add(1)
		plain := func(a schedule.Allocation, rejectAbove float64) (float64, error) {
			calls.Add(1)
			return sphereFitness(target)(a, rejectAbove)
		}
		delta := func(a, _ schedule.Allocation, _ []int, rejectAbove float64) (float64, error) {
			return plain(a, rejectAbove)
		}
		return plain, delta
	}
	fallback := func(a schedule.Allocation, rejectAbove float64) (float64, error) {
		fallbackCalls.Add(1)
		return sphereFitness(target)(a, rejectAbove)
	}
	res, err := Run(cfg, v, procs, nil, fallback)
	if err != nil {
		t.Fatal(err)
	}
	if fallbackCalls.Load() != 0 {
		t.Fatalf("fallback evaluator called %d times despite factory", fallbackCalls.Load())
	}
	if n := built.Load(); n == 0 || n > int64(cfg.Workers) {
		t.Fatalf("factory built %d evaluators, want 1..%d", n, cfg.Workers)
	}
	if got := calls.Load(); got != int64(res.Evaluations) {
		t.Fatalf("evaluators called %d times for %d evaluations", got, res.Evaluations)
	}
	if math.IsInf(res.Best.Fitness, 1) {
		t.Fatalf("no valid best found: %g", res.Best.Fitness)
	}
	if _, err := Run(cfg, v, procs, nil, nil); err != nil {
		t.Fatalf("nil fitness with a factory: %v", err)
	}
	cfg.DeltaEvaluatorFactory = nil
	if _, err := Run(cfg, v, procs, nil, nil); err == nil {
		t.Fatal("Run with neither a fitness function nor a factory succeeded")
	}
}

// TestSequentialFastPathMatchesParallel: the Workers == 1 inline loop must
// produce the same results and counters as the fanned-out workers.
func TestSequentialFastPathMatchesParallel(t *testing.T) {
	const v, procs = 10, 6
	target := make(schedule.Allocation, v)
	for i := range target {
		target[i] = 1 + i%procs
	}
	f := func(seed int64, useRejection bool) bool {
		cfg := defaultConfig(seed)
		cfg.Generations = 6
		cfg.UseRejection = useRejection
		cfg.Workers = 1
		seq, err := Run(cfg, v, procs, nil, sphereFitness(target))
		if err != nil {
			return false
		}
		cfg.Workers = 4
		par, err := Run(cfg, v, procs, nil, sphereFitness(target))
		if err != nil {
			return false
		}
		return seq.Best.Fitness == par.Best.Fitness &&
			reflect.DeepEqual(seq.Best.Alloc, par.Best.Alloc) &&
			reflect.DeepEqual(seq.History, par.History) &&
			seq.Evaluations == par.Evaluations &&
			seq.Rejections == par.Rejections
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
