package ea

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

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
			return 0, schedule.ErrRejectedPrefilter
		case rejectAbove > 0 && f > rejectAbove:
			return 0, schedule.ErrRejected
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
		case errors.Is(err, schedule.ErrRejectedPrefilter):
			wantRej++
			wantPre++
			f = math.Inf(1)
		case errors.Is(err, schedule.ErrRejected):
			wantRej++
			f = math.Inf(1)
		}
		want = append(want, f)
	}
	if wantPre == 0 || wantRej == wantPre || wantRej == n {
		t.Fatalf("population does not exercise every outcome: %d rejected, %d prefiltered of %d", wantRej, wantPre, n)
	}
	for _, workers := range []int{1, 2, 3, 8, 64} {
		eng := newEvalEngine(workers, shared(fitness))
		inds := enginePopulation(n, v, procs)
		var res Result
		err := eng.evaluateAll(inds, bound, &res)
		eng.stop()
		if err != nil {
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
			eng := newEvalEngine(workers, shared(fitness))
			var res Result
			err := eng.evaluateAll(inds, 0, &res)
			eng.stop()
			if err != errLow {
				t.Fatalf("workers=%d: evaluateAll returned %v, want the lowest-index error %v", workers, err, errLow)
			}
		}
	}
}

// shared is the evaluator constructor that hands every worker fitness.
func shared(fitness Evaluator) func() Evaluator {
	return func() Evaluator { return fitness }
}

// runAllocs runs the EA from allocation seeds, each clamped into [1, procs]
// and scored by fitness, with fitness shared by every worker.
func runAllocs(ctx context.Context, cfg Config, v, procs int, seeds []schedule.Allocation, fitness Evaluator) (*Result, error) {
	inds := make([]Individual, len(seeds))
	for i, s := range seeds {
		a := s.Clone().Clamp(procs)
		f, err := fitness(a, 0)
		if err != nil {
			return nil, err
		}
		inds[i] = Individual{Alloc: a, Fitness: f}
	}
	return Run(ctx, cfg, v, procs, inds, shared(fitness))
}

// TestEvaluatorConstructorPerWorker: Run builds at most one evaluator
// per worker from its constructor and calls an evaluator exactly once per
// counted evaluation, at one island and at three; without a constructor it
// fails.
func TestEvaluatorConstructorPerWorker(t *testing.T) {
	const v, procs = 8, 4
	fitness := sphereFitness(schedule.Ones(v))
	seeds := []Individual{{Alloc: schedule.Ones(v)}}
	for _, islands := range []int{1, 3} {
		var built, calls atomic.Int64
		cfg := defaultConfig(11)
		cfg.Workers = 3 * islands
		cfg.Islands = islands
		newEval := func() Evaluator {
			built.Add(1)
			return func(a schedule.Allocation, rejectAbove float64) (float64, error) {
				calls.Add(1)
				return fitness(a, rejectAbove)
			}
		}
		res, err := Run(context.Background(), cfg, v, procs, seeds, newEval)
		if err != nil {
			t.Fatal(err)
		}
		if n := built.Load(); n == 0 || n > int64(cfg.Workers) {
			t.Fatalf("islands=%d: built %d evaluators, want 1..%d", islands, n, cfg.Workers)
		}
		// The seed's fitness is known, so it is counted but not evaluated.
		if got, want := calls.Load(), int64(res.Evaluations-islands); got != want {
			t.Fatalf("islands=%d: evaluators called %d times for %d evaluations of unknown fitness", islands, got, want)
		}
		if math.IsInf(res.Best.Fitness, 1) {
			t.Fatalf("islands=%d: no valid best found: %g", islands, res.Best.Fitness)
		}
	}
	if _, err := Run(context.Background(), defaultConfig(11), v, procs, seeds, nil); err == nil {
		t.Fatal("Run without an evaluator constructor succeeded")
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
		seq, err := runAllocs(context.Background(), cfg, v, procs, nil, sphereFitness(target))
		if err != nil {
			return false
		}
		cfg.Workers = 4
		par, err := runAllocs(context.Background(), cfg, v, procs, nil, sphereFitness(target))
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

// busyWork spins for n steps: a producer that calls it is slow next to a
// trivial evaluator.
func busyWork(n int) {
	x := 0
	for i := 0; i < n; i++ {
		x += i ^ (x >> 3)
	}
	busySink = x
}

var busySink int

// slowMutator is the paper's mutator followed by busy work, so producing a
// child takes far longer than evaluating it.
type slowMutator struct{ spin int }

func (slowMutator) Name() string { return "slow-paper" }

func (m slowMutator) Mutate(rng *Rand, a schedule.Allocation, count, procs int) {
	DefaultPaperMutator().Mutate(rng, a, count, procs)
	busyWork(m.spin)
}

// TestEngineCatchUpPath: when the producer is slower than the evaluators,
// helpers catch up with the published count and wait for the next publish,
// and worker 0 evaluates whatever is left in finish. Every offspring is still
// evaluated exactly once, results and counters match one worker, and an
// evaluation error at a late index surfaces as the lowest failing one.
func TestEngineCatchUpPath(t *testing.T) {
	const v, procs = 12, 8
	target := schedule.Ones(v)

	// Through Run: a slow mutator next to a trivial evaluator.
	run := func(workers int) (*Result, int64) {
		var calls atomic.Int64
		cfg := defaultConfig(5)
		cfg.Lambda = 60
		cfg.Generations = 6
		cfg.UseRejection = true
		cfg.Mutator = slowMutator{spin: 20000}
		cfg.Workers = workers
		newEval := func() Evaluator {
			fitness := tieredFitness(target)
			return func(a schedule.Allocation, rejectAbove float64) (float64, error) {
				calls.Add(1)
				return fitness(a, rejectAbove)
			}
		}
		res, err := Run(context.Background(), cfg, v, procs, nil, newEval)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return res, calls.Load()
	}
	ref, refCalls := run(1)
	if refCalls != int64(ref.Evaluations) || ref.Rejections == 0 || ref.PrefilterRejections == 0 {
		t.Fatalf("workers=1: %d evaluator calls, counters %+v: the run does not exercise every outcome",
			refCalls, [3]int{ref.Evaluations, ref.Rejections, ref.PrefilterRejections})
	}
	for _, workers := range []int{2, 8} {
		res, calls := run(workers)
		if calls != int64(res.Evaluations) {
			t.Fatalf("workers=%d: %d evaluator calls for %d evaluations", workers, calls, res.Evaluations)
		}
		if !reflect.DeepEqual(res, ref) {
			t.Fatalf("workers=%d diverged from one worker:\n got %+v\nwant %+v", workers, res, ref)
		}
	}

	// Through the engine: index 0 is published and evaluated before anything
	// else is, so every helper has caught up and waits for publishes while
	// the failing late indices are published.
	const n = 64
	errLow, errHigh := errors.New("low"), errors.New("high")
	for _, workers := range []int{1, 2, 8} {
		inds := enginePopulation(n, v, procs)
		low, high := &inds[50].Alloc[0], &inds[60].Alloc[0]
		var perIndex [n]atomic.Int32
		var calls atomic.Int64
		index := func(a schedule.Allocation) int {
			for i := range inds {
				if &inds[i].Alloc[0] == &a[0] {
					return i
				}
			}
			return -1
		}
		fitness := func(a schedule.Allocation, _ float64) (float64, error) {
			calls.Add(1)
			i := index(a)
			perIndex[i].Add(1)
			switch &a[0] {
			case low:
				return 0, errLow
			case high:
				return 0, errHigh
			}
			return float64(i), nil
		}
		eng := newEvalEngine(workers, shared(fitness))
		eng.start(inds, 0, false)
		eng.publish(1)
		for eng.active > 1 && calls.Load() == 0 {
			runtime.Gosched()
		}
		for i := 2; i <= n; i++ {
			busyWork(20000)
			eng.publish(i)
		}
		var res Result
		err := eng.finish(&res)
		eng.stop()
		if err != errLow {
			t.Fatalf("workers=%d: finish returned %v, want the lowest-index error %v", workers, err, errLow)
		}
		if res.Evaluations != n || calls.Load() != n {
			t.Fatalf("workers=%d: %d evaluations, %d evaluator calls, want %d", workers, res.Evaluations, calls.Load(), n)
		}
		for i := range perIndex {
			if c := perIndex[i].Load(); c != 1 {
				t.Fatalf("workers=%d: individual %d evaluated %d times", workers, i, c)
			}
			if i != 50 && i != 60 && inds[i].Fitness != float64(i) {
				t.Fatalf("workers=%d: individual %d fitness %g", workers, i, inds[i].Fitness)
			}
		}
	}
}

// TestWorkerCountCapsAtGOMAXPROCS: a worker budget resolves to at most
// GOMAXPROCS workers, GOMAXPROCS for a budget of 0, and 1 on one P.
func TestWorkerCountCapsAtGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	for _, c := range [][2]int{{8, 2}, {0, 2}, {-1, 2}, {2, 2}, {1, 1}} {
		if got := WorkerCount(c[0]); got != c[1] {
			t.Errorf("GOMAXPROCS=2: WorkerCount(%d) = %d, want %d", c[0], got, c[1])
		}
	}
	runtime.GOMAXPROCS(1)
	for _, workers := range []int{0, 1, 8} {
		if got := WorkerCount(workers); got != 1 {
			t.Errorf("GOMAXPROCS=1: WorkerCount(%d) = %d, want 1", workers, got)
		}
	}
}

// outOfRangeMutator is the paper's mutator except that its failAt-th call,
// counted over every island of the run, leaves an allele above procs, or
// panics when panics is set.
type outOfRangeMutator struct {
	calls  *atomic.Int64
	failAt int64
	panics bool
}

func (outOfRangeMutator) Name() string { return "out-of-range" }

func (m outOfRangeMutator) Mutate(rng *Rand, a schedule.Allocation, count, procs int) {
	DefaultPaperMutator().Mutate(rng, a, count, procs)
	if m.calls.Add(1) == m.failAt {
		if m.panics {
			panic("mutator failed")
		}
		a[0] = procs + 1
	}
}

// TestEngineHelpersStopWithRun: each engine's helpers live for the whole run
// and no run leaves one behind, whether it completes, is cancelled between
// generations, or fails on an outside mutator's out-of-range child in the
// middle of a generation (the engine's abandon path), or that mutator panics
// there on the caller's goroutine. EMTS10's shape runs at
// Workers 2 on one island and at Workers 8 on four.
func TestEngineHelpersStopWithRun(t *testing.T) {
	const v, procs = 40, 16
	target := schedule.Ones(v)
	// A joined helper still counts until its goroutine exits, so the base is
	// the count once it has stopped falling for 20 ms.
	base := runtime.NumGoroutine()
	for quiet := 0; quiet < 20; quiet++ {
		time.Sleep(time.Millisecond)
		if n := runtime.NumGoroutine(); n < base {
			base, quiet = n, 0
		}
	}
	for _, shape := range []struct{ workers, islands int }{{2, 1}, {8, 4}} {
		perIsland := WorkerCount(max(WorkerCount(shape.workers)/shape.islands, 1))
		wantHelpers := shape.islands * (perIsland - 1)
		for _, end := range []string{"complete", "cancel", "abandon", "panic"} {
			if end == "panic" && shape.islands > 1 {
				continue // a panic on another island's goroutine ends the process
			}
			name := fmt.Sprintf("workers=%d islands=%d %s", shape.workers, shape.islands, end)
			ctx, cancel := context.WithCancel(context.Background())
			cfg := Config{Mu: 10, Lambda: 100, Generations: 10, Fm: 0.33, Seed: 9,
				Workers: shape.workers, Islands: shape.islands}
			running := 0 // goroutines while the run is between epochs
			cfg.OnGeneration = func(gs GenStats) {
				running = max(running, runtime.NumGoroutine())
				if end == "cancel" && gs.Generation == 4 {
					cancel()
				}
			}
			if end == "abandon" || end == "panic" {
				// Generation 3, halfway through one island's children.
				cfg.Mutator = outOfRangeMutator{calls: new(atomic.Int64), failAt: int64(shape.islands) * 350, panics: end == "panic"}
			}
			var err error
			panicked := func() (p any) {
				defer func() { p = recover() }()
				_, err = runAllocs(ctx, cfg, v, procs, nil, sphereFitness(target))
				return nil
			}()
			cancel()
			switch {
			case (end == "panic") != (panicked != nil),
				end == "complete" && err != nil,
				end == "cancel" && !errors.Is(err, context.Canceled),
				end == "abandon" && (err == nil || errors.Is(err, context.Canceled)):
				t.Fatalf("%s: run returned %v, panicked with %v", name, err, panicked)
			}
			if running < base+wantHelpers {
				t.Errorf("%s: %d goroutines during the run, want at least %d + %d helpers", name, running, base, wantHelpers)
			}
			for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatalf("%s: %d goroutines after the run, %d before", name, runtime.NumGoroutine(), base)
				}
			}
		}
	}
}
