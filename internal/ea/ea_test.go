package ea

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"emts/internal/schedule"
)

// sphereFitness is a simple separable fitness: distance of the allocation
// from a target vector. Its unique optimum is the target itself.
func sphereFitness(target schedule.Allocation) Evaluator {
	return func(a schedule.Allocation, rejectAbove float64) (float64, error) {
		sum := 0.0
		for i := range a {
			d := float64(a[i] - target[i])
			sum += d * d
		}
		if rejectAbove > 0 && sum > rejectAbove {
			return 0, schedule.ErrRejected
		}
		return sum, nil
	}
}

func defaultConfig(seed int64) Config {
	return Config{Mu: 5, Lambda: 25, Generations: 10, Fm: 0.33, Seed: seed}
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{Mu: 0, Lambda: 1, Generations: 1, Fm: 0.5},
		{Mu: 1, Lambda: 0, Generations: 1, Fm: 0.5},
		{Mu: 1, Lambda: 1, Generations: 0, Fm: 0.5},
		{Mu: 1, Lambda: 1, Generations: 1, Fm: 0},
		{Mu: 1, Lambda: 1, Generations: 1, Fm: 1.5},
		{Mu: 1, Lambda: 1, Generations: 1, Fm: 0.5, CrossoverProb: -1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %d accepted: %+v", i, c)
		}
	}
	if err := defaultConfig(1).Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
}

func TestMutationCountSchedule(t *testing.T) {
	// V=100, fm=0.33, U=5: first generation mutates 33 alleles.
	if got := MutationCount(0, 5, 0.33, 100); got != 33 {
		t.Fatalf("m(0) = %d, want 33", got)
	}
	// Counts must be non-increasing in u and always >= 1.
	prev := math.MaxInt32
	for u := 0; u < 5; u++ {
		m := MutationCount(u, 5, 0.33, 100)
		if m > prev || m < 1 {
			t.Fatalf("m(%d) = %d (prev %d)", u, m, prev)
		}
		prev = m
	}
	// Final generation still mutates at least one allele.
	if got := MutationCount(4, 5, 0.33, 3); got < 1 {
		t.Fatalf("m = %d, want >= 1", got)
	}
	// Never exceeds V.
	if got := MutationCount(0, 5, 1.0, 7); got > 7 {
		t.Fatalf("m = %d > V", got)
	}
}

func TestPaperMutatorDeltaProperties(t *testing.T) {
	pm := DefaultPaperMutator()
	rng := NewRand(1)
	const n = 200000
	neg, pos := 0, 0
	for i := 0; i < n; i++ {
		d := pm.Delta(rng)
		if d == 0 {
			t.Fatal("Delta returned 0; |C| must be >= 1")
		}
		if d < 0 {
			neg++
		} else {
			pos++
		}
	}
	shrinkFrac := float64(neg) / n
	// a = 0.2: shrink with probability 20% (+- sampling noise).
	if shrinkFrac < 0.19 || shrinkFrac > 0.21 {
		t.Fatalf("shrink fraction = %g, want ~0.2", shrinkFrac)
	}
}

func TestPaperMutatorSmallChangesMoreLikely(t *testing.T) {
	pm := DefaultPaperMutator()
	rng := NewRand(2)
	counts := map[int]int{}
	for i := 0; i < 100000; i++ {
		d := pm.Delta(rng)
		if d > 0 {
			counts[d]++
		}
	}
	// P(C=1) > P(C=5) > P(C=12): folded normal is decreasing.
	if !(counts[1] > counts[5] && counts[5] > counts[12]) {
		t.Fatalf("magnitude histogram not decreasing: 1:%d 5:%d 12:%d",
			counts[1], counts[5], counts[12])
	}
}

func TestPaperMutatorMutatesExactlyMAlleles(t *testing.T) {
	pm := DefaultPaperMutator()
	f := func(seed int64, rawM uint8) bool {
		rng := NewRand(seed)
		const v, procs = 50, 64
		m := 1 + int(rawM)%v
		orig := make(schedule.Allocation, v)
		for i := range orig {
			orig[i] = 1 + rng.Intn(procs)
		}
		got := orig.Clone()
		pm.Mutate(rng, got, m, procs)
		changed := 0
		for i := range got {
			if got[i] != orig[i] {
				changed++
			}
			if got[i] < 1 || got[i] > procs {
				return false
			}
		}
		// Clamping can leave an allele unchanged (e.g. shrink at 1), so
		// changed <= m; it must never exceed m.
		return changed <= m
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestUniformMutatorBounds(t *testing.T) {
	um := UniformMutator{}
	rng := NewRand(3)
	a := schedule.Ones(20)
	um.Mutate(rng, a, 20, 7)
	for i, v := range a {
		if v < 1 || v > 7 {
			t.Fatalf("allele %d = %d out of range", i, v)
		}
	}
}

// TestSamplePositionsDistinct: Rand.positions draws min(m, n) distinct
// positions in [0, n), call after call on one stream, with n growing and
// shrinking between calls.
func TestSamplePositionsDistinct(t *testing.T) {
	f := func(seed int64, sizes []uint8) bool {
		rng := NewRand(seed)
		for k := 0; k+1 < len(sizes); k += 2 {
			n := 1 + int(sizes[k])%40
			m := int(sizes[k+1]) % 50
			pos := rng.positions(n, m)
			if len(pos) != min(m, n) {
				return false
			}
			seen := map[int]bool{}
			for _, p := range pos {
				if p < 0 || p >= n || seen[p] {
					return false
				}
				seen[p] = true
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestRunConvergesTowardOptimum(t *testing.T) {
	const v, procs = 20, 32
	target := make(schedule.Allocation, v)
	for i := range target {
		target[i] = 1 + i%procs
	}
	fit := sphereFitness(target)
	start := schedule.Ones(v)
	startFit, _ := fit(start, 0)

	cfg := defaultConfig(11)
	cfg.Generations = 30
	res, err := runAllocs(context.Background(), cfg, v, procs, []schedule.Allocation{start}, fit)
	if err != nil {
		t.Fatal(err)
	}
	if res.Best.Fitness >= startFit {
		t.Fatalf("no improvement: best %g vs start %g", res.Best.Fitness, startFit)
	}
	if res.Best.Fitness > startFit/2 {
		t.Fatalf("too little improvement: best %g vs start %g", res.Best.Fitness, startFit)
	}
}

func TestRunHistoryNonIncreasing(t *testing.T) {
	f := func(seed int64) bool {
		const v, procs = 15, 16
		target := make(schedule.Allocation, v)
		rng := rand.New(rand.NewSource(seed))
		for i := range target {
			target[i] = 1 + rng.Intn(procs)
		}
		cfg := defaultConfig(seed)
		cfg.Generations = 8
		res, err := runAllocs(context.Background(), cfg, v, procs, nil, sphereFitness(target))
		if err != nil {
			return false
		}
		if len(res.History) != cfg.Generations+1 {
			return false
		}
		for i := 1; i < len(res.History); i++ {
			if res.History[i] > res.History[i-1] {
				return false // plus-selection must conserve the best
			}
		}
		return res.Best.Fitness == res.History[len(res.History)-1]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestRunDeterministicForSameSeed(t *testing.T) {
	const v, procs = 12, 8
	target := make(schedule.Allocation, v)
	for i := range target {
		target[i] = 1 + i%procs
	}
	cfg := defaultConfig(99)
	r1, err := runAllocs(context.Background(), cfg, v, procs, nil, sphereFitness(target))
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 1 // sequential evaluation must not change the result
	r2, err := runAllocs(context.Background(), cfg, v, procs, nil, sphereFitness(target))
	if err != nil {
		t.Fatal(err)
	}
	if r1.Best.Fitness != r2.Best.Fitness || !reflect.DeepEqual(r1.Best.Alloc, r2.Best.Alloc) {
		t.Fatalf("parallel vs sequential diverged: %v/%g vs %v/%g",
			r1.Best.Alloc, r1.Best.Fitness, r2.Best.Alloc, r2.Best.Fitness)
	}
	if !reflect.DeepEqual(r1.History, r2.History) {
		t.Fatalf("histories differ: %v vs %v", r1.History, r2.History)
	}
}

func TestRunKeepsSeedIfUnbeatable(t *testing.T) {
	// Seed is the exact optimum: the EA must return it (plus-selection).
	const v, procs = 10, 4
	target := schedule.Ones(v)
	cfg := defaultConfig(5)
	res, err := runAllocs(context.Background(), cfg, v, procs, []schedule.Allocation{target.Clone()}, sphereFitness(target))
	if err != nil {
		t.Fatal(err)
	}
	if res.Best.Fitness != 0 {
		t.Fatalf("lost the optimal seed: fitness %g", res.Best.Fitness)
	}
	if !reflect.DeepEqual(res.Best.Alloc, target) {
		t.Fatalf("best = %v, want %v", res.Best.Alloc, target)
	}
}

func TestRunWithRejection(t *testing.T) {
	// Start from random individuals: once a decent best exists, worse
	// offspring must be rejected against it (and counted).
	const v, procs = 16, 16
	target := schedule.Ones(v)
	cfg := defaultConfig(7)
	cfg.UseRejection = true
	res, err := runAllocs(context.Background(), cfg, v, procs, nil, sphereFitness(target))
	if err != nil {
		t.Fatal(err)
	}
	if res.Rejections == 0 {
		t.Fatal("expected some rejections with a random start population")
	}
	if res.Rejections >= res.Evaluations {
		t.Fatalf("rejections %d >= evaluations %d", res.Rejections, res.Evaluations)
	}
}

func TestRunRejectionDoesNotChangeBest(t *testing.T) {
	f := func(seed int64) bool {
		const v, procs = 12, 10
		target := make(schedule.Allocation, v)
		rng := rand.New(rand.NewSource(seed))
		for i := range target {
			target[i] = 1 + rng.Intn(procs)
		}
		plain := defaultConfig(seed)
		rej := plain
		rej.UseRejection = true
		r1, err1 := runAllocs(context.Background(), plain, v, procs, nil, sphereFitness(target))
		r2, err2 := runAllocs(context.Background(), rej, v, procs, nil, sphereFitness(target))
		if err1 != nil || err2 != nil {
			return false
		}
		return r1.Best.Fitness == r2.Best.Fitness
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestRunCrossoverStillConverges(t *testing.T) {
	const v, procs = 20, 16
	target := make(schedule.Allocation, v)
	for i := range target {
		target[i] = 1 + i%procs
	}
	cfg := defaultConfig(13)
	cfg.CrossoverProb = 0.5
	cfg.Generations = 20
	res, err := runAllocs(context.Background(), cfg, v, procs, nil, sphereFitness(target))
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.History); i++ {
		if res.History[i] > res.History[i-1] {
			t.Fatal("history increased with crossover enabled")
		}
	}
}

func TestRunPropagatesEvaluatorError(t *testing.T) {
	boom := errors.New("boom")
	fit := func(a schedule.Allocation, _ float64) (float64, error) { return 0, boom }
	_, err := runAllocs(context.Background(), defaultConfig(1), 5, 4, nil, fit)
	if !errors.Is(err, boom) {
		t.Fatalf("got %v, want boom", err)
	}
}

func TestRunInputValidation(t *testing.T) {
	fit := sphereFitness(schedule.Ones(5))
	if _, err := runAllocs(context.Background(), defaultConfig(1), 0, 4, nil, fit); err == nil {
		t.Fatal("v=0 accepted")
	}
	if _, err := runAllocs(context.Background(), defaultConfig(1), 5, 0, nil, fit); err == nil {
		t.Fatal("procs=0 accepted")
	}
	if _, err := runAllocs(context.Background(), defaultConfig(1), 5, 4, []schedule.Allocation{schedule.Ones(3)}, fit); err == nil {
		t.Fatal("wrong-length seed accepted")
	}
	bad := defaultConfig(1)
	bad.Mu = 0
	if _, err := runAllocs(context.Background(), bad, 5, 4, nil, fit); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestRunClampsOutOfRangeSeeds(t *testing.T) {
	// A seed with allocations above procs must be clamped, not rejected:
	// heuristic output for a bigger cluster should still be usable.
	seed := schedule.Allocation{100, 1, 1, 1, 1}
	fit := sphereFitness(schedule.Ones(5))
	res, err := runAllocs(context.Background(), defaultConfig(3), 5, 4, []schedule.Allocation{seed}, fit)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range res.Best.Alloc {
		if a < 1 || a > 4 {
			t.Fatalf("allele %d out of range", a)
		}
	}
}

func TestEvaluationsCounted(t *testing.T) {
	cfg := defaultConfig(21)
	cfg.Generations = 3
	res, err := runAllocs(context.Background(), cfg, 8, 8, nil, sphereFitness(schedule.Ones(8)))
	if err != nil {
		t.Fatal(err)
	}
	want := cfg.Mu + cfg.Generations*cfg.Lambda // initial pool + offspring
	if res.Evaluations != want {
		t.Fatalf("Evaluations = %d, want %d", res.Evaluations, want)
	}
}

func TestSelectBestStableTies(t *testing.T) {
	pool := []Individual{
		{Alloc: schedule.Allocation{1}, Fitness: 2},
		{Alloc: schedule.Allocation{2}, Fitness: 1},
		{Alloc: schedule.Allocation{3}, Fitness: 1},
	}
	best := selectBest(pool, 2, 0)
	if best[0].Alloc[0] != 2 || best[1].Alloc[0] != 3 {
		t.Fatalf("selectBest order: %v", best)
	}
	// Mutating the selection must not touch the pool.
	best[0].Alloc[0] = 99
	if pool[1].Alloc[0] != 2 {
		t.Fatal("selectBest aliases pool")
	}
}
