// Island-model determinism tests (DESIGN.md §17). The test names all contain
// "Island" on purpose: the CI islands-race step runs
// `go test -race ./internal/ea/... -run Island` at GOMAXPROCS 1 and 8, so the
// epoch barriers, the shared evaluation cursor, and the buffered observer
// replay are exercised under the race detector in both dispatch regimes.
package ea

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"testing"

	"emts/internal/schedule"
)

// islandTarget is the sphere optimum used by the island tests: a non-uniform
// vector so distinct islands genuinely compete on the way down.
func islandTarget(v, procs int) schedule.Allocation {
	target := make(schedule.Allocation, v)
	for i := range target {
		target[i] = 1 + (i*7)%procs
	}
	return target
}

// islandFingerprint is the byte-comparable projection of a Result that the
// determinism lattice pins: the incumbent (fitness and exact placement
// bytes), the full history, and every evaluation counter.
type islandFingerprint struct {
	Fitness             float64
	Alloc               schedule.Allocation
	History             []float64
	Evaluations         int
	Rejections          int
	PrefilterRejections int
	Generations         int
}

func fingerprintResult(r *Result) islandFingerprint {
	return islandFingerprint{
		Fitness:             r.Best.Fitness,
		Alloc:               r.Best.Alloc,
		History:             r.History,
		Evaluations:         r.Evaluations,
		Rejections:          r.Rejections,
		PrefilterRejections: r.PrefilterRejections,
		Generations:         r.Generations,
	}
}

// TestIslandSeedDerivationIdentity pins the seed scheme the determinism
// argument rests on: island 0 keeps the raw request seed (single-island
// bit-identity with the pre-island engine), every other island gets a
// distinct splitmix64-derived seed, and the derivation is a pure function.
func TestIslandSeedDerivationIdentity(t *testing.T) {
	const seed = int64(0x5eed)
	if got := islandSeed(seed, 0); got != seed {
		t.Fatalf("islandSeed(seed, 0) = %#x, want the raw seed %#x", got, seed)
	}
	seen := map[int64]int{}
	for idx := 0; idx < 16; idx++ {
		s := islandSeed(seed, idx)
		if prev, dup := seen[s]; dup {
			t.Fatalf("islands %d and %d derived the same seed %#x", prev, idx, s)
		}
		seen[s] = idx
		if again := islandSeed(seed, idx); again != s {
			t.Fatalf("islandSeed(seed, %d) not a pure function: %#x then %#x", idx, s, again)
		}
	}
	// The derived streams must actually differ, not just the seeds.
	a, b := newIslandRNG(seed, 0), newIslandRNG(seed, 1)
	same := true
	for i := 0; i < 8; i++ {
		if a.Int63() != b.Int63() {
			same = false
			break
		}
	}
	if same {
		t.Fatal("islands 0 and 1 drew identical streams for 8 draws")
	}
}

// TestIslandSingleIslandIdentity pins the compatibility half of the island
// contract: Islands 0 and 1 are the classic panmictic population, byte-
// identical to a run predating the island layer for every combination of
// worker count and (ignored) migration interval.
func TestIslandSingleIslandIdentity(t *testing.T) {
	const v, procs = 12, 6
	fitness := sphereFitness(islandTarget(v, procs))
	want, err := runAllocs(context.Background(), defaultConfig(7), v, procs, nil, fitness)
	if err != nil {
		t.Fatal(err)
	}
	base := fingerprintResult(want)
	for _, islands := range []int{0, 1} {
		for _, workers := range []int{0, 1, 3} {
			cfg := defaultConfig(7)
			cfg.Islands = islands
			cfg.Workers = workers
			// The migration interval is inert for a single population —
			// the serving tier's cache key relies on that.
			cfg.MigrationInterval = 3
			got, err := runAllocs(context.Background(), cfg, v, procs, nil, fitness)
			if err != nil {
				t.Fatal(err)
			}
			if fp := fingerprintResult(got); !reflect.DeepEqual(fp, base) {
				t.Errorf("islands=%d workers=%d: diverged from the classic run (fitness %g vs %g, evals %d vs %d)",
					islands, workers, fp.Fitness, base.Fitness, fp.Evaluations, base.Evaluations)
			}
		}
	}
}

// TestIslandMigrationLatticeDeterminism is the migration determinism property
// test: for each island count, the run is a pure function of (Config, seed)
// — byte-identical results and identical counters across GOMAXPROCS 1 and 8
// and any worker budget.
func TestIslandMigrationLatticeDeterminism(t *testing.T) {
	const v, procs = 12, 6
	fitness := sphereFitness(islandTarget(v, procs))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, islands := range []int{2, 3, 4} {
		var want islandFingerprint
		first := true
		for _, gmp := range []int{1, 8} {
			runtime.GOMAXPROCS(gmp)
			for _, workers := range []int{0, 1, 5} {
				cfg := defaultConfig(11)
				cfg.Islands = islands
				cfg.MigrationInterval = 2
				cfg.Workers = workers
				res, err := runAllocs(context.Background(), cfg, v, procs, nil, fitness)
				if err != nil {
					t.Fatal(err)
				}
				got := fingerprintResult(res)
				if first {
					want = got
					first = false
					for i := 1; i < len(got.History); i++ {
						if got.History[i] > got.History[i-1] {
							t.Fatalf("islands=%d: aggregate history worsened at generation %d: %g after %g",
								islands, i, got.History[i], got.History[i-1])
						}
					}
					continue
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("islands=%d gomaxprocs=%d workers=%d: diverged (fitness %g vs %g, evals %d vs %d)",
						islands, gmp, workers,
						got.Fitness, want.Fitness, got.Evaluations, want.Evaluations)
				}
			}
		}
	}
}

// TestIslandObserverDeliveryDeterminism pins the coordinator's barrier
// replay: the stream arrives in (generation, island) order with exactly one
// event per island per generation, BestEver is rewritten to the aggregate
// running minimum (non-increasing, so an SSE consumer can render it as "the
// best so far"), the last delivered BestEver equals the assembled
// Result.Best.Fitness, and the whole stream is bit-identical across reruns.
func TestIslandObserverDeliveryDeterminism(t *testing.T) {
	const v, procs = 12, 6
	fitness := sphereFitness(islandTarget(v, procs))
	run := func() ([]GenStats, *Result) {
		var stats []GenStats
		cfg := defaultConfig(5)
		cfg.Islands = 3
		cfg.MigrationInterval = 2
		cfg.OnGeneration = func(gs GenStats) { stats = append(stats, gs) }
		res, err := runAllocs(context.Background(), cfg, v, procs, nil, fitness)
		if err != nil {
			t.Fatal(err)
		}
		return stats, res
	}
	stats, res := run()
	cfg := defaultConfig(5)
	if want := cfg.Generations * 3; len(stats) != want {
		t.Fatalf("observer fired %d times, want generations×islands = %d", len(stats), want)
	}
	prev := stats[0].BestEver
	for i, gs := range stats {
		if wantGen, wantIsl := i/3, i%3; gs.Generation != wantGen || gs.Island != wantIsl {
			t.Fatalf("event %d: (generation, island) = (%d, %d), want (%d, %d)",
				i, gs.Generation, gs.Island, wantGen, wantIsl)
		}
		if gs.BestEver > prev {
			t.Fatalf("event %d: aggregate BestEver worsened: %g after %g", i, gs.BestEver, prev)
		}
		prev = gs.BestEver
	}
	if last := stats[len(stats)-1].BestEver; last != res.Best.Fitness {
		t.Fatalf("last delivered BestEver %g != Result.Best.Fitness %g", last, res.Best.Fitness)
	}
	again, res2 := run()
	if !reflect.DeepEqual(stats, again) {
		t.Fatal("observer stream not bit-identical across reruns")
	}
	if !reflect.DeepEqual(res.Best, res2.Best) {
		t.Fatal("result not bit-identical across reruns")
	}
}

// TestIslandCancelBarrierIdentity pins the anytime contract at island
// granularity: cancellation lands exactly at a migration barrier, so every
// island has completed the same number of generations, the partial Result is
// byte-consistent with the delivered stream, and the error wraps the
// context's cause.
func TestIslandCancelBarrierIdentity(t *testing.T) {
	const v, procs = 12, 6
	fitness := sphereFitness(islandTarget(v, procs))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var stats []GenStats
	cfg := defaultConfig(9)
	cfg.Generations = 12
	cfg.Islands = 2
	cfg.MigrationInterval = 3
	cfg.OnGeneration = func(gs GenStats) {
		stats = append(stats, gs)
		if gs.Generation >= 4 {
			cancel() // takes effect at the next barrier
		}
	}
	res, err := runAllocs(ctx, cfg, v, procs, nil, fitness)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want a context.Canceled wrap", err)
	}
	if res == nil {
		t.Fatal("cancellation after initialization must return the partial result")
	}
	if res.Generations%cfg.MigrationInterval != 0 || res.Generations <= 0 || res.Generations >= cfg.Generations {
		t.Fatalf("Generations = %d, want a positive multiple of the %d-generation epoch short of %d",
			res.Generations, cfg.MigrationInterval, cfg.Generations)
	}
	if want := res.Generations + 1; len(res.History) != want {
		t.Fatalf("len(History) = %d, want %d", len(res.History), want)
	}
	if want := res.Generations * cfg.Islands; len(stats) != want {
		t.Fatalf("observer fired %d times, want %d (every completed generation delivered)", len(stats), want)
	}
	if last := stats[len(stats)-1].BestEver; last != res.Best.Fitness {
		t.Fatalf("last streamed BestEver %g != partial Result.Best.Fitness %g", last, res.Best.Fitness)
	}
}

// TestIslandConfigValidation covers the island-specific Validate arms.
func TestIslandConfigValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.Islands = -1 },
		func(c *Config) { c.MigrationInterval = -1 },
	}
	for i, mutate := range bad {
		cfg := defaultConfig(1)
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("island config %d accepted: %+v", i, cfg)
		}
	}
	cfg := defaultConfig(1)
	cfg.Islands, cfg.MigrationInterval = 4, 3
	if err := cfg.Validate(); err != nil {
		t.Errorf("islands 4, migration interval 3 rejected: %v", err)
	}
}

// TestIslandSearchBenefit is a smoke check that the island model actually
// searches: with enough islands and migration, the run matches or beats the
// single population on the same budget for at least one of a few seeds (a
// deterministic, non-flaky stand-in for the paper's quality claim).
func TestIslandSearchBenefit(t *testing.T) {
	const v, procs = 16, 8
	fitness := sphereFitness(islandTarget(v, procs))
	better := false
	for seed := int64(1); seed <= 3; seed++ {
		single, err := runAllocs(context.Background(), defaultConfig(seed), v, procs, nil, fitness)
		if err != nil {
			t.Fatal(err)
		}
		cfg := defaultConfig(seed)
		cfg.Islands = 4
		cfg.MigrationInterval = 2
		multi, err := runAllocs(context.Background(), cfg, v, procs, nil, fitness)
		if err != nil {
			t.Fatal(err)
		}
		if multi.Best.Fitness <= single.Best.Fitness {
			better = true
		}
		if multi.Evaluations <= single.Evaluations {
			t.Fatalf("seed %d: %d evaluations across 4 islands vs %d for one population — islands did not run independent searches",
				seed, multi.Evaluations, single.Evaluations)
		}
	}
	if !better {
		t.Error("4 islands never matched the single population across 3 seeds")
	}
}
