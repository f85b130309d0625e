package ea

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"

	"emts/internal/schedule"
)

// rn is the start of the ziggurat's tail in math/rand's NormFloat64: a value
// beyond it came from the base strip's slow case.
const rn = 3.442619855899

// TestIslandRNGMatchesRand compares an island's draws with a *rand.Rand on
// rand.NewSource(islandSeed(seed, idx)) over 120 seeds and three islands each:
// long mixed sequences of Intn over 1..V (powers of two and large n with
// frequent rejection included), Float64, NormFloat64, and draws through the
// island's std, the way outside mutators read it. The sequences are long
// enough to reach the ziggurat's tail many times.
func TestIslandRNGMatchesRand(t *testing.T) {
	tails, slow := 0, 0
	for seed := int64(-3); seed < 117; seed++ {
		for idx := 0; idx < 3; idx++ {
			got := newIslandRNG(seed, idx)
			want := rand.New(rand.NewSource(islandSeed(seed, idx)))
			ops := rand.New(rand.NewSource(seed ^ 0x5ca1ab1e))
			for k := 0; k < 12000; k++ {
				switch op := ops.Intn(10); op {
				case 0, 1, 2:
					n := 1 + ops.Intn(300)
					switch ops.Intn(4) {
					case 0:
						n = 1 << ops.Intn(31)
					case 1:
						n = 1<<30 + 1 + ops.Intn(1<<30-2) // rejects often
					}
					if g, w := got.Intn(n), want.Intn(n); g != w {
						t.Fatalf("seed %d island %d draw %d: Intn(%d) = %d, rand %d", seed, idx, k, n, g, w)
					}
				case 3, 4:
					if g, w := got.Float64(), want.Float64(); g != w {
						t.Fatalf("seed %d island %d draw %d: Float64 = %v, rand %v", seed, idx, k, g, w)
					}
				case 5, 6, 7:
					before := got.feed
					g, w := got.NormFloat64(), want.NormFloat64()
					if math.Float64bits(g) != math.Float64bits(w) {
						t.Fatalf("seed %d island %d draw %d: NormFloat64 = %v, rand %v", seed, idx, k, g, w)
					}
					if math.Abs(g) > rn {
						tails++
					}
					if (before-got.feed+rngLen)%rngLen != 1 {
						slow++ // took more than one value
					}
				case 8:
					n := 1 + ops.Intn(50)
					if g, w := got.std.Intn(n), want.Intn(n); g != w {
						t.Fatalf("seed %d island %d draw %d: std.Intn(%d) = %d, rand %d", seed, idx, k, n, g, w)
					}
				case 9:
					if g, w := got.std.Uint64(), want.Uint64(); g != w {
						t.Fatalf("seed %d island %d draw %d: std.Uint64 = %v, rand %v", seed, idx, k, g, w)
					}
				}
			}
		}
	}
	t.Logf("%d NormFloat64 draws in the tail, %d took the slow path", tails, slow)
	if tails == 0 || slow == 0 {
		t.Fatalf("the sequences never reached the ziggurat's tail (%d) or slow path (%d)", tails, slow)
	}
}

// TestIslandRNGSeed: reseeding through the island's std restarts the stream
// as a fresh rand.NewSource of that seed would.
// The seeds include the edges of Seed's reduction mod 2³¹−1: seeds that
// reduce to 0, which math/rand replaces, and the extremes of int64.
func TestIslandRNGSeed(t *testing.T) {
	const m = 1<<31 - 1
	for _, seed := range []int64{99, 0, 1, -1, m, -m, 2 * m, m - 1, m + 1, 89482311, math.MinInt64, math.MaxInt64} {
		r := newIslandRNG(1, 0)
		for i := 0; i < 1000; i++ {
			r.Uint64()
		}
		r.std.Seed(seed)
		want := rand.New(rand.NewSource(seed))
		for i := 0; i < 2000; i++ {
			if g, w := r.Int63(), want.Int63(); g != w {
				t.Fatalf("seed %d, draw %d after Seed: %d, rand %d", seed, i, g, w)
			}
		}
	}
}

// refPositions, refDelta and refMutate are the mutation operators' bodies
// on a *rand.Rand: positions by a partial Fisher-Yates shuffle of a fresh
// identity, and Eq. (1)'s adjustment drawn by a call per allele.
func refPositions(rng *rand.Rand, n, m int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	m = max(min(m, n), 0)
	for i := 0; i < m; i++ {
		j := i + rng.Intn(n-i)
		idx[i], idx[j] = idx[j], idx[i]
	}
	return idx[:m]
}

func refDelta(pm PaperMutator, rng *rand.Rand) int {
	if rng.Float64() < pm.A {
		return -(int(math.Floor(math.Abs(rng.NormFloat64()*pm.Sigma1))) + 1)
	}
	return int(math.Floor(math.Abs(rng.NormFloat64()*pm.Sigma2))) + 1
}

func refMutate(mut Mutator, rng *rand.Rand, alloc schedule.Allocation, m, procs int) {
	for _, i := range refPositions(rng, len(alloc), m) {
		switch mu := mut.(type) {
		case PaperMutator:
			alloc[i] = min(max(alloc[i]+refDelta(mu, rng), 1), procs)
		case UniformMutator:
			alloc[i] = 1 + rng.Intn(procs)
		}
	}
}

// TestMutatorsIslandPathMatchRand: PaperMutator (with the paper's and with
// self-adaptive step sizes) and UniformMutator produce, child for child, the
// same offspring on an island's stream as the reference bodies on a
// *rand.Rand, with the parent pick and crossover draws of a generation and
// the odd Delta in between, and positions leaves the stream's position
// buffer the identity once it has restored the last call's swaps.
func TestMutatorsIslandPathMatchRand(t *testing.T) {
	for seed := int64(0); seed < 100; seed++ {
		ctl := rand.New(rand.NewSource(seed + 1000))
		v, procs := 1+ctl.Intn(200), 1+ctl.Intn(128)
		isl := newIslandRNG(seed, 0)
		ref := rand.New(rand.NewSource(seed))
		parents := make([]schedule.Allocation, 1+ctl.Intn(5))
		for i := range parents {
			parents[i] = make(schedule.Allocation, v)
			for j := range parents[i] {
				parents[i][j] = 1 + ctl.Intn(procs)
			}
		}
		for child := 0; child < 60; child++ {
			m := ctl.Intn(v + 3)
			pi, pr := isl.Intn(len(parents)), ref.Intn(len(parents))
			if pi != pr {
				t.Fatalf("seed %d child %d: parent pick %d, rand %d", seed, child, pi, pr)
			}
			got, want := parents[pi].Clone(), parents[pr].Clone()
			if ctl.Intn(3) == 0 {
				other := parents[ctl.Intn(len(parents))]
				uniformCrossover(isl, got, other)
				for i := range want {
					if ref.Intn(2) == 0 {
						want[i] = other[i]
					}
				}
			}
			var mut Mutator
			switch ctl.Intn(3) {
			case 0:
				mut = DefaultPaperMutator()
			case 1:
				s := 0.3 + 20*ctl.Float64()
				mut = PaperMutator{A: 0.2, Sigma1: s, Sigma2: s}
			default:
				mut = UniformMutator{}
			}
			mut.Mutate(isl, got, m, procs)
			refMutate(mut, ref, want, m, procs)
			if !slices.Equal(got, want) {
				t.Fatalf("seed %d child %d (%s, m %d): island path %v, rand %v", seed, child, mut.Name(), m, got, want)
			}
			if ctl.Intn(4) == 0 {
				if g, w := DefaultPaperMutator().Delta(isl), refDelta(DefaultPaperMutator(), ref); g != w {
					t.Fatalf("seed %d child %d: Delta %d, rand %d", seed, child, g, w)
				}
			}
		}
		isl.positions(0, 0)
		for i, p := range isl.perm {
			if p != i {
				t.Fatalf("seed %d: position buffer not the identity at %d", seed, i)
			}
		}
		if g, w := isl.Int63(), ref.Int63(); g != w {
			t.Fatalf("seed %d: streams out of step after the children", seed)
		}
	}
}

// inRangeEvaluator fails every allocation of the wrong length or with an
// allele outside [1, procs], and otherwise scores the distance to target.
func inRangeEvaluator(v, procs int, target schedule.Allocation) Evaluator {
	fit := sphereFitness(target)
	return func(a schedule.Allocation, rejectAbove float64) (float64, error) {
		if err := a.ValidateLen(v, procs); err != nil {
			return 0, err
		}
		return fit(a, rejectAbove)
	}
}

// checkOffspringInRange runs a small EA from seed under PaperMutator,
// UniformMutator, crossover and self-adaptation, and fails if any evaluated
// allocation leaves [1, procs]: the EA's evaluations are not checked, so
// this is the guarantee they rest on.
func checkOffspringInRange(t testing.TB, seed int64) {
	ctl := rand.New(rand.NewSource(seed))
	v, procs := 1+ctl.Intn(120), 1+ctl.Intn(200)
	target := make(schedule.Allocation, v)
	for i := range target {
		target[i] = 1 + ctl.Intn(procs)
	}
	seeds := []schedule.Allocation{schedule.Ones(v)}
	cfgs := []Config{
		{Mutator: DefaultPaperMutator()},
		{Mutator: PaperMutator{A: ctl.Float64(), Sigma1: 50 * ctl.Float64(), Sigma2: 50 * ctl.Float64()}},
		{Mutator: UniformMutator{}},
		{CrossoverProb: ctl.Float64()},
		{SelfAdaptive: true},
		{SelfAdaptive: true, CrossoverProb: 0.5, Islands: 2},
	}
	for i, cfg := range cfgs {
		cfg.Mu, cfg.Lambda, cfg.Generations = 1+ctl.Intn(6), 1+ctl.Intn(20), 1+ctl.Intn(5)
		cfg.Fm = 0.01 + 0.99*ctl.Float64()
		cfg.Seed, cfg.Workers = seed, 1
		if _, err := runAllocs(context.Background(), cfg, v, procs, seeds, inRangeEvaluator(v, procs, target)); err != nil {
			t.Fatalf("seed %d config %d (v %d, procs %d): %v", seed, i, v, procs, err)
		}
	}
}

// FuzzOffspringInRange: every offspring of this package's operators stays in
// [1, procs].
func FuzzOffspringInRange(f *testing.F) {
	for seed := int64(0); seed < 16; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		checkOffspringInRange(t, seed)
	})
}

// TestRunSkipsKnownFitness: a run takes each seed's fitness as given and
// calls no evaluator for a seed or for a random fill equal to one, at one
// island and at three, and a seed out of range is an error.
func TestRunSkipsKnownFitness(t *testing.T) {
	const v, procs = 30, 16
	target := islandTarget(v, procs)
	fit := sphereFitness(target)
	var calls atomic.Int64 // islands evaluate concurrently
	counting := func(a schedule.Allocation, b float64) (float64, error) {
		calls.Add(1)
		return fit(a, b)
	}
	// The island-0 stream's first random fill, as alloc.Random{Seed: 77}
	// draws it.
	rng := rand.New(rand.NewSource(77))
	first := make(schedule.Allocation, v)
	for i := range first {
		first[i] = 1 + rng.Intn(procs)
	}
	// Ones carries a fitness no evaluation returns (sphere distances are
	// never negative), so a run that took it stands out as the best.
	seeds := []Individual{{Alloc: schedule.Ones(v), Fitness: -1}, {Alloc: target.Clone()}, {Alloc: first}}
	seeds[2].Fitness, _ = fit(first, 0)
	for _, islands := range []int{1, 3} {
		cfg := Config{Mu: 10, Lambda: 40, Generations: 4, Fm: 0.33, Seed: 77, Workers: 1, Islands: islands}
		calls.Store(0)
		res, err := Run(context.Background(), cfg, v, procs, seeds, shared(counting))
		if err != nil {
			t.Fatal(err)
		}
		if res.Best.Fitness != -1 || !slices.Equal(res.Best.Alloc, seeds[0].Alloc) {
			t.Fatalf("islands %d: best %v at %g, want the seed's fitness -1", islands, res.Best.Alloc, res.Best.Fitness)
		}
		// Every island skips its seeds; island 0 also skips its first random
		// fill, and the other islands draw their own.
		if skipped := int64(res.Evaluations) - calls.Load(); skipped != int64(islands*len(seeds)+1) {
			t.Fatalf("islands %d: %d of %d evaluations called no evaluator, want %d", islands, skipped, res.Evaluations, islands*len(seeds)+1)
		}
	}
	bad := []Individual{{Alloc: append(schedule.Ones(v-1), procs+1), Fitness: 1}}
	want := bad[0].Alloc.ValidateLen(v, procs)
	if _, err := Run(context.Background(), defaultConfig(1), v, procs, bad, shared(fit)); err == nil || err.Error() != want.Error() {
		t.Fatalf("run on a seed out of range: err %v, want %v", err, want)
	}
}
