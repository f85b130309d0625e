package ea

import (
	"context"
	"math"
	"testing"

	"emts/internal/schedule"
)

func TestCommaStrategyValidation(t *testing.T) {
	c := Config{Mu: 10, Lambda: 5, Generations: 3, Fm: 0.3, Strategy: Comma}
	if err := c.Validate(); err == nil {
		t.Fatal("comma with lambda < mu accepted")
	}
	c.Lambda = 10
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestStrategyString(t *testing.T) {
	if Plus.String() != "plus" || Comma.String() != "comma" {
		t.Fatal("strategy names")
	}
}

func TestCommaStrategyStillTracksBestEver(t *testing.T) {
	const v, procs = 12, 8
	target := schedule.Ones(v)
	cfg := defaultConfig(31)
	cfg.Strategy = Comma
	cfg.Generations = 15
	// Seed with the exact optimum: comma-selection discards parents, so the
	// population may lose it, but Result.Best must keep it.
	res, err := runAllocs(context.Background(), cfg, v, procs, []schedule.Allocation{target.Clone()}, sphereFitness(target))
	if err != nil {
		t.Fatal(err)
	}
	if res.Best.Fitness != 0 {
		t.Fatalf("best-ever lost under comma: %g", res.Best.Fitness)
	}
	// History is best-ever, hence still non-increasing.
	for i := 1; i < len(res.History); i++ {
		if res.History[i] > res.History[i-1] {
			t.Fatal("best-ever history increased")
		}
	}
}

func TestCommaStrategyConverges(t *testing.T) {
	const v, procs = 16, 16
	target := make(schedule.Allocation, v)
	for i := range target {
		target[i] = 1 + i%procs
	}
	cfg := defaultConfig(17)
	cfg.Strategy = Comma
	cfg.Generations = 25
	res, err := runAllocs(context.Background(), cfg, v, procs, nil, sphereFitness(target))
	if err != nil {
		t.Fatal(err)
	}
	if res.History[len(res.History)-1] >= res.History[0] {
		t.Fatal("comma strategy made no progress")
	}
}

func TestOnGenerationCallback(t *testing.T) {
	const v, procs = 10, 8
	target := schedule.Ones(v)
	cfg := defaultConfig(23)
	cfg.Generations = 4
	var stats []GenStats
	cfg.OnGeneration = func(gs GenStats) { stats = append(stats, gs) }
	res, err := runAllocs(context.Background(), cfg, v, procs, nil, sphereFitness(target))
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != cfg.Generations {
		t.Fatalf("%d callbacks, want %d", len(stats), cfg.Generations)
	}
	for i, gs := range stats {
		if gs.Generation != i {
			t.Fatalf("generation index %d at position %d", gs.Generation, i)
		}
		if gs.Best > gs.Mean || gs.Mean > gs.Worst {
			t.Fatalf("stats out of order: %+v", gs)
		}
		if gs.BestEver > gs.Best {
			t.Fatalf("best-ever %g worse than pool best %g", gs.BestEver, gs.Best)
		}
	}
	if stats[len(stats)-1].BestEver != res.Best.Fitness {
		t.Fatal("final BestEver != result best")
	}
}

func TestPoolStatsIgnoresInfiniteFitness(t *testing.T) {
	pool := []Individual{
		{Fitness: 3},
		{Fitness: math.Inf(1)},
		{Fitness: 1},
	}
	gs := poolStats(0, pool, 1, 1)
	if gs.Best != 1 || gs.Worst != 3 || gs.Mean != 2 {
		t.Fatalf("stats %+v", gs)
	}
	if gs.Rejected != 1 {
		t.Fatalf("rejected %d", gs.Rejected)
	}
}

func TestSelfAdaptiveConverges(t *testing.T) {
	const v, procs = 16, 16
	target := make(schedule.Allocation, v)
	for i := range target {
		target[i] = 1 + i%procs
	}
	cfg := defaultConfig(41)
	cfg.SelfAdaptive = true
	cfg.Generations = 25
	res, err := runAllocs(context.Background(), cfg, v, procs, nil, sphereFitness(target))
	if err != nil {
		t.Fatal(err)
	}
	if res.Best.Fitness >= res.History[0] {
		t.Fatal("self-adaptive ES made no progress")
	}
	if res.Best.Sigma <= 0 {
		t.Fatalf("best individual carries no sigma: %+v", res.Best.Sigma)
	}
	for i := 1; i < len(res.History); i++ {
		if res.History[i] > res.History[i-1] {
			t.Fatal("plus-selection violated under self-adaptation")
		}
	}
}

func TestSelfAdaptiveDeterministic(t *testing.T) {
	const v, procs = 10, 8
	target := schedule.Ones(v)
	cfg := defaultConfig(43)
	cfg.SelfAdaptive = true
	r1, err := runAllocs(context.Background(), cfg, v, procs, nil, sphereFitness(target))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := runAllocs(context.Background(), cfg, v, procs, nil, sphereFitness(target))
	if err != nil {
		t.Fatal(err)
	}
	if r1.Best.Fitness != r2.Best.Fitness || r1.Best.Sigma != r2.Best.Sigma {
		t.Fatal("self-adaptive run not deterministic")
	}
}

func TestSelfAdaptiveSigmaBounds(t *testing.T) {
	// Over many generations sigma must stay within [0.3, procs].
	const v, procs = 8, 12
	target := schedule.Ones(v)
	cfg := defaultConfig(47)
	cfg.SelfAdaptive = true
	cfg.Generations = 40
	res, err := runAllocs(context.Background(), cfg, v, procs, nil, sphereFitness(target))
	if err != nil {
		t.Fatal(err)
	}
	if res.Best.Sigma < 0.3 || res.Best.Sigma > procs {
		t.Fatalf("sigma %g escaped bounds", res.Best.Sigma)
	}
}
