package ea

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"emts/internal/schedule"
)

func TestRunContextCancelledUpfront(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := runAllocs(ctx, defaultConfig(1), 8, 8, nil, sphereFitness(schedule.Ones(8)))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestRunContextStopsWithinOneGeneration cancels from the OnGeneration hook
// after generation 1 has been selected: the run must abort before generation 2
// starts, i.e. no further OnGeneration callbacks fire.
func TestRunContextStopsWithinOneGeneration(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var gens []int
	cfg := defaultConfig(7)
	cfg.OnGeneration = func(gs GenStats) {
		gens = append(gens, gs.Generation)
		if gs.Generation == 1 {
			cancel()
		}
	}
	_, err := runAllocs(ctx, cfg, 8, 8, nil, sphereFitness(schedule.Ones(8)))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(gens) != 2 {
		t.Fatalf("generations run after cancellation: saw callbacks for %v, want [0 1]", gens)
	}
}

// TestRunContextPartialResultOnCancel asserts the anytime contract: a
// mid-run cancellation returns the incumbent alongside context.Canceled, and
// the partial result is exactly the prefix of the uncancelled run — same
// incumbent fitness as the last OnGeneration callback, one history entry per
// completed generation, Generations counting them.
func TestRunContextPartialResultOnCancel(t *testing.T) {
	fit := sphereFitness(schedule.Ones(8))
	ctx, cancel := context.WithCancel(context.Background())
	var last GenStats
	cfg := defaultConfig(11)
	cfg.OnGeneration = func(gs GenStats) {
		last = gs
		if gs.Generation == 1 {
			cancel()
		}
	}
	res, err := runAllocs(ctx, cfg, 8, 8, nil, fit)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil {
		t.Fatal("cancelled run returned no partial result")
	}
	if res.Generations != 2 {
		t.Fatalf("Generations = %d, want 2", res.Generations)
	}
	if res.Best.Alloc == nil {
		t.Fatal("partial result has no incumbent allocation")
	}
	if res.Best.Fitness != last.BestEver {
		t.Fatalf("incumbent fitness %v != last observed BestEver %v", res.Best.Fitness, last.BestEver)
	}
	// History[0] is post-initialization, then one entry per generation.
	if len(res.History) != res.Generations+1 {
		t.Fatalf("len(History) = %d, want %d", len(res.History), res.Generations+1)
	}

	full, err := runAllocs(context.Background(), defaultConfig(11), 8, 8, nil, fit)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.History, full.History[:len(res.History)]) {
		t.Fatalf("partial history %v is not a prefix of the full run's %v", res.History, full.History)
	}
}

// TestRunContextIsTransparent asserts the cancellation plumbing costs nothing
// in terms of results: a run under a live context is bit-identical to the
// same seed under context.Background().
func TestRunContextIsTransparent(t *testing.T) {
	fit := sphereFitness(schedule.Ones(8))
	plain, err := runAllocs(context.Background(), defaultConfig(3), 8, 8, nil, fit)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	withCtx, err := runAllocs(ctx, defaultConfig(3), 8, 8, nil, fit)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain.Best, withCtx.Best) || !reflect.DeepEqual(plain.History, withCtx.History) {
		t.Fatal("a run under a live context differs from the same seed under context.Background()")
	}
}

// TestRunContextCancelDuringInitialization: a context cancelled while the
// initial population is evaluated stops the run before its first
// generation, at any island count: the partial Result holds the initial
// incumbent, one History entry and Generations 0.
func TestRunContextCancelDuringInitialization(t *testing.T) {
	fit := sphereFitness(schedule.Ones(8))
	for _, islands := range []int{1, 3} {
		ctx, cancel := context.WithCancel(context.Background())
		cancelling := func(a schedule.Allocation, rejectAbove float64) (float64, error) {
			cancel()
			return fit(a, rejectAbove)
		}
		cfg := defaultConfig(13)
		cfg.Islands = islands
		res, err := runAllocs(ctx, cfg, 8, 8, nil, cancelling)
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("islands=%d: err = %v, want context.Canceled", islands, err)
		}
		if res == nil {
			t.Fatalf("islands=%d: cancellation after initialization returned no partial result", islands)
		}
		if res.Generations != 0 || len(res.History) != 1 {
			t.Fatalf("islands=%d: Generations %d, %d History entries; want 0 and 1", islands, res.Generations, len(res.History))
		}
	}
}
