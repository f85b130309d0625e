// Determinism meta-tests of one generation's evaluation batch: the switch
// lattice of the evaluation layers that remain (delta bottom levels ×
// prefilter), observer transparency, and the worker-count lever of the
// shared-cursor dispatch. The CI engine race step runs them at GOMAXPROCS 1
// and 8, so the inline loop and the goroutine fan-out both run under the
// race detector.
package emts_test

import (
	"reflect"
	"testing"

	"emts/internal/core"
	"emts/internal/ea"
	"emts/internal/model"
	"emts/internal/platform"
)

func TestBatchSwitchLatticeDeterminism(t *testing.T) {
	for _, g := range determinismGraphs(t) {
		tab, err := model.NewTable(g, model.Synthetic{}, platform.Grelon())
		if err != nil {
			t.Fatal(err)
		}
		for _, useRejection := range []bool{false, true} {
			base := core.EMTS5(42)
			base.UseRejection = useRejection
			want, err := core.Run(g, tab, base) // every layer on: delta, prefilter
			if err != nil {
				t.Fatal(err)
			}
			for mask := 0; mask < 4; mask++ {
				p := core.EMTS5(42)
				p.UseRejection = useRejection
				p.DisableDelta = mask&1 != 0
				p.DisablePrefilter = mask&2 != 0
				got, err := core.Run(g, tab, p)
				if err != nil {
					t.Fatal(err)
				}
				ctx := g.Name()
				if got.Makespan != want.Makespan ||
					!reflect.DeepEqual(got.Alloc, want.Alloc) ||
					!reflect.DeepEqual(got.History, want.History) ||
					got.Evaluations != want.Evaluations ||
					got.Rejections != want.Rejections {
					t.Errorf("%s rejection=%v delta=%v prefilter=%v: diverged from all-on baseline (makespan %g vs %g, evals %d vs %d, rejects %d vs %d)",
						ctx, useRejection, !p.DisableDelta, !p.DisablePrefilter,
						got.Makespan, want.Makespan, got.Evaluations, want.Evaluations, got.Rejections, want.Rejections)
				}
				// PrefilterRejections is the prefilter's own counter: exact
				// while the prefilter runs, necessarily zero when it is off.
				if p.DisablePrefilter || !useRejection {
					if got.PrefilterRejections != 0 {
						t.Errorf("%s: PrefilterRejections = %d with the prefilter off or no bound", ctx, got.PrefilterRejections)
					}
				} else if got.PrefilterRejections != want.PrefilterRejections {
					t.Errorf("%s rejection=%v delta=%v: PrefilterRejections %d, want %d",
						ctx, useRejection, !p.DisableDelta, got.PrefilterRejections, want.PrefilterRejections)
				}
			}
		}
	}
}

// TestBatchObserverTransparency pins the async job subsystem's zero-cost
// contract (PR 9): attaching an OnGeneration observer — the hook the SSE
// progress stream feeds from — must be invisible to the optimization. The
// observed run is bit-identical to the unobserved one, the callback fires
// exactly once per completed generation, and the streamed snapshots agree
// with the final result (incumbent fitness and cumulative counters). Runs
// under the engine race step at GOMAXPROCS 1 and 8, so the once-per-
// generation callback point is exercised in both dispatch regimes.
func TestBatchObserverTransparency(t *testing.T) {
	for _, g := range determinismGraphs(t) {
		tab, err := model.NewTable(g, model.Synthetic{}, platform.Grelon())
		if err != nil {
			t.Fatal(err)
		}
		base := core.EMTS5(42)
		base.UseRejection = true
		want, err := core.Run(g, tab, base)
		if err != nil {
			t.Fatal(err)
		}

		var stats []ea.GenStats
		p := core.EMTS5(42)
		p.UseRejection = true
		p.OnGeneration = func(gs ea.GenStats) { stats = append(stats, gs) }
		got, err := core.Run(g, tab, p)
		if err != nil {
			t.Fatal(err)
		}

		ctx := g.Name()
		if got.Makespan != want.Makespan ||
			!reflect.DeepEqual(got.Alloc, want.Alloc) ||
			!reflect.DeepEqual(got.History, want.History) ||
			got.Evaluations != want.Evaluations ||
			got.Rejections != want.Rejections ||
			got.PrefilterRejections != want.PrefilterRejections {
			t.Errorf("%s: observed run diverged from unobserved baseline (makespan %g vs %g)",
				ctx, got.Makespan, want.Makespan)
		}
		if len(stats) != got.Generations {
			t.Fatalf("%s: %d OnGeneration callbacks for %d generations", ctx, len(stats), got.Generations)
		}
		for i, gs := range stats {
			if gs.Generation != i {
				t.Fatalf("%s: callback %d reported generation %d", ctx, i, gs.Generation)
			}
		}
		last := stats[len(stats)-1]
		if last.BestEver != got.Makespan {
			t.Errorf("%s: last streamed BestEver %g != final makespan %g — the anytime/SSE contract",
				ctx, last.BestEver, got.Makespan)
		}
		if last.Evaluations != got.Evaluations ||
			last.PrefilterRejections != got.PrefilterRejections {
			t.Errorf("%s: last snapshot counters (evals %d, prefilter %d) != final result (%d, %d)",
				ctx, last.Evaluations, last.PrefilterRejections,
				got.Evaluations, got.PrefilterRejections)
		}
		// BestEver is non-increasing by plus-selection, mirroring History.
		for i := 1; i < len(stats); i++ {
			if stats[i].BestEver > stats[i-1].BestEver {
				t.Fatalf("%s: BestEver increased at generation %d (%g -> %g)",
					ctx, i, stats[i-1].BestEver, stats[i].BestEver)
			}
		}
	}
}

// TestBatchWorkerCountDeterminism pins the shared-cursor dispatch against the
// worker-count lever: which worker evaluates which offspring moves with the
// worker count, so this is the axis most likely to expose an order
// dependence in the evaluation path.
func TestBatchWorkerCountDeterminism(t *testing.T) {
	for _, g := range determinismGraphs(t) {
		tab, err := model.NewTable(g, model.Synthetic{}, platform.Grelon())
		if err != nil {
			t.Fatal(err)
		}
		base := core.EMTS5(42)
		base.UseRejection = true
		want, err := core.Run(g, tab, base)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 3, 8} {
			p := core.EMTS5(42)
			p.UseRejection = true
			p.Workers = workers
			got, err := core.Run(g, tab, p)
			if err != nil {
				t.Fatal(err)
			}
			if got.Makespan != want.Makespan ||
				!reflect.DeepEqual(got.Alloc, want.Alloc) ||
				!reflect.DeepEqual(got.History, want.History) ||
				got.Evaluations != want.Evaluations ||
				got.Rejections != want.Rejections ||
				got.PrefilterRejections != want.PrefilterRejections {
				t.Errorf("%s workers=%d: diverged from default-workers baseline (makespan %g vs %g)",
					g.Name(), workers, got.Makespan, want.Makespan)
			}
		}
	}
}
