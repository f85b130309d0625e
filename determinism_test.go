// Determinism regression tests for the arena-reusing fitness evaluation
// engine: with equal seeds, EMTS must produce bit-identical results whichever
// evaluation layers, Mapper pool, and worker count are in play.
package emts_test

import (
	"reflect"
	"testing"

	"emts/internal/core"
	"emts/internal/dag"
	"emts/internal/daggen"
	"emts/internal/evalpool"
	"emts/internal/model"
	"emts/internal/platform"
)

// determinismGraphs returns the two PTG shapes the regression pins: an FFT
// (regular, wide) and an irregular random graph (the paper's hardest class).
func determinismGraphs(t *testing.T) []*dag.Graph {
	t.Helper()
	fft, err := daggen.FFT(16, daggen.DefaultCosts(), 3)
	if err != nil {
		t.Fatal(err)
	}
	rnd, err := daggen.Random(daggen.RandomConfig{
		N: 60, Width: 0.5, Regularity: 0.5, Density: 0.5, Jump: 2,
	}, daggen.DefaultCosts(), 5)
	if err != nil {
		t.Fatal(err)
	}
	return []*dag.Graph{fft, rnd}
}

func TestEvaluationEngineDeterminism(t *testing.T) {
	presets := []struct {
		name string
		mk   func(int64) core.Params
	}{
		{"emts5", core.EMTS5},
		{"emts10", core.EMTS10},
	}
	for _, g := range determinismGraphs(t) {
		tab, err := model.NewTable(g, model.Synthetic{}, platform.Grelon())
		if err != nil {
			t.Fatal(err)
		}
		for _, pr := range presets {
			for _, useRejection := range []bool{false, true} {
				p := pr.mk(42)
				p.UseRejection = useRejection
				ref, err := core.Run(g, tab, p)
				if err != nil {
					t.Fatal(err)
				}
				ctx := g.Name() + "/" + pr.name

				// Fast-path axes (DESIGN.md §10): disabling the lower-bound
				// prefilter and/or delta bottom levels must not change any
				// search-visible output relative to the all-layers-on run.
				for _, c := range []struct {
					name           string
					noPre, noDelta bool
				}{
					{"no-prefilter", true, false},
					{"no-delta", false, true},
					{"no-fastpath", true, true},
				} {
					q := pr.mk(42)
					q.UseRejection = useRejection
					q.DisablePrefilter = c.noPre
					q.DisableDelta = c.noDelta
					got, err := core.Run(g, tab, q)
					if err != nil {
						t.Fatal(err)
					}
					if got.Makespan != ref.Makespan ||
						!reflect.DeepEqual(got.Alloc, ref.Alloc) ||
						!reflect.DeepEqual(got.History, ref.History) ||
						got.Evaluations != ref.Evaluations ||
						got.Rejections != ref.Rejections {
						t.Errorf("%s rejection=%v %s: diverged from fast-path run (makespan %g vs %g, evals %d vs %d, rejects %d vs %d)",
							ctx, useRejection, c.name, got.Makespan, ref.Makespan,
							got.Evaluations, ref.Evaluations, got.Rejections, ref.Rejections)
					}
					if c.noPre && got.PrefilterRejections != 0 {
						t.Errorf("%s rejection=%v %s: PrefilterRejections = %d with the prefilter disabled",
							ctx, useRejection, c.name, got.PrefilterRejections)
					}
				}
				if useRejection && ref.PrefilterRejections == 0 {
					t.Errorf("%s: expected prefilter rejections with rejection enabled (rejected fraction is high on these instances)", ctx)
				}
				if !useRejection && ref.PrefilterRejections != 0 {
					t.Errorf("%s: PrefilterRejections = %d without a rejection bound", ctx, ref.PrefilterRejections)
				}
			}
		}
	}
}

// TestCrossRequestLayerDeterminism pins the cross-request axes: the shared
// Mapper pool and the worker count (the CPU governor's lever) must each leave
// every search-visible output bit-identical.
func TestCrossRequestLayerDeterminism(t *testing.T) {
	pool := evalpool.New(0, 0)
	for _, g := range determinismGraphs(t) {
		tab, err := model.NewTable(g, model.Synthetic{}, platform.Grelon())
		if err != nil {
			t.Fatal(err)
		}
		base := core.EMTS5(42)
		want, err := core.Run(g, tab, base)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			name    string
			pooled  bool
			workers int
		}{
			{"pool", true, 0},
			{"workers1", false, 1},
			{"workers4", false, 4},
			{"pool+workers2", true, 2},
		} {
			p := core.EMTS5(42)
			p.Workers = c.workers
			if c.pooled {
				p.MapperPool = pool
			}
			got, err := core.Run(g, tab, p)
			if err != nil {
				t.Fatalf("%s/%s: %v", g.Name(), c.name, err)
			}
			if got.Makespan != want.Makespan ||
				!reflect.DeepEqual(got.Alloc, want.Alloc) ||
				!reflect.DeepEqual(got.History, want.History) ||
				got.Evaluations != want.Evaluations ||
				got.PrefilterRejections != want.PrefilterRejections {
				t.Errorf("%s/%s: diverged from baseline (makespan %g vs %g, evals %d vs %d)",
					g.Name(), c.name, got.Makespan, want.Makespan,
					got.Evaluations, want.Evaluations)
			}
		}
	}
	if hits, misses := pool.Stats(); hits == 0 || misses == 0 {
		t.Errorf("pool Stats = (%d, %d): the pooled runs should both miss (cold) and hit (warm)", hits, misses)
	}
}
