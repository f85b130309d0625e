// Determinism regression tests for the arena-reusing fitness evaluation
// engine: with equal seeds, EMTS must produce bit-identical results with the
// lower-bound prefilter on and off (the worker-count axis is pinned by
// TestEngineGoldenCorpus).
package emts_test

import (
	"reflect"
	"testing"

	"emts/internal/core"
	"emts/internal/dag"
	"emts/internal/daggen"
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

				// Fast-path axis (DESIGN.md §10): disabling the lower-bound
				// prefilter must not change any search-visible output
				// relative to the prefilter-on run.
				q := pr.mk(42)
				q.UseRejection = useRejection
				q.DisablePrefilter = true
				got, err := core.Run(g, tab, q)
				if err != nil {
					t.Fatal(err)
				}
				if got.Makespan != ref.Makespan ||
					!reflect.DeepEqual(got.Alloc, ref.Alloc) ||
					!reflect.DeepEqual(got.History, ref.History) ||
					got.Evaluations != ref.Evaluations ||
					got.Rejections != ref.Rejections {
					t.Errorf("%s rejection=%v no-prefilter: diverged from the prefilter run (makespan %g vs %g, evals %d vs %d, rejects %d vs %d)",
						ctx, useRejection, got.Makespan, ref.Makespan,
						got.Evaluations, ref.Evaluations, got.Rejections, ref.Rejections)
				}
				if got.PrefilterRejections != 0 {
					t.Errorf("%s rejection=%v no-prefilter: PrefilterRejections = %d with the prefilter disabled",
						ctx, useRejection, got.PrefilterRejections)
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
