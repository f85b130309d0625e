// End-to-end island-model determinism over the full core stack (PR 10):
// real task graphs, the Synthetic model table, the list-scheduling mapper
// with its prefilter — everything the serving tier runs. The
// ea-level lattice (internal/ea/island_test.go) pins the coordinator in
// isolation; this test pins the composition, including the effective
// Result.Islands echo.
package emts_test

import (
	"reflect"
	"testing"

	"emts/internal/core"
	"emts/internal/model"
	"emts/internal/platform"
)

// TestIslandCoreLatticeDeterminism walks islands × worker budget over the
// standard determinism graphs: every combination with the same (islands,
// interval) must be byte-identical — worker counts change timing, never
// bytes — and a multi-island run must report its effective island count.
func TestIslandCoreLatticeDeterminism(t *testing.T) {
	for _, g := range determinismGraphs(t) {
		tab, err := model.NewTable(g, model.Synthetic{}, platform.Grelon())
		if err != nil {
			t.Fatal(err)
		}
		single, err := core.Run(g, tab, core.EMTS5(42))
		if err != nil {
			t.Fatal(err)
		}
		if single.Islands != 1 {
			t.Fatalf("%s: single-population run reports Islands = %d, want 1", g.Name(), single.Islands)
		}
		for _, islands := range []int{2, 4} {
			var want *core.Result
			for _, workers := range []int{0, 1, 4} {
				p := core.EMTS5(42)
				p.Islands = islands
				p.MigrationInterval = 2
				p.Workers = workers
				got, err := core.Run(g, tab, p)
				if err != nil {
					t.Fatal(err)
				}
				if got.Islands != islands {
					t.Fatalf("%s islands=%d: Result.Islands = %d", g.Name(), islands, got.Islands)
				}
				if err := got.Schedule.Validate(g, tab); err != nil {
					t.Fatalf("%s islands=%d: invalid schedule: %v", g.Name(), islands, err)
				}
				if want == nil {
					want = got
					continue
				}
				if got.Makespan != want.Makespan ||
					!reflect.DeepEqual(got.Alloc, want.Alloc) ||
					!reflect.DeepEqual(got.History, want.History) ||
					got.Evaluations != want.Evaluations ||
					got.Rejections != want.Rejections ||
					got.PrefilterRejections != want.PrefilterRejections {
					t.Errorf("%s islands=%d workers=%d: diverged from the first combination (makespan %g vs %g, evals %d vs %d)",
						g.Name(), islands, workers,
						got.Makespan, want.Makespan, got.Evaluations, want.Evaluations)
				}
			}
			// Plus-selection and seeding are shared, so the island run can
			// never do worse than its own seeds; and the aggregate history
			// must stay monotone like the classic run's.
			for i := 1; i < len(want.History); i++ {
				if want.History[i] > want.History[i-1] {
					t.Fatalf("%s islands=%d: history worsened at generation %d", g.Name(), islands, i)
				}
			}
		}
	}
}
