package core

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"emts/internal/dag"
	"emts/internal/ea"
	"emts/internal/listsched"
	"emts/internal/model"
	"emts/internal/platform"
	"emts/internal/schedule"
)

// cullEvaluators returns an evaluator constructor that gives each worker its
// own listsched.Mapper. With honour false every evaluation ignores the bound
// the run passes, which is exactly the engine without the cull.
func cullEvaluators(g *dag.Graph, tab *model.Table, honour bool) func() ea.Evaluator {
	return func() ea.Evaluator {
		m, err := listsched.NewMapper(g, tab)
		return func(a schedule.Allocation, rejectAbove float64) (float64, error) {
			if err != nil {
				return 0, err
			}
			if !honour {
				rejectAbove = 0
			}
			return m.MakespanBounded(a, rejectAbove)
		}
	}
}

// checkCullMatchesUncut builds an instance from seed and runs EMTS5's EA with
// plus selection, self-adaptation and crossover, each at Islands 1 and 3,
// once with evaluators that honour the run's bound and once with evaluators
// that ignore it. Every ea.Result field but Culls must be equal. It returns
// the culls of the honouring runs.
func checkCullMatchesUncut(t testing.TB, seed int64) int {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g := randomPTG(rng, 5+rng.Intn(60))
	cluster := platform.Cluster{Name: "fuzz", Procs: 2 + rng.Intn(127), SpeedGFlops: 1 + 4*rng.Float64()}
	var mod model.Model = model.Amdahl{}
	if rng.Intn(2) == 0 {
		mod = model.Synthetic{}
	}
	tab := model.MustTable(g, mod, cluster)
	m, err := listsched.NewMapper(g, tab)
	if err != nil {
		t.Fatal(err)
	}
	var seeds []ea.Individual
	for _, s := range DefaultSeeds(seed) {
		if a, err := s.Allocate(g, tab); err == nil {
			f, err := m.Makespan(a.Clamp(cluster.Procs))
			if err != nil {
				t.Fatal(err)
			}
			seeds = append(seeds, ea.Individual{Alloc: a, Fitness: f})
		}
	}
	variants := []struct {
		name string
		set  func(*ea.Config)
	}{
		{"plus", func(*ea.Config) {}},
		{"self-adaptive", func(c *ea.Config) { c.SelfAdaptive = true }},
		{"crossover=0.5", func(c *ea.Config) { c.CrossoverProb = 0.5 }},
	}
	culls := 0
	for _, v := range variants {
		for _, islands := range []int{1, 3} {
			name := fmt.Sprintf("seed %d, %d tasks, %d procs, %s, %s, islands=%d",
				seed, g.NumTasks(), cluster.Procs, mod.Name(), v.name, islands)
			run := func(honour bool) *ea.Result {
				cfg := ea.Config{Mu: 5, Lambda: 25, Generations: 5, Fm: 0.33, Seed: seed, Islands: islands, Workers: 2}
				v.set(&cfg)
				res, err := ea.Run(context.Background(), cfg, g.NumTasks(), cluster.Procs, seeds, cullEvaluators(g, tab, honour))
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				return res
			}
			cut, uncut := run(true), run(false)
			if uncut.Culls != 0 {
				t.Fatalf("%s: %d culls with the bound ignored", name, uncut.Culls)
			}
			culls += cut.Culls
			cut.Culls = 0
			if !reflect.DeepEqual(cut, uncut) {
				t.Fatalf("%s: the cull changed the result:\n cut:   %+v\n uncut: %+v", name, cut, uncut)
			}
		}
	}
	return culls
}

// FuzzCullMatchesUncut checks that the cull drops only offspring selection
// would drop: on every fuzzed instance the EA returns the same Best, History
// and counters as without it. The seed corpus must cull something, or the
// comparison would hold vacuously.
func FuzzCullMatchesUncut(f *testing.F) {
	culls := 0
	for _, seed := range []int64{1, 2, 3, 5, 8, 13, 42, 1234} {
		f.Add(seed)
		culls += checkCullMatchesUncut(f, seed)
	}
	if culls == 0 {
		f.Fatal("no seed-corpus instance culled an offspring")
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		checkCullMatchesUncut(t, seed)
	})
}
