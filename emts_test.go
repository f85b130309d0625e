package emts_test

import (
	"strings"
	"testing"

	"emts"
)

func TestQuickstartFlow(t *testing.T) {
	g, err := emts.GenerateFFT(8, 42)
	if err != nil {
		t.Fatal(err)
	}
	res, err := emts.Optimize(g, emts.Grelon(), emts.Synthetic(), emts.EMTS5(42))
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan <= 0 {
		t.Fatalf("makespan %g", res.Makespan)
	}
	if out := res.Schedule.ASCII(60); !strings.Contains(out, "makespan") {
		t.Fatal("ASCII Gantt broken")
	}
}

func TestBuildCustomGraphAndRun(t *testing.T) {
	b := emts.NewGraph("workflow")
	prep := b.AddTask(emts.Task{Name: "prepare", Flops: 5e9, Alpha: 0.1})
	simA := b.AddTask(emts.Task{Name: "sim-a", Flops: 40e9, Alpha: 0.05})
	simB := b.AddTask(emts.Task{Name: "sim-b", Flops: 35e9, Alpha: 0.08})
	merge := b.AddTask(emts.Task{Name: "merge", Flops: 3e9, Alpha: 0.2})
	b.AddEdge(prep, simA)
	b.AddEdge(prep, simB)
	b.AddEdge(simA, merge)
	b.AddEdge(simB, merge)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := emts.Run(g, emts.Chti(), "amdahl", "mcpa", 1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Makespan <= 0 {
		t.Fatal("no makespan")
	}
}

func TestCustomModelFlow(t *testing.T) {
	g, err := emts.GenerateStrassen(7)
	if err != nil {
		t.Fatal(err)
	}
	weird := emts.ModelFunc("weird", func(v emts.Task, p int, c emts.Cluster) float64 {
		base := (v.Alpha + (1-v.Alpha)/float64(p)) * c.SequentialTime(v.Flops)
		if p%7 == 3 {
			base *= 2 // arbitrary non-monotonic bump
		}
		return base
	})
	res, err := emts.Optimize(g, emts.Chti(), weird, emts.EMTS5(3))
	if err != nil {
		t.Fatal(err)
	}
	// EMTS must avoid the poisoned processor counts in its final allocation
	// when beneficial; at minimum it returns a valid schedule.
	tab, err := emts.NewTimeTable(g, weird, emts.Chti())
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Schedule.Validate(g, tab); err != nil {
		t.Fatal(err)
	}
}

func TestCompareOrdersAlgorithms(t *testing.T) {
	g, err := emts.GenerateRandom(emts.RandomGraphConfig{
		N: 40, Width: 0.5, Regularity: 0.5, Density: 0.5, Jump: 2,
	}, 11)
	if err != nil {
		t.Fatal(err)
	}
	reports, err := emts.Compare(g, emts.Grelon(), "synthetic",
		[]string{"one", "cpa", "mcpa", "emts5"}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 4 {
		t.Fatalf("%d reports", len(reports))
	}
	if reports[0].Algorithm != "emts5" && reports[0].Makespan != reports[1].Makespan {
		t.Fatalf("EMTS5 not best: %+v", reports[0])
	}
}

func TestAllocatorsExposed(t *testing.T) {
	g, err := emts.GenerateFFT(4, 9)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := emts.NewTimeTable(g, emts.Amdahl(), emts.Chti())
	if err != nil {
		t.Fatal(err)
	}
	for _, al := range []emts.Allocator{
		emts.CPA(), emts.HCPA(), emts.MCPA(), emts.MCPA2(), emts.DeltaCP(0.9), emts.OneEach(),
	} {
		a, err := al.Allocate(g, tab)
		if err != nil {
			t.Fatalf("%s: %v", al.Name(), err)
		}
		s, err := emts.MapSchedule(g, tab, a)
		if err != nil {
			t.Fatalf("%s: %v", al.Name(), err)
		}
		ms, err := emts.Makespan(g, tab, a)
		if err != nil {
			t.Fatal(err)
		}
		if ms != s.Makespan() {
			t.Fatalf("%s: makespan mismatch", al.Name())
		}
	}
}

func TestNamesExposed(t *testing.T) {
	if len(emts.Algorithms()) < 6 || len(emts.Models()) < 3 {
		t.Fatal("name lists truncated")
	}
}

func TestDowneyModelExposed(t *testing.T) {
	g, _ := emts.GenerateStrassen(1)
	res, err := emts.Optimize(g, emts.Chti(), emts.Downey(32, 0.5), emts.EMTS5(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan <= 0 {
		t.Fatal("no makespan")
	}
}

// leadingAlleles is an operator written against the facade alone: it
// resamples the first m alleles from the stream it is handed.
type leadingAlleles struct{}

func (leadingAlleles) Name() string { return "leading" }

func (leadingAlleles) Mutate(rng *emts.Rand, a emts.Allocation, m, procs int) {
	for i := 0; i < m && i < len(a); i++ {
		a[i] = 1 + rng.Intn(procs)
	}
}

func TestMutatorsExposed(t *testing.T) {
	g, _ := emts.GenerateStrassen(2)
	for _, mut := range []emts.Mutator{emts.UniformMutator(), leadingAlleles{}} {
		p := emts.EMTS5(1)
		p.Mutator = mut
		res, err := emts.Optimize(g, emts.Chti(), emts.Synthetic(), p)
		if err != nil {
			t.Fatalf("%s: %v", mut.Name(), err)
		}
		if res.Makespan <= 0 {
			t.Fatalf("%s: no makespan", mut.Name())
		}
	}
	if emts.PaperMutator().Name() != "paper-eq1" {
		t.Fatal("paper mutator name")
	}
}

func TestSearchMethodsViaFacade(t *testing.T) {
	g, err := emts.GenerateRandom(emts.RandomGraphConfig{
		N: 30, Width: 0.5, Regularity: 0.5, Density: 0.5, Jump: 1,
	}, 31)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := emts.NewTimeTable(g, emts.Synthetic(), emts.Chti())
	if err != nil {
		t.Fatal(err)
	}
	seed, err := emts.MCPA().Allocate(g, tab)
	if err != nil {
		t.Fatal(err)
	}
	seedMS, err := emts.Makespan(g, tab, seed)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []emts.SearchMethod{emts.HillClimber(), emts.Annealer(), emts.RandomSearch()} {
		a, ms, err := emts.OptimizeSearch(g, tab, m, []emts.Allocation{seed}, 130, 1)
		if err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		if err := a.Validate(g, emts.Chti().Procs); err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		if ms > seedMS {
			t.Fatalf("%s worse than its seed: %g > %g", m.Name(), ms, seedMS)
		}
	}
}

func TestBiCPAViaFacade(t *testing.T) {
	g, _ := emts.GenerateStrassen(5)
	rep, err := emts.Run(g, emts.Chti(), "synthetic", "bicpa", 1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Makespan <= 0 {
		t.Fatal("no makespan")
	}
}

func TestEFTViaFacade(t *testing.T) {
	g, _ := emts.GenerateStrassen(6)
	rep, err := emts.Run(g, emts.Grelon(), "synthetic", "eft", 1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Makespan <= 0 {
		t.Fatal("no makespan")
	}
}

func TestProfileViaFacade(t *testing.T) {
	g, _ := emts.GenerateFFT(4, 2)
	rep, err := emts.Run(g, emts.Chti(), "amdahl", "mcpa", 1)
	if err != nil {
		t.Fatal(err)
	}
	p := emts.NewProfile(rep.Schedule)
	if p.Utilization <= 0 || p.Utilization > 1 {
		t.Fatalf("utilization %g", p.Utilization)
	}
	if p.MaxConcurrency < 1 || p.MaxConcurrency > emts.Chti().Procs {
		t.Fatalf("peak concurrency %d", p.MaxConcurrency)
	}
}

func TestMonotonizeViaFacade(t *testing.T) {
	g, _ := emts.GenerateStrassen(7)
	env := emts.Monotonize(emts.Synthetic())
	tab, err := emts.NewTimeTable(g, env, emts.Chti())
	if err != nil {
		t.Fatal(err)
	}
	if !tab.Monotone() {
		t.Fatal("Monotonize produced a non-monotone table")
	}
	rep, err := emts.Run(g, emts.Chti(), "synthetic-monotone", "cpa", 1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Makespan <= 0 {
		t.Fatal("no makespan")
	}
}

func TestCommaStrategyViaFacade(t *testing.T) {
	g, _ := emts.GenerateStrassen(8)
	p := emts.EMTS5(1)
	p.Strategy = emts.CommaStrategy
	var gens int
	p.OnGeneration = func(gs emts.GenStats) { gens++ }
	res, err := emts.Optimize(g, emts.Grelon(), emts.Synthetic(), p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan <= 0 || gens != 5 {
		t.Fatalf("makespan %g, %d generation callbacks", res.Makespan, gens)
	}
}

func TestReadGraphDOTViaFacade(t *testing.T) {
	src := `digraph d { a [size="1e9"] b [size="2e9"] a -> b }`
	g, err := emts.ReadGraphDOT(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumTasks() != 2 {
		t.Fatalf("%d tasks", g.NumTasks())
	}
}
