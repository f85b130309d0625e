package alloc

import (
	"math/rand"
	"testing"
	"testing/quick"

	"emts/internal/dag"
	"emts/internal/listsched"
	"emts/internal/model"
	"emts/internal/platform"
)

func TestBiCPAProducesValidAllocation(t *testing.T) {
	g := fork(t, 6, 10e9)
	for _, m := range []model.Model{model.Amdahl{}, model.Synthetic{}} {
		tab := model.MustTable(g, m, testCluster)
		a, err := BiCPA{}.Allocate(g, tab)
		if err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		if err := a.Validate(g, testCluster.Procs); err != nil {
			t.Fatal(err)
		}
	}
}

func TestBiCPASweepIsIncremental(t *testing.T) {
	g := fork(t, 4, 20e9)
	tab := model.MustTable(g, model.Amdahl{}, testCluster)
	cands, err := BiCPA{}.Sweep(g, tab)
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) < 2 {
		t.Fatalf("only %d candidates", len(cands))
	}
	// First candidate is the all-ones allocation.
	for _, s := range cands[0].Alloc {
		if s != 1 {
			t.Fatalf("first candidate not all-ones: %v", cands[0].Alloc)
		}
	}
	// Allocations grow monotonically with q, and work grows with them.
	for i := 1; i < len(cands); i++ {
		if cands[i].Q <= cands[i-1].Q {
			t.Fatal("q not increasing")
		}
		for v := range cands[i].Alloc {
			if cands[i].Alloc[v] < cands[i-1].Alloc[v] {
				t.Fatal("allocation shrank across the sweep")
			}
		}
		if cands[i].Work < cands[i-1].Work {
			t.Fatal("work shrank across the sweep")
		}
	}
}

func TestBiCPAThetaZeroMinimizesMakespan(t *testing.T) {
	g := fork(t, 5, 15e9)
	tab := model.MustTable(g, model.Synthetic{}, testCluster)
	cands, err := BiCPA{}.Sweep(g, tab)
	if err != nil {
		t.Fatal(err)
	}
	bestMS := cands[0].Makespan
	for _, c := range cands {
		if c.Makespan < bestMS {
			bestMS = c.Makespan
		}
	}
	a, err := BiCPA{Theta: 0}.Allocate(g, tab)
	if err != nil {
		t.Fatal(err)
	}
	ms, err := listsched.Makespan(g, tab, a)
	if err != nil {
		t.Fatal(err)
	}
	if ms != bestMS {
		t.Fatalf("theta=0 picked makespan %g, sweep best is %g", ms, bestMS)
	}
}

func TestBiCPATradeoffUsesLessWork(t *testing.T) {
	// With theta close to 1 the resource criterion dominates; the chosen
	// allocation must not use more work than the pure-makespan choice.
	g := fork(t, 6, 25e9)
	tab := model.MustTable(g, model.Amdahl{}, testCluster)
	work := func(a []int) float64 {
		sum := 0.0
		for v, s := range a {
			sum += float64(s) * tab.Time(dag.TaskID(v), s)
		}
		return sum
	}
	fast, err := BiCPA{Theta: 0}.Allocate(g, tab)
	if err != nil {
		t.Fatal(err)
	}
	frugal, err := BiCPA{Theta: 0.99}.Allocate(g, tab)
	if err != nil {
		t.Fatal(err)
	}
	if work(frugal) > work(fast) {
		t.Fatalf("theta=0.99 uses more work (%g) than theta=0 (%g)", work(frugal), work(fast))
	}
}

func TestParetoFront(t *testing.T) {
	cands := []Candidate{
		{Q: 1, Makespan: 10, Work: 5},
		{Q: 2, Makespan: 8, Work: 7},
		{Q: 3, Makespan: 9, Work: 9}, // dominated by Q=2
		{Q: 4, Makespan: 6, Work: 12},
		{Q: 5, Makespan: 6, Work: 13}, // dominated by Q=4
	}
	front := ParetoFront(cands)
	if len(front) != 3 {
		t.Fatalf("front size %d: %+v", len(front), front)
	}
	for i := 1; i < len(front); i++ {
		if front[i].Makespan < front[i-1].Makespan {
			t.Fatal("front not sorted by makespan")
		}
	}
	for _, c := range front {
		if c.Q == 3 || c.Q == 5 {
			t.Fatal("dominated candidate survived")
		}
	}
}

func TestBiCPARejectsMismatchedInputs(t *testing.T) {
	g := chain(t, 3, 1e9)
	small := chain(t, 2, 1e9)
	tab := model.MustTable(small, model.Amdahl{}, testCluster)
	if _, err := (BiCPA{}).Allocate(g, tab); err == nil {
		t.Fatal("mismatched table accepted")
	}
}

func TestBiCPABeatsCPAOnMakespanProperty(t *testing.T) {
	// theta=0 BiCPA explores a superset of CPA's stopping points, so its
	// mapped makespan is never worse than CPA's.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b := dag.NewBuilder("prop")
		n := 3 + rng.Intn(15)
		for i := 0; i < n; i++ {
			b.AddTask(dag.Task{Flops: 1e9 + rng.Float64()*2e10, Alpha: rng.Float64() / 4})
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Float64() < 0.2 {
					b.AddEdge(dag.TaskID(i), dag.TaskID(j))
				}
			}
		}
		g := b.MustBuild()
		cluster := platform.Cluster{Name: "p", Procs: 2 + rng.Intn(20), SpeedGFlops: 1}
		tab := model.MustTable(g, model.Amdahl{}, cluster)
		cpaAlloc, err := CPA{}.Allocate(g, tab)
		if err != nil {
			return false
		}
		cpaMS, err := listsched.Makespan(g, tab, cpaAlloc)
		if err != nil {
			return false
		}
		biAlloc, err := BiCPA{Theta: 0}.Allocate(g, tab)
		if err != nil {
			return false
		}
		biMS, err := listsched.Makespan(g, tab, biAlloc)
		if err != nil {
			return false
		}
		return biMS <= cpaMS*(1+1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
