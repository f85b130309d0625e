package onestep

import (
	"math/rand"
	"testing"
	"testing/quick"

	"emts/internal/dag"
	"emts/internal/listsched"
	"emts/internal/model"
	"emts/internal/platform"
	"emts/internal/schedule"
)

var testCluster = platform.Cluster{Name: "test", Procs: 8, SpeedGFlops: 1}

func buildGraph(t *testing.T, flops []float64, edges [][2]int) *dag.Graph {
	t.Helper()
	b := dag.NewBuilder("g")
	for _, f := range flops {
		b.AddTask(dag.Task{Flops: f, Alpha: 0.05})
	}
	for _, e := range edges {
		b.AddEdge(dag.TaskID(e[0]), dag.TaskID(e[1]))
	}
	return b.MustBuild()
}

func TestSingleTaskGetsAllUsefulProcs(t *testing.T) {
	b := dag.NewBuilder("one")
	b.AddTask(dag.Task{Flops: 8e9, Alpha: 0}) // perfectly parallel
	g := b.MustBuild()
	tab := model.MustTable(g, model.Amdahl{}, testCluster)
	s, err := GreedyEFT{}.Schedule(g, tab)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(g, tab); err != nil {
		t.Fatal(err)
	}
	// alpha = 0: the earliest finish uses all 8 processors, 1 second.
	if len(s.Entries[0].Procs) != 8 || s.Makespan() != 1 {
		t.Fatalf("procs %d, makespan %g", len(s.Entries[0].Procs), s.Makespan())
	}
}

func TestIndependentTasksShareCluster(t *testing.T) {
	// Two identical perfectly-parallel tasks: the one-step scheduler gives
	// the first everything, then the second runs after — or splits. Either
	// way the schedule validates and no processor is oversubscribed.
	g := buildGraph(t, []float64{8e9, 8e9}, nil)
	tab := model.MustTable(g, model.Amdahl{}, testCluster)
	s, err := GreedyEFT{}.Schedule(g, tab)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(g, tab); err != nil {
		t.Fatal(err)
	}
}

func TestChainRespectPrecedence(t *testing.T) {
	g := buildGraph(t, []float64{4e9, 4e9}, [][2]int{{0, 1}})
	tab := model.MustTable(g, model.Amdahl{}, testCluster)
	s, err := GreedyEFT{}.Schedule(g, tab)
	if err != nil {
		t.Fatal(err)
	}
	if s.Entries[1].Start < s.Entries[0].End {
		t.Fatal("precedence violated")
	}
}

func TestValidationErrors(t *testing.T) {
	g := buildGraph(t, []float64{1e9}, nil)
	small := buildGraph(t, []float64{1e9, 1e9}, nil)
	tab := model.MustTable(small, model.Amdahl{}, testCluster)
	if _, err := (GreedyEFT{}).Schedule(g, tab); err == nil {
		t.Fatal("mismatched table accepted")
	}
	empty := dag.NewBuilder("e").MustBuild()
	emptyTab := model.MustTable(empty, model.Amdahl{}, testCluster)
	if _, err := (GreedyEFT{}).Schedule(empty, emptyTab); err == nil {
		t.Fatal("empty graph accepted")
	}
}

func TestPropertyValidSchedules(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b := dag.NewBuilder("prop")
		n := 2 + rng.Intn(25)
		for i := 0; i < n; i++ {
			b.AddTask(dag.Task{Flops: 1e8 + rng.Float64()*1e10, Alpha: rng.Float64() / 3})
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Float64() < 0.25 {
					b.AddEdge(dag.TaskID(i), dag.TaskID(j))
				}
			}
		}
		g := b.MustBuild()
		cluster := platform.Cluster{Name: "p", Procs: 2 + rng.Intn(16), SpeedGFlops: 1}
		var m model.Model = model.Amdahl{}
		if rng.Intn(2) == 0 {
			m = model.Synthetic{}
		}
		tab := model.MustTable(g, m, cluster)
		s, err := GreedyEFT{}.Schedule(g, tab)
		if err != nil {
			return false
		}
		return s.Validate(g, tab) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestEFTBeatsSequentialBaseline(t *testing.T) {
	// On a fork of scalable tasks, one-step EFT must beat everything-on-one-
	// processor-each scheduling mapped by the two-step mapper.
	g := buildGraph(t, []float64{10e9, 10e9, 10e9, 10e9}, nil)
	tab := model.MustTable(g, model.Amdahl{}, testCluster)
	eft, err := GreedyEFT{}.Schedule(g, tab)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := listsched.Makespan(g, tab, schedule.Ones(4))
	if err != nil {
		t.Fatal(err)
	}
	if eft.Makespan() > seq {
		t.Fatalf("EFT %g worse than sequential allocations %g", eft.Makespan(), seq)
	}
}
