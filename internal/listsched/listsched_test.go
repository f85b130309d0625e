package listsched

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"emts/internal/dag"
	"emts/internal/model"
	"emts/internal/platform"
	"emts/internal/schedule"
)

var testCluster = platform.Cluster{Name: "test", Procs: 4, SpeedGFlops: 1}

func buildGraph(t *testing.T, flops []float64, edges [][2]int) *dag.Graph {
	t.Helper()
	b := dag.NewBuilder("g")
	for _, f := range flops {
		b.AddTask(dag.Task{Flops: f, Alpha: 0})
	}
	for _, e := range edges {
		b.AddEdge(dag.TaskID(e[0]), dag.TaskID(e[1]))
	}
	return b.MustBuild()
}

func TestMapSingleTask(t *testing.T) {
	g := buildGraph(t, []float64{4e9}, nil)
	tab := model.MustTable(g, model.Amdahl{}, testCluster)
	s, err := Map(g, tab, schedule.Allocation{2})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(g, tab); err != nil {
		t.Fatal(err)
	}
	// alpha = 0, 4 GFLOP on 2 procs of 1 GFLOPS: 2 s.
	if s.Makespan() != 2 {
		t.Fatalf("makespan = %g, want 2", s.Makespan())
	}
	if got := s.Entries[0].Procs; len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("procs = %v, want [0 1] (first processor set)", got)
	}
}

func TestMapChainSequentializes(t *testing.T) {
	g := buildGraph(t, []float64{1e9, 2e9, 3e9}, [][2]int{{0, 1}, {1, 2}})
	tab := model.MustTable(g, model.Amdahl{}, testCluster)
	s, err := Map(g, tab, schedule.Ones(3))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(g, tab); err != nil {
		t.Fatal(err)
	}
	if s.Makespan() != 6 {
		t.Fatalf("makespan = %g, want 6", s.Makespan())
	}
	if s.Entries[1].Start != 1 || s.Entries[2].Start != 3 {
		t.Fatalf("starts: %g, %g", s.Entries[1].Start, s.Entries[2].Start)
	}
}

func TestMapIndependentTasksRunConcurrently(t *testing.T) {
	g := buildGraph(t, []float64{2e9, 2e9, 2e9, 2e9}, nil)
	tab := model.MustTable(g, model.Amdahl{}, testCluster)
	s, err := Map(g, tab, schedule.Ones(4))
	if err != nil {
		t.Fatal(err)
	}
	// 4 unit tasks, 4 procs: all in parallel.
	if s.Makespan() != 2 {
		t.Fatalf("makespan = %g, want 2", s.Makespan())
	}
	for i, e := range s.Entries {
		if e.Start != 0 {
			t.Fatalf("task %d starts at %g", i, e.Start)
		}
	}
}

func TestMapSerializesWhenProcsShort(t *testing.T) {
	// 3 tasks needing 2 procs each on a 4-proc cluster: two waves.
	g := buildGraph(t, []float64{2e9, 2e9, 2e9}, nil)
	tab := model.MustTable(g, model.Amdahl{}, testCluster)
	s, err := Map(g, tab, schedule.Allocation{2, 2, 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(g, tab); err != nil {
		t.Fatal(err)
	}
	if s.Makespan() != 2 {
		t.Fatalf("makespan = %g, want 2 (two at t=0, one at t=1)", s.Makespan())
	}
	starts := []float64{s.Entries[0].Start, s.Entries[1].Start, s.Entries[2].Start}
	atZero := 0
	for _, st := range starts {
		if st == 0 {
			atZero++
		}
	}
	if atZero != 2 {
		t.Fatalf("starts = %v, want exactly two at t=0", starts)
	}
}

func TestMapPriorityByBottomLevel(t *testing.T) {
	// Two independent chains; the longer chain's head must run first when
	// both compete for a single processor.
	g := buildGraph(t, []float64{1e9, 5e9, 1e9}, [][2]int{{1, 2}})
	one := platform.Cluster{Name: "uni", Procs: 1, SpeedGFlops: 1}
	tab := model.MustTable(g, model.Amdahl{}, one)
	s, err := Map(g, tab, schedule.Ones(3))
	if err != nil {
		t.Fatal(err)
	}
	// bl(task1) = 6 > bl(task0) = 1, so task 1 starts at 0.
	if s.Entries[1].Start != 0 {
		t.Fatalf("high-priority task starts at %g, want 0", s.Entries[1].Start)
	}
	if s.Makespan() != 7 {
		t.Fatalf("makespan = %g, want 7", s.Makespan())
	}
}

func TestMapBackfillingViaSmallAllocations(t *testing.T) {
	// One wide task (4 procs) and one small independent task. With the big
	// task having larger bl it goes first and occupies everything; the small
	// task follows. Shrinking the big task to 3 procs lets the small task
	// backfill on the free processor.
	g := buildGraph(t, []float64{8e9, 1e9}, nil)
	tab := model.MustTable(g, model.Amdahl{}, testCluster)

	full, err := Map(g, tab, schedule.Allocation{4, 1})
	if err != nil {
		t.Fatal(err)
	}
	if full.Entries[1].Start != 2 { // after the wide task ends
		t.Fatalf("no-backfill start = %g, want 2", full.Entries[1].Start)
	}

	shrunk, err := Map(g, tab, schedule.Allocation{3, 1})
	if err != nil {
		t.Fatal(err)
	}
	if shrunk.Entries[1].Start != 0 {
		t.Fatalf("backfilled start = %g, want 0", shrunk.Entries[1].Start)
	}
}

func TestMapRejectsBadAllocation(t *testing.T) {
	g := buildGraph(t, []float64{1e9}, nil)
	tab := model.MustTable(g, model.Amdahl{}, testCluster)
	if _, err := Map(g, tab, schedule.Allocation{5}); err == nil {
		t.Fatal("allocation > P accepted")
	}
	if _, err := Map(g, tab, schedule.Allocation{0}); err == nil {
		t.Fatal("allocation 0 accepted")
	}
	if _, err := Map(g, tab, schedule.Allocation{1, 1}); err == nil {
		t.Fatal("wrong-length allocation accepted")
	}
}

func TestMapRejectsMismatchedTable(t *testing.T) {
	g := buildGraph(t, []float64{1e9, 1e9}, nil)
	small := buildGraph(t, []float64{1e9}, nil)
	tab := model.MustTable(small, model.Amdahl{}, testCluster)
	if _, err := Map(g, tab, schedule.Ones(2)); err == nil {
		t.Fatal("mismatched table accepted")
	}
}

func TestMakespanMatchesMap(t *testing.T) {
	g := buildGraph(t, []float64{3e9, 4e9, 5e9, 1e9}, [][2]int{{0, 2}, {1, 2}, {2, 3}})
	tab := model.MustTable(g, model.Synthetic{}, testCluster)
	alloc := schedule.Allocation{2, 1, 4, 1}
	s, err := Map(g, tab, alloc)
	if err != nil {
		t.Fatal(err)
	}
	ms, err := Makespan(g, tab, alloc)
	if err != nil {
		t.Fatal(err)
	}
	if ms != s.Makespan() {
		t.Fatalf("Makespan fast path %g != full map %g", ms, s.Makespan())
	}
}

func TestRejectionStrategy(t *testing.T) {
	g := buildGraph(t, []float64{4e9, 4e9}, [][2]int{{0, 1}})
	tab := model.MustTable(g, model.Amdahl{}, testCluster)
	alloc := schedule.Ones(2)
	m, err := NewMapper(g, tab)
	if err != nil {
		t.Fatal(err)
	}
	// True makespan is 8; a bound of 5 must reject, a bound of 9 must pass.
	if _, err := m.MakespanBounded(alloc, 5); !errors.Is(err, schedule.ErrRejected) {
		t.Fatalf("want schedule.ErrRejected, got %v", err)
	}
	ms, err := m.MakespanBounded(alloc, 9)
	if err != nil {
		t.Fatal(err)
	}
	if ms != 8 {
		t.Fatalf("makespan = %g", ms)
	}
}

func TestRejectionNeverFiresAboveTrueMakespan(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g, alloc, tab := randomInstance(rng)
		ms, err := Makespan(g, tab, alloc)
		if err != nil {
			return false
		}
		m, err := NewMapper(g, tab)
		if err != nil {
			return false
		}
		_, err = m.MakespanBounded(alloc, ms*1.0001)
		return err == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// randomInstance builds a random layered PTG, allocation, and table.
func randomInstance(rng *rand.Rand) (*dag.Graph, schedule.Allocation, *model.Table) {
	b := dag.NewBuilder("prop")
	n := 2 + rng.Intn(25)
	for i := 0; i < n; i++ {
		b.AddTask(dag.Task{Flops: 1e8 + rng.Float64()*5e9, Alpha: rng.Float64() / 4})
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < 0.25 {
				b.AddEdge(dag.TaskID(i), dag.TaskID(j))
			}
		}
	}
	g := b.MustBuild()
	cluster := platform.Cluster{Name: "p", Procs: 2 + rng.Intn(15), SpeedGFlops: 1 + rng.Float64()*4}
	var m model.Model = model.Amdahl{}
	if rng.Intn(2) == 0 {
		m = model.Synthetic{}
	}
	tab := model.MustTable(g, m, cluster)
	alloc := make(schedule.Allocation, n)
	for i := range alloc {
		alloc[i] = 1 + rng.Intn(cluster.Procs)
	}
	return g, alloc, tab
}

// TestMapPropertyProducesValidSchedules is the central safety net: for random
// graphs, allocations, models, and cluster sizes, the mapper must always emit
// a schedule that passes full validation and whose makespan equals at least
// the critical path under the chosen allocation.
func TestMapPropertyProducesValidSchedules(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g, alloc, tab := randomInstance(rng)
		s, err := Map(g, tab, alloc)
		if err != nil {
			return false
		}
		if err := s.Validate(g, tab); err != nil {
			t.Logf("validate: %v", err)
			return false
		}
		cp := g.CriticalPathLength(Cost(tab, alloc))
		return s.Makespan() >= cp-1e-9*cp
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestMapPropertySkipProcSetsSameMakespan checks the fitness fast path, which
// skips the processor sets, agrees with the full mapping for random
// instances.
func TestMapPropertySkipProcSetsSameMakespan(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g, alloc, tab := randomInstance(rng)
		full, err := Map(g, tab, alloc)
		if err != nil {
			return false
		}
		fast, err := Makespan(g, tab, alloc)
		if err != nil {
			return false
		}
		return full.Makespan() == fast
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestMapPropertyLowerBounds: makespan >= total work / P (area bound) and
// >= critical path (dependence bound).
func TestMapPropertyLowerBounds(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g, alloc, tab := randomInstance(rng)
		s, err := Map(g, tab, alloc)
		if err != nil {
			return false
		}
		area := 0.0
		for i := 0; i < g.NumTasks(); i++ {
			area += float64(alloc[i]) * tab.Time(dag.TaskID(i), alloc[i])
		}
		areaBound := area / float64(tab.Procs())
		ms := s.Makespan()
		return ms >= areaBound-1e-9*areaBound
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
