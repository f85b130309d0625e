package listsched

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"emts/internal/dag"
	"emts/internal/model"
	"emts/internal/platform"
	"emts/internal/schedule"
)

// gridProcs are the cluster sizes the golden grid and the reference check
// draw from: the degenerate single processor, small odd sizes, the paper's
// Chti (20) and Grelon (120), and sizes past both.
var gridProcs = []int{1, 2, 3, 5, 8, 16, 20, 64, 120, 200}

// gridInstance draws one mapping instance on a procs-processor cluster: a
// random PTG of 1–60 tasks and an allocation mixing 1, procs and random
// processor counts. With identical set, every task has the same cost and the
// cluster runs at 1 GFLOPS, so tasks of equal allocation finish at exactly
// the same instant and the mapper's tie-breaks decide the schedule.
func gridInstance(rng *rand.Rand, procs int, m model.Model, identical bool) (*dag.Graph, *model.Table, schedule.Allocation) {
	n := 1 + rng.Intn(60)
	density := rng.Float64() * 0.2
	b := dag.NewBuilder("grid")
	for i := 0; i < n; i++ {
		if identical {
			b.AddTask(dag.Task{Flops: 2e9, Alpha: 0.1})
		} else {
			b.AddTask(dag.Task{Flops: 1e8 + rng.Float64()*5e9, Alpha: rng.Float64() / 4})
		}
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < density {
				b.AddEdge(dag.TaskID(i), dag.TaskID(j))
			}
		}
	}
	g := b.MustBuild()
	speed := 1.0
	if !identical {
		speed = 1 + rng.Float64()*4
	}
	tab := model.MustTable(g, m, platform.Cluster{Name: "grid", Procs: procs, SpeedGFlops: speed})
	alloc := make(schedule.Allocation, n)
	for i := range alloc {
		switch rng.Intn(3) {
		case 0:
			alloc[i] = 1
		case 1:
			alloc[i] = procs
		default:
			alloc[i] = 1 + rng.Intn(procs)
		}
	}
	return g, tab, alloc
}

// referenceMap is the mapping step written straight from the Section III-A
// prose, with none of Mapper's machinery: ready tasks run in order of
// decreasing bottom level (ties to the smaller task ID), and each takes the
// first processor set with s(v) available processors, found by stably
// sorting all processors by the time they become free. It keeps a plain
// per-processor free-time array and uses no arenas, heap, availability
// profile, prefilter or rejection.
func referenceMap(g *dag.Graph, tab *model.Table, alloc schedule.Allocation) []schedule.Entry {
	n, procs := g.NumTasks(), tab.Procs()
	bl := g.BottomLevels(Cost(tab, alloc))
	indeg := append([]int(nil), g.Indegrees()...)
	readyTime := make([]float64, n)
	free := make([]float64, procs)
	var ready []dag.TaskID
	for v := 0; v < n; v++ {
		if indeg[v] == 0 {
			ready = append(ready, dag.TaskID(v))
		}
	}
	entries := make([]schedule.Entry, n)
	for len(ready) > 0 {
		next := 0
		for i, v := range ready {
			u := ready[next]
			if bl[v] > bl[u] || (bl[v] == bl[u] && v < u) {
				next = i
			}
		}
		v := ready[next]
		ready = append(ready[:next], ready[next+1:]...)

		s := alloc[v]
		byFree := make([]int, procs)
		for p := range byFree {
			byFree[p] = p
		}
		sort.SliceStable(byFree, func(a, b int) bool { return free[byFree[a]] < free[byFree[b]] })
		chosen := append([]int(nil), byFree[:s]...)
		sort.Ints(chosen)

		start := readyTime[v]
		for _, p := range chosen {
			start = math.Max(start, free[p])
		}
		end := start + tab.Time(v, s)
		for _, p := range chosen {
			free[p] = end
		}
		entries[v] = schedule.Entry{Task: v, Start: start, End: end, Procs: chosen}

		for _, w := range g.Successors(v) {
			readyTime[w] = math.Max(readyTime[w], end)
			indeg[w]--
			if indeg[w] == 0 {
				ready = append(ready, w)
			}
		}
	}
	return entries
}

// checkAgainstReference maps one instance with a fresh Mapper and with
// referenceMap, and reports any disagreement in the schedule or makespan.
func checkAgainstReference(t *testing.T, g *dag.Graph, tab *model.Table, alloc schedule.Allocation) bool {
	t.Helper()
	want := referenceMap(g, tab, alloc)
	m, err := NewMapper(g, tab)
	if err != nil {
		t.Fatal(err)
	}
	got, err := m.Map(alloc)
	if err != nil {
		t.Fatal(err)
	}
	if entriesDigest(got.Entries) != entriesDigest(want) {
		t.Logf("P=%d alloc=%v: Map entries differ from the reference", tab.Procs(), alloc)
		return false
	}
	ms, err := m.Makespan(alloc)
	if err != nil {
		t.Fatal(err)
	}
	ref := (&schedule.Schedule{Entries: want}).Makespan()
	if math.Float64bits(ms) != math.Float64bits(ref) {
		t.Logf("P=%d alloc=%v: Makespan %v, reference %v", tab.Procs(), alloc, ms, ref)
		return false
	}
	return true
}

// TestMapperMatchesReference checks Mapper against the independent
// reference over instances drawn like the golden grid.
func TestMapperMatchesReference(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		procs := gridProcs[rng.Intn(len(gridProcs))]
		var m model.Model = model.Amdahl{}
		if rng.Intn(2) == 0 {
			m = model.Synthetic{}
		}
		g, tab, alloc := gridInstance(rng, procs, m, rng.Intn(2) == 0)
		return checkAgainstReference(t, g, tab, alloc)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// FuzzMapperMatchesReference is TestMapperMatchesReference on fuzzed seeds
// and cluster sizes (folded into 1..256).
func FuzzMapperMatchesReference(f *testing.F) {
	for i, p := range gridProcs {
		f.Add(int64(i), p)
	}
	f.Fuzz(func(t *testing.T, seed int64, procs int) {
		procs = 1 + int(uint(procs)%256)
		rng := rand.New(rand.NewSource(seed))
		var m model.Model = model.Amdahl{}
		if seed%2 == 0 {
			m = model.Synthetic{}
		}
		g, tab, alloc := gridInstance(rng, procs, m, rng.Intn(2) == 0)
		if !checkAgainstReference(t, g, tab, alloc) {
			t.Fatalf("seed %d, P=%d: Mapper disagrees with the reference", seed, procs)
		}
	})
}
