package alloc

import (
	"math/rand"
	"testing"
	"testing/quick"

	"emts/internal/dag"
	"emts/internal/daggen"
	"emts/internal/listsched"
	"emts/internal/model"
	"emts/internal/platform"
	"emts/internal/schedule"
)

var testCluster = platform.Cluster{Name: "test", Procs: 16, SpeedGFlops: 1}

func chain(t *testing.T, n int, flops float64) *dag.Graph {
	t.Helper()
	b := dag.NewBuilder("chain")
	for i := 0; i < n; i++ {
		b.AddTask(dag.Task{Flops: flops, Alpha: 0.05})
	}
	for i := 0; i+1 < n; i++ {
		b.AddEdge(dag.TaskID(i), dag.TaskID(i+1))
	}
	return b.MustBuild()
}

// fork returns a graph: source -> n parallel tasks -> sink.
func fork(t *testing.T, n int, flops float64) *dag.Graph {
	t.Helper()
	b := dag.NewBuilder("fork")
	src := b.AddTask(dag.Task{Flops: flops / 10, Alpha: 0.05})
	var mids []dag.TaskID
	for i := 0; i < n; i++ {
		mids = append(mids, b.AddTask(dag.Task{Flops: flops, Alpha: 0.05}))
	}
	sink := b.AddTask(dag.Task{Flops: flops / 10, Alpha: 0.05})
	for _, m := range mids {
		b.AddEdge(src, m)
		b.AddEdge(m, sink)
	}
	return b.MustBuild()
}

func allAllocators() []Allocator {
	return []Allocator{
		OneEach{}, Random{Seed: 7}, CPA{}, HCPA{}, MCPA{}, MCPA2{}, DeltaCP{Delta: 0.9},
	}
}

func TestAllAllocatorsProduceValidAllocations(t *testing.T) {
	graphs := []*dag.Graph{chain(t, 8, 4e9), fork(t, 6, 4e9)}
	models := []model.Model{model.Amdahl{}, model.Synthetic{}}
	for _, g := range graphs {
		for _, m := range models {
			tab := model.MustTable(g, m, testCluster)
			for _, a := range allAllocators() {
				got, err := a.Allocate(g, tab)
				if err != nil {
					t.Fatalf("%s on %s/%s: %v", a.Name(), g.Name(), m.Name(), err)
				}
				if err := got.Validate(g, testCluster.Procs); err != nil {
					t.Fatalf("%s produced invalid allocation: %v", a.Name(), err)
				}
			}
		}
	}
}

func TestOneEach(t *testing.T) {
	g := chain(t, 5, 1e9)
	tab := model.MustTable(g, model.Amdahl{}, testCluster)
	a, _ := OneEach{}.Allocate(g, tab)
	for i, s := range a {
		if s != 1 {
			t.Fatalf("task %d got %d procs", i, s)
		}
	}
}

func TestRandomIsSeededAndReproducible(t *testing.T) {
	g := fork(t, 10, 1e9)
	tab := model.MustTable(g, model.Amdahl{}, testCluster)
	a1, _ := Random{Seed: 42}.Allocate(g, tab)
	a2, _ := Random{Seed: 42}.Allocate(g, tab)
	for i := range a1 {
		if a1[i] != a2[i] {
			t.Fatal("same seed produced different allocations")
		}
	}
	a3, _ := Random{Seed: 43}.Allocate(g, tab)
	same := true
	for i := range a1 {
		if a1[i] != a3[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical allocations (suspicious)")
	}
}

func TestCPAGrowsChainAllocations(t *testing.T) {
	// A chain has no task parallelism: CPA should grow allocations well past 1
	// under Amdahl (T_A stays low while T_CP is the whole chain).
	g := chain(t, 6, 16e9)
	tab := model.MustTable(g, model.Amdahl{}, testCluster)
	a, err := CPA{}.Allocate(g, tab)
	if err != nil {
		t.Fatal(err)
	}
	grown := 0
	for _, s := range a {
		if s > 1 {
			grown++
		}
	}
	if grown == 0 {
		t.Fatalf("CPA left the whole chain at 1 processor: %v", a)
	}
}

func TestCPAStopCondition(t *testing.T) {
	// After CPA terminates under a monotone model, T_CP <= T_A must hold
	// (or no task can grow further).
	g := fork(t, 4, 8e9)
	tab := model.MustTable(g, model.Amdahl{}, testCluster)
	a, err := CPA{}.Allocate(g, tab)
	if err != nil {
		t.Fatal(err)
	}
	cost := listsched.Cost(tab, a)
	tcp := g.CriticalPathLength(cost)
	area := 0.0
	allMax := true
	for i := 0; i < g.NumTasks(); i++ {
		area += float64(a[i]) * tab.Time(dag.TaskID(i), a[i])
		if a[i] < testCluster.Procs {
			allMax = false
		}
	}
	ta := area / float64(testCluster.Procs)
	if tcp > ta*(1+1e-9) && !allMax {
		t.Fatalf("CPA stopped with T_CP=%g > T_A=%g and growable tasks: %v", tcp, ta, a)
	}
}

func TestCPASmallAllocationsUnderModel2(t *testing.T) {
	// Section V-B: under Model 2 the CPA-family procedures stop with small
	// allocations (often 4-8). Verify allocations stay well below P.
	g := fork(t, 4, 50e9)
	big := platform.Cluster{Name: "big", Procs: 120, SpeedGFlops: 3.1}
	tab := model.MustTable(g, model.Synthetic{}, big)
	a, err := CPA{}.Allocate(g, tab)
	if err != nil {
		t.Fatal(err)
	}
	amdahlTab := model.MustTable(g, model.Amdahl{}, big)
	aAmdahl, err := CPA{}.Allocate(g, amdahlTab)
	if err != nil {
		t.Fatal(err)
	}
	if a.TotalProcs() >= aAmdahl.TotalProcs() {
		t.Fatalf("Model 2 allocations (%d total) not smaller than Model 1 (%d total)",
			a.TotalProcs(), aAmdahl.TotalProcs())
	}
}

func TestHCPAEqualsCPAOnHomogeneousCluster(t *testing.T) {
	g := fork(t, 5, 10e9)
	tab := model.MustTable(g, model.Amdahl{}, testCluster)
	cpa, _ := CPA{}.Allocate(g, tab)
	hcpa, _ := HCPA{}.Allocate(g, tab)
	for i := range cpa {
		if cpa[i] != hcpa[i] {
			t.Fatalf("HCPA differs from CPA at task %d: %d vs %d", i, hcpa[i], cpa[i])
		}
	}
}

func TestMCPARespectsLevelBound(t *testing.T) {
	g := fork(t, 8, 10e9)
	tab := model.MustTable(g, model.Amdahl{}, testCluster)
	a, err := MCPA{}.Allocate(g, tab)
	if err != nil {
		t.Fatal(err)
	}
	_, byLevel := g.PrecedenceLevels()
	for l, tasks := range byLevel {
		sum := 0
		for _, v := range tasks {
			sum += a[v]
		}
		if sum > testCluster.Procs {
			t.Fatalf("level %d allocates %d > P=%d procs", l, sum, testCluster.Procs)
		}
	}
}

func TestMCPA2RespectsLevelBound(t *testing.T) {
	g := fork(t, 8, 10e9)
	tab := model.MustTable(g, model.Amdahl{}, testCluster)
	a, err := MCPA2{}.Allocate(g, tab)
	if err != nil {
		t.Fatal(err)
	}
	_, byLevel := g.PrecedenceLevels()
	for l, tasks := range byLevel {
		sum := 0
		for _, v := range tasks {
			sum += a[v]
		}
		if sum > testCluster.Procs {
			t.Fatalf("level %d allocates %d > P=%d procs", l, sum, testCluster.Procs)
		}
	}
}

func TestMCPAKeepsWideLevelsTaskParallel(t *testing.T) {
	// A fork wider than P: MCPA must keep every middle task at 1 processor.
	g := fork(t, testCluster.Procs+4, 10e9)
	tab := model.MustTable(g, model.Amdahl{}, testCluster)
	a, err := MCPA{}.Allocate(g, tab)
	if err != nil {
		t.Fatal(err)
	}
	_, byLevel := g.PrecedenceLevels()
	for _, v := range byLevel[1] {
		if a[v] != 1 {
			t.Fatalf("middle task %d got %d procs despite full level", v, a[v])
		}
	}
}

func TestDeltaCPSharesProcsAmongCriticalTasks(t *testing.T) {
	// Fork of 4 equal tasks: all are critical in their level, so each gets
	// P/4 processors; source and sink get all P (single critical task).
	g := fork(t, 4, 10e9)
	tab := model.MustTable(g, model.Amdahl{}, testCluster)
	a, err := DeltaCP{Delta: 0.9}.Allocate(g, tab)
	if err != nil {
		t.Fatal(err)
	}
	_, byLevel := g.PrecedenceLevels()
	for _, v := range byLevel[1] {
		if a[v] != testCluster.Procs/4 {
			t.Fatalf("middle task %d got %d procs, want %d", v, a[v], testCluster.Procs/4)
		}
	}
	src := byLevel[0][0]
	if a[src] != testCluster.Procs {
		t.Fatalf("source got %d procs, want all %d", a[src], testCluster.Procs)
	}
}

func TestDeltaCPDistinguishesNonCriticalTasks(t *testing.T) {
	// Two parallel tasks, one 10x heavier: with delta=0.9 only the heavy one
	// is critical and receives all processors; the light one keeps 1.
	b := dag.NewBuilder("unbalanced")
	heavy := b.AddTask(dag.Task{Flops: 100e9, Alpha: 0.05})
	light := b.AddTask(dag.Task{Flops: 1e9, Alpha: 0.05})
	g := b.MustBuild()
	tab := model.MustTable(g, model.Amdahl{}, testCluster)
	a, err := DeltaCP{Delta: 0.9}.Allocate(g, tab)
	if err != nil {
		t.Fatal(err)
	}
	if a[heavy] != testCluster.Procs {
		t.Fatalf("heavy task got %d, want %d", a[heavy], testCluster.Procs)
	}
	if a[light] != 1 {
		t.Fatalf("light task got %d, want 1", a[light])
	}
}

func TestDeltaCPRejectsBadDelta(t *testing.T) {
	g := chain(t, 2, 1e9)
	tab := model.MustTable(g, model.Amdahl{}, testCluster)
	for _, d := range []float64{-0.1, 1.5} {
		if _, err := (DeltaCP{Delta: d}).Allocate(g, tab); err == nil {
			t.Fatalf("delta %g accepted", d)
		}
	}
}

func TestAllocatorsRejectMismatchedInputs(t *testing.T) {
	g := chain(t, 3, 1e9)
	small := chain(t, 2, 1e9)
	tab := model.MustTable(small, model.Amdahl{}, testCluster)
	for _, a := range allAllocators() {
		if _, ok := a.(Random); ok {
			continue // Random does not inspect the graph/table pairing
		}
		if _, ok := a.(OneEach); ok {
			continue
		}
		if _, err := a.Allocate(g, tab); err == nil {
			t.Errorf("%s accepted mismatched table", a.Name())
		}
	}
}

func TestAllocatorNames(t *testing.T) {
	want := map[string]bool{
		"one": true, "random": true, "cpa": true, "hcpa": true,
		"mcpa": true, "mcpa2": true, "delta-cp": true,
	}
	for _, a := range allAllocators() {
		if !want[a.Name()] {
			t.Errorf("unexpected allocator name %q", a.Name())
		}
	}
}

// Property: for random layered graphs, every allocator yields an allocation
// that the mapper turns into a schedule passing full validation.
func TestAllocatorsPropertyEndToEnd(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b := dag.NewBuilder("prop")
		n := 2 + rng.Intn(20)
		for i := 0; i < n; i++ {
			b.AddTask(dag.Task{Flops: 1e8 + rng.Float64()*2e10, Alpha: rng.Float64() / 4})
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Float64() < 0.2 {
					b.AddEdge(dag.TaskID(i), dag.TaskID(j))
				}
			}
		}
		g := b.MustBuild()
		cluster := platform.Cluster{Name: "p", Procs: 2 + rng.Intn(30), SpeedGFlops: 1 + 4*rng.Float64()}
		var m model.Model = model.Amdahl{}
		if rng.Intn(2) == 0 {
			m = model.Synthetic{}
		}
		tab := model.MustTable(g, m, cluster)
		for _, a := range allAllocators() {
			alloc, err := a.Allocate(g, tab)
			if err != nil {
				t.Logf("%s: %v", a.Name(), err)
				return false
			}
			if err := alloc.Validate(g, cluster.Procs); err != nil {
				t.Logf("%s invalid alloc: %v", a.Name(), err)
				return false
			}
			s, err := listsched.Map(g, tab, alloc)
			if err != nil {
				t.Logf("%s map: %v", a.Name(), err)
				return false
			}
			if err := s.Validate(g, tab); err != nil {
				t.Logf("%s schedule: %v", a.Name(), err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Sanity: on a single chain the allocators must not produce a worse makespan
// than the one-processor baseline under a monotone model.
func TestCPAFamilyBeatsOneEachOnChain(t *testing.T) {
	g := chain(t, 6, 16e9)
	tab := model.MustTable(g, model.Amdahl{}, testCluster)
	base, err := OneEach{}.Allocate(g, tab)
	if err != nil {
		t.Fatal(err)
	}
	baseMS, err := listsched.Makespan(g, tab, base)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range []Allocator{CPA{}, HCPA{}, MCPA{}, MCPA2{}} {
		al, err := a.Allocate(g, tab)
		if err != nil {
			t.Fatal(err)
		}
		ms, err := listsched.Makespan(g, tab, al)
		if err != nil {
			t.Fatal(err)
		}
		if ms > baseMS {
			t.Errorf("%s makespan %g worse than one-each %g on a chain", a.Name(), ms, baseMS)
		}
	}
}

// Property: the CPA loop's incremental bottom levels equal a full sweep of
// the current allocation, bit for bit, after every change — one task grown
// per step, and sometimes a second one shrunk, as MCPA2's give-back does.
func TestBottomLevelsMatchSweep(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g, err := daggen.Random(daggen.RandomConfig{
			N: 2 + rng.Intn(80), Width: 0.2 + 0.6*rng.Float64(), Regularity: rng.Float64(),
			Density: 0.1 + 0.9*rng.Float64(), Jump: 1 + rng.Intn(3),
		}, daggen.DefaultCosts(), seed)
		if err != nil {
			t.Log(err)
			return false
		}
		var m model.Model = model.Amdahl{}
		if rng.Intn(2) == 0 {
			m = model.Synthetic{}
		}
		c := platform.Chti()
		tab := model.MustTable(g, m, c)
		s := schedule.Ones(g.NumTasks())
		levels := newBottomLevels(g, tab, s)
		for step := 0; step < 200; step++ {
			v := dag.TaskID(rng.Intn(g.NumTasks()))
			if s[v] < c.Procs {
				s[v]++
				levels.mark(v)
			}
			if d := dag.TaskID(rng.Intn(g.NumTasks())); rng.Intn(3) == 0 && d != v && s[d] > 1 {
				s[d]--
				levels.mark(d)
			}
			levels.settle()
			want := g.BottomLevels(listsched.Cost(tab, s))
			for u := range want {
				if levels.bl[u] != want[u] {
					t.Logf("seed %d, step %d: bl[%d] = %v, sweep %v", seed, step, u, levels.bl[u], want[u])
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
