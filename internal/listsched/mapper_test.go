package listsched

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"emts/internal/dag"
	"emts/internal/daggen"
	"emts/internal/model"
	"emts/internal/platform"
	"emts/internal/schedule"
)

// TestMapperMatchesPackageFunctions: a reused Mapper must produce the same
// schedules and makespans as the one-shot package functions for a stream of
// random allocations against one instance — warm scratch state must never
// leak between calls.
func TestMapperMatchesPackageFunctions(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g, _, tab := randomInstance(rng)
	m, err := NewMapper(g, tab)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 200; trial++ {
		alloc := make(schedule.Allocation, g.NumTasks())
		for i := range alloc {
			alloc[i] = 1 + rng.Intn(tab.Procs())
		}
		wantSched, err := Map(g, tab, alloc)
		if err != nil {
			t.Fatal(err)
		}
		gotSched, err := m.Map(alloc)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(wantSched, gotSched) {
			t.Fatalf("trial %d: reused Mapper schedule differs from Map", trial)
		}
		gotMs, err := m.Makespan(alloc)
		if err != nil {
			t.Fatal(err)
		}
		if gotMs != wantSched.Makespan() {
			t.Fatalf("trial %d: Mapper.Makespan = %g, Map makespan = %g", trial, gotMs, wantSched.Makespan())
		}
	}
}

// TestMapperPropertyMatchesAcrossInstances repeats the equivalence check over
// random instances (graph shape, model, cluster size all vary).
func TestMapperPropertyMatchesAcrossInstances(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g, alloc, tab := randomInstance(rng)
		m, err := NewMapper(g, tab)
		if err != nil {
			return false
		}
		// Two calls: the second runs on warm arenas.
		for k := 0; k < 2; k++ {
			want, err := Makespan(g, tab, alloc)
			if err != nil {
				return false
			}
			got, err := m.Makespan(alloc)
			if err != nil {
				return false
			}
			if got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestMapperBoundedMatchesOptions: a warm Mapper's MakespanBounded must agree
// with a fresh Mapper's MakespanOpts{RejectAbove} on both the rejection
// decision and the value.
func TestMapperBoundedMatchesOptions(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g, alloc, tab := randomInstance(rng)
		m, err := NewMapper(g, tab)
		if err != nil {
			return false
		}
		full, err := Makespan(g, tab, alloc)
		if err != nil {
			return false
		}
		for _, bound := range []float64{full * 0.5, full * 0.999, full, full * 1.5} {
			fresh, err := NewMapper(g, tab)
			if err != nil {
				return false
			}
			want, wantErr := fresh.MakespanOpts(alloc, Options{RejectAbove: bound})
			got, gotErr := m.MakespanBounded(alloc, bound)
			if errors.Is(wantErr, schedule.ErrRejected) != errors.Is(gotErr, schedule.ErrRejected) {
				return false
			}
			if wantErr == nil && (gotErr != nil || got != want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestMapperRejectionExact pins the bound contract of MakespanBounded: a
// makespan M above the bound is always rejected, and a bound of M·(1+1e-9)
// never is. Between M and M·(1+1e-9) either answer is allowed, because the
// in-loop lower bound sums a path right to left and the schedule left to
// right. The cull (ea.Result.Culls) rests on the second half: it bounds each
// child by the worst parent's fitness times 1+1e-9, so a child selection
// would keep is never rejected. Besides random bounds it checks the two edge
// bounds, math.Nextafter(M, 0) and M·(1+1e-9), on random instances and on
// 20,000-task chains, whose long sums round the most.
func TestMapperRejectionExact(t *testing.T) {
	// check tries the two edge bounds and full·frac for each of fracs.
	check := func(m *Mapper, alloc schedule.Allocation, fracs []float64) error {
		full, err := m.Makespan(alloc)
		if err != nil {
			return err
		}
		bounds := []float64{math.Nextafter(full, 0), full * (1 + 1e-9)}
		for _, frac := range fracs {
			bounds = append(bounds, full*frac)
		}
		for _, bound := range bounds {
			_, err := m.MakespanBounded(alloc, bound)
			rejected := errors.Is(err, schedule.ErrRejected)
			if full > bound && !rejected {
				return fmt.Errorf("makespan %v above bound %v was not rejected", full, bound)
			}
			if bound >= full*(1+1e-9) && err != nil {
				return fmt.Errorf("makespan %v was rejected by bound %v: %v", full, bound, err)
			}
		}
		return nil
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g, alloc, tab := randomInstance(rng)
		m, err := NewMapper(g, tab)
		if err != nil {
			return false
		}
		var fracs []float64
		for i := 0; i < 8; i++ {
			fracs = append(fracs, 0.5+rng.Float64())
		}
		if err := check(m, alloc, fracs); err != nil {
			t.Log(err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(3))
	const n = 20000
	b := dag.NewBuilder("chain")
	for i := 0; i < n; i++ {
		b.AddTask(dag.Task{Flops: 1e8 + rng.Float64()*5e9, Alpha: rng.Float64() / 4})
		if i > 0 {
			b.AddEdge(dag.TaskID(i-1), dag.TaskID(i))
		}
	}
	g := b.MustBuild()
	for _, cluster := range platform.Both() {
		for _, mod := range []model.Model{model.Amdahl{}, model.Synthetic{}} {
			tab := model.MustTable(g, mod, cluster)
			m, err := NewMapper(g, tab)
			if err != nil {
				t.Fatal(err)
			}
			for trial := 0; trial < 5; trial++ {
				alloc := make(schedule.Allocation, n)
				for i := range alloc {
					alloc[i] = 1 + rng.Intn(cluster.Procs)
				}
				if err := check(m, alloc, nil); err != nil {
					t.Fatalf("chain of %d tasks, %s, %s: %v", n, cluster.Name, mod.Name(), err)
				}
			}
		}
	}
}

// TestMapperMakespanZeroAllocs pins the tentpole guarantee: a warm
// Mapper.Makespan call performs zero heap allocations.
func TestMapperMakespanZeroAllocs(t *testing.T) {
	g, err := daggen.Random(daggen.RandomConfig{
		N: 300, Width: 0.5, Regularity: 0.5, Density: 0.5, Jump: 2,
	}, daggen.DefaultCosts(), 7)
	if err != nil {
		t.Fatal(err)
	}
	tab := model.MustTable(g, model.Synthetic{}, platform.Grelon())
	m, err := NewMapper(g, tab)
	if err != nil {
		t.Fatal(err)
	}
	alloc := schedule.Ones(g.NumTasks())
	for i := range alloc {
		alloc[i] = 1 + i%tab.Procs()
	}
	if _, err := m.Makespan(alloc); err != nil { // warm up
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(100, func() {
		if _, err := m.Makespan(alloc); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("warm Mapper.Makespan allocates %.1f times per call, want 0", avg)
	}
	// The bounded (rejecting) variant must be allocation-free too: it is the
	// EA's inner loop when UseRejection is on. A bound below the makespan
	// exercises the early-abort path.
	full, err := m.Makespan(alloc)
	if err != nil {
		t.Fatal(err)
	}
	avg = testing.AllocsPerRun(100, func() {
		if _, err := m.MakespanBounded(alloc, full/2); !errors.Is(err, schedule.ErrRejected) {
			t.Fatalf("expected rejection, got %v", err)
		}
	})
	if avg != 0 {
		t.Fatalf("warm rejected MakespanBounded allocates %.1f times per call, want 0", avg)
	}

	// A bound between the area bound and the critical-path length is
	// rejected by the sweep's critical-path check, which remembers the
	// path in storage NewMapper sized; forgetting the paths before each call
	// makes every call record one.
	ones := schedule.Ones(g.NumTasks())
	cp := g.CriticalPathLength(Cost(tab, ones))
	area := 0.0
	for v := range ones {
		area += tab.Time(dag.TaskID(v), 1)
	}
	bound := (area/float64(tab.Procs()) + cp) / 2
	if areaReject(tab, tab.Procs(), ones, bound) || bound >= cp {
		t.Fatalf("bound %g does not lie between area/P = %g and the critical path %g", bound, area/float64(tab.Procs()), cp)
	}
	avg = testing.AllocsPerRun(100, func() {
		m.witnessLen = 0
		if _, err := m.MakespanBounded(ones, bound); !errors.Is(err, schedule.ErrRejectedPrefilter) {
			t.Fatalf("expected a prefilter rejection, got %v", err)
		}
	})
	if avg != 0 {
		t.Fatalf("a rejection that records its critical path allocates %.1f times per call, want 0", avg)
	}
	// With the path remembered, the same call is rejected before the sweep.
	if m.witnessLen != 1 || !m.witnessReject(ones, bound) {
		t.Fatalf("remembered %d paths, and none rejects the call", m.witnessLen)
	}
	avg = testing.AllocsPerRun(100, func() {
		if _, err := m.MakespanBounded(ones, bound); !errors.Is(err, schedule.ErrRejectedPrefilter) {
			t.Fatalf("expected a prefilter rejection, got %v", err)
		}
	})
	if avg != 0 {
		t.Fatalf("a rejection by a remembered path allocates %.1f times per call, want 0", avg)
	}
}

// benchMapperInstance is the 100-task irregular PTG of the root bench suite.
func benchMapperInstance(b *testing.B) (*dag.Graph, *model.Table, schedule.Allocation) {
	b.Helper()
	g, err := daggen.Random(daggen.RandomConfig{
		N: 100, Width: 0.5, Regularity: 0.5, Density: 0.5, Jump: 2,
	}, daggen.DefaultCosts(), 7)
	if err != nil {
		b.Fatal(err)
	}
	tab := model.MustTable(g, model.Synthetic{}, platform.Grelon())
	alloc := schedule.Ones(g.NumTasks())
	for i := range alloc {
		alloc[i] = 1 + i%tab.Procs()
	}
	return g, tab, alloc
}

// BenchmarkMapperReuse measures one warm fitness evaluation on the reusable
// engine; BenchmarkMakespanOneShot below is the same work paying full
// per-call construction.
func BenchmarkMapperReuse(b *testing.B) {
	g, tab, alloc := benchMapperInstance(b)
	m, err := NewMapper(g, tab)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Makespan(alloc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMakespanOneShot is the control: identical instance and allocation
// through the one-shot package function.
func BenchmarkMakespanOneShot(b *testing.B) {
	g, tab, alloc := benchMapperInstance(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Makespan(g, tab, alloc); err != nil {
			b.Fatal(err)
		}
	}
}
