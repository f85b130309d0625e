package listsched

import (
	"errors"
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

// TestMapperBoundedMatchesOptions: MakespanBounded must agree with
// MapWithOptions{RejectAbove} on both the rejection decision and the value.
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
			want, wantErr := MapWithOptions(g, tab, alloc, Options{SkipProcSets: true, RejectAbove: bound})
			got, gotErr := m.MakespanBounded(alloc, bound)
			if errors.Is(wantErr, ErrRejected) != errors.Is(gotErr, ErrRejected) {
				return false
			}
			if wantErr == nil && (gotErr != nil || got != want.Makespan()) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestMapperRejectionExact pins the property the fitness memoization cache
// relies on: with bound b, mapping is rejected if and only if the unbounded
// makespan exceeds b. This is what lets a cached fitness emulate a bounded
// re-evaluation exactly (ea.evalEngine).
func TestMapperRejectionExact(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g, alloc, tab := randomInstance(rng)
		m, err := NewMapper(g, tab)
		if err != nil {
			return false
		}
		full, err := m.Makespan(alloc)
		if err != nil {
			return false
		}
		for i := 0; i < 8; i++ {
			bound := full * (0.5 + rng.Float64())
			_, err := m.MakespanBounded(alloc, bound)
			if (full > bound) != errors.Is(err, ErrRejected) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
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
		if _, err := m.MakespanBounded(alloc, full/2); !errors.Is(err, ErrRejected) {
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
		if _, err := m.MakespanBounded(ones, bound); !errors.Is(err, ErrRejectedPrefilter) {
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
		if _, err := m.MakespanBounded(ones, bound); !errors.Is(err, ErrRejectedPrefilter) {
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
