package listsched

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"emts/internal/dag"
	"emts/internal/model"
	"emts/internal/schedule"
)

// checkPrefilterExactness verifies the Layer-1 contract on one (instance,
// bound) pair: MakespanOpts must return the identical (value, error) outcome
// with the prefilter on and off. Returns false on violation.
func checkPrefilterExactness(m *Mapper, alloc schedule.Allocation, bound float64) bool {
	on, onErr := m.MakespanOpts(alloc, Options{RejectAbove: bound})
	off, offErr := m.MakespanOpts(alloc, Options{RejectAbove: bound, DisablePrefilter: true})
	if errors.Is(onErr, schedule.ErrRejected) != errors.Is(offErr, schedule.ErrRejected) {
		return false
	}
	if (onErr == nil) != (offErr == nil) {
		return false
	}
	return onErr != nil || on == off
}

// TestPrefilterExactness is the satellite property test: across random
// graphs, allocations, and bounds — including bounds straddling the true
// makespan — the admissible lower-bound prefilter must never change the
// (value, error) outcome of a bounded evaluation. This is the exactness
// guarantee the determinism meta-tests rely on.
func TestPrefilterExactness(t *testing.T) {
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
		bounds := []float64{
			full * 0.25, full * 0.5, full * 0.999, full,
			full * 1.0001, full * 1.5, full * 4,
		}
		for i := 0; i < 6; i++ {
			bounds = append(bounds, full*(0.25+1.5*rng.Float64()))
		}
		for _, bound := range bounds {
			if !checkPrefilterExactness(m, alloc, bound) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// FuzzPrefilterExactness is the fuzz-smoke version of TestPrefilterExactness:
// the instance is derived from the fuzzed seed and the bound from the fuzzed
// scale, so the corpus explores bound positions the fixed grid above misses.
func FuzzPrefilterExactness(f *testing.F) {
	f.Add(int64(1), 0.5)
	f.Add(int64(7), 0.999)
	f.Add(int64(42), 1.0)
	f.Add(int64(99), 1.0001)
	f.Add(int64(-3), 2.0)
	f.Fuzz(func(t *testing.T, seed int64, scale float64) {
		if scale != scale || scale <= 0 || scale > 1e6 {
			return // NaN or useless bound; RejectAbove <= 0 disables rejection anyway
		}
		rng := rand.New(rand.NewSource(seed))
		g, alloc, tab := randomInstance(rng)
		m, err := NewMapper(g, tab)
		if err != nil {
			t.Fatal(err)
		}
		full, err := m.Makespan(alloc)
		if err != nil {
			t.Fatal(err)
		}
		if !checkPrefilterExactness(m, alloc, full*scale) {
			t.Fatalf("prefilter on/off diverged: seed=%d scale=%g full=%g", seed, scale, full)
		}
	})
}

// mutateRandom derives a child from parent by mutating up to k random
// positions (duplicate positions and values equal to the parent's included).
func mutateRandom(rng *rand.Rand, parent schedule.Allocation, k, procs int) schedule.Allocation {
	child := parent.Clone()
	for j := 0; j < k; j++ {
		p := rng.Intn(len(child))
		child[p] = 1 + rng.Intn(procs)
	}
	return child
}

// outcome is one bounded evaluation's result as the engine counts it: a
// prefilter rejection, an in-loop rejection, or the makespan's bits.
func outcome(f float64, err error) string {
	switch {
	case errors.Is(err, schedule.ErrRejectedPrefilter):
		return "prefilter"
	case errors.Is(err, schedule.ErrRejected):
		return "rejected"
	case err != nil:
		return err.Error()
	}
	return bitsHex(f)
}

// checkHistoryIndependent evaluates a stream of steps mutated children of
// parent through the long-lived Mapper warm and reports the first step whose
// outcome differs from a fresh Mapper's ("" if none). Each child's bound is
// drawn around the parent's makespan times scale, or set exactly at the
// child's critical-path length, where the sweep's check just does not fire.
// Children sometimes replace the parent, so the stream drifts as an EA
// population does. Whenever a call remembers a new critical path, that path
// must be dag.CriticalPath of the child.
func checkHistoryIndependent(t testing.TB, warm *Mapper, parent schedule.Allocation, rng *rand.Rand, steps int, scale float64) string {
	t.Helper()
	full, err := warm.Makespan(parent)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < steps; i++ {
		child := mutateRandom(rng, parent, 1+rng.Intn(4), warm.procs)
		bound := full * scale * (0.5 + rng.Float64())
		if rng.Intn(3) == 0 {
			bound = warm.g.CriticalPathLength(Cost(warm.tab, child))
		}
		fresh, err := NewMapper(warm.g, warm.tab)
		if err != nil {
			t.Fatal(err)
		}
		next := warm.witnessNext
		got := outcome(warm.MakespanBounded(child, bound))
		want := outcome(fresh.MakespanBounded(child, bound))
		if got != want {
			return fmt.Sprintf("step %d (bound %g): warm Mapper %s, fresh Mapper %s", i, bound, got, want)
		}
		if warm.witnessNext != next {
			path, _ := warm.g.CriticalPath(Cost(warm.tab, child))
			if !reflect.DeepEqual(warm.witness[next], path) {
				return fmt.Sprintf("step %d: remembered %v, critical path %v", i, warm.witness[next], path)
			}
		}
		if rng.Intn(4) == 0 {
			parent = child
		}
	}
	return ""
}

// historyInstance draws an instance for the history tests: half of them
// with identical tasks, whose equal bottom levels exercise the critical-path
// walk's tie-breaks.
func historyInstance(rng *rand.Rand) (*dag.Graph, schedule.Allocation, *model.Table) {
	if rng.Intn(2) == 0 {
		return randomInstance(rng)
	}
	g, tab, alloc := gridInstance(rng, gridProcs[rng.Intn(len(gridProcs))], model.Amdahl{}, true)
	return g, alloc, tab
}

// TestPrefilterHistoryIndependent: a Mapper carries its remembered critical
// paths from call to call, and those must change only the work a bounded
// call does. Across random instances, a long-lived Mapper's outcome on every
// child of a drifting stream equals a fresh Mapper's.
func TestPrefilterHistoryIndependent(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g, parent, tab := historyInstance(rng)
		warm, err := NewMapper(g, tab)
		if err != nil {
			return false
		}
		if msg := checkHistoryIndependent(t, warm, parent, rng, 60, 1); msg != "" {
			t.Logf("seed %d: %s", seed, msg)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// FuzzPrefilterHistoryIndependent is the fuzz-smoke version of
// TestPrefilterHistoryIndependent: the fuzzed scale moves the stream's bounds
// from mostly rejecting to mostly accepting.
func FuzzPrefilterHistoryIndependent(f *testing.F) {
	f.Add(int64(1), 1.0)
	f.Add(int64(5), 0.6)
	f.Add(int64(23), 1.3)
	f.Add(int64(-8), 0.9)
	f.Fuzz(func(t *testing.T, seed int64, scale float64) {
		if scale != scale || scale <= 0 || scale > 1e6 {
			return // NaN or useless bound
		}
		rng := rand.New(rand.NewSource(seed))
		g, parent, tab := historyInstance(rng)
		warm, err := NewMapper(g, tab)
		if err != nil {
			t.Fatal(err)
		}
		if msg := checkHistoryIndependent(t, warm, parent, rng, 40, scale); msg != "" {
			t.Fatalf("seed %d, scale %g: %s", seed, scale, msg)
		}
	})
}
