package listsched

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"emts/internal/daggen"
	"emts/internal/model"
	"emts/internal/platform"
	"emts/internal/schedule"
)

// batchItem is one individual of an EA generation as a worker sees it: the
// allocation plus, for pure mutations, the lineage MakespanDelta exploits.
type batchItem struct {
	alloc, parent schedule.Allocation
	mutated       []int
}

// batchOf derives a mixed batch from parent: the parent itself (no lineage),
// lineage offspring (children with their mutated positions recorded), plain
// offspring (lineage stripped), and one duplicate row. This is the row mix an
// EA worker evaluates through its one Mapper: full sweeps and delta sweeps
// interleaved, with warm state carried from row to row.
func batchOf(rng *rand.Rand, parent schedule.Allocation, procs int) []batchItem {
	items := []batchItem{{alloc: parent}}
	for j := 0; j < 3; j++ {
		child, mutated := mutateRandom(rng, parent, 1+rng.Intn(3), procs)
		items = append(items, batchItem{alloc: child, parent: parent, mutated: mutated})
	}
	for j := 0; j < 2; j++ {
		child, _ := mutateRandom(rng, parent, 1+rng.Intn(len(parent)), procs)
		items = append(items, batchItem{alloc: child})
	}
	items = append(items, items[1]) // duplicate row: same vector, same lineage
	return items
}

// evalBatch evaluates items in order through one warm Mapper, dispatching
// like an EA worker: lineage rows through MakespanDelta, the rest through
// MakespanOpts.
func evalBatch(m *Mapper, items []batchItem, opt Options, fit []float64, errs []error) {
	for i, it := range items {
		if it.parent != nil {
			fit[i], errs[i] = m.MakespanDelta(it.alloc, it.parent, it.mutated, opt)
		} else {
			fit[i], errs[i] = m.MakespanOpts(it.alloc, opt)
		}
	}
}

// checkBatchScalarIdentity evaluates items as a batch through the warm
// Mapper m and one by one through the package-level MapWithOptions (a fresh
// Mapper per row), and reports whether every row's (fitness, sentinel)
// outcome is bit-identical.
func checkBatchScalarIdentity(t testing.TB, m *Mapper, items []batchItem, opt Options) bool {
	t.Helper()
	fit := make([]float64, len(items))
	errs := make([]error, len(items))
	evalBatch(m, items, opt, fit, errs)
	scalarOpt := opt
	scalarOpt.SkipProcSets = true
	ok := true
	for i, it := range items {
		var want float64
		s, wantErr := MapWithOptions(m.g, m.tab, it.alloc, scalarOpt)
		if wantErr == nil {
			want = s.Makespan()
		}
		if wantErr != nil || errs[i] != nil {
			// Sentinels must match exactly: the engine distinguishes
			// ErrRejectedPrefilter from ErrRejected when counting.
			if !errors.Is(errs[i], ErrRejected) || !errors.Is(wantErr, ErrRejected) ||
				errors.Is(errs[i], ErrRejectedPrefilter) != errors.Is(wantErr, ErrRejectedPrefilter) {
				t.Logf("row %d: batch err %v, scalar err %v (opt %+v)", i, errs[i], wantErr, opt)
				ok = false
			}
			continue
		}
		if fit[i] != want {
			t.Logf("row %d: batch fitness %g, scalar %g (opt %+v)", i, fit[i], want, opt)
			ok = false
		}
	}
	return ok
}

// TestBatchMatchesScalar: across random instances and mixed batches
// (full-sweep rows, delta rows, duplicates), a worker's warm Mapper must be
// bit-identical to a fresh one-shot evaluation of every row — unbounded,
// across bounds straddling the makespan, and with the prefilter on and off.
func TestBatchMatchesScalar(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g, parent, tab := randomInstance(rng)
		m, err := NewMapper(g, tab)
		if err != nil {
			return false
		}
		full, err := m.Makespan(parent)
		if err != nil {
			return false
		}
		items := batchOf(rng, parent, tab.Procs())
		if !checkBatchScalarIdentity(t, m, items, Options{}) {
			return false
		}
		for _, bound := range []float64{full * 0.5, full * 0.999, full, full * 1.0001, full * 2} {
			for _, noPre := range []bool{false, true} {
				if !checkBatchScalarIdentity(t, m, items, Options{RejectAbove: bound, DisablePrefilter: noPre}) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// FuzzBatchScalarIdentity is the fuzz-smoke version of TestBatchMatchesScalar:
// the instance and batch derive from the fuzzed seed and the rejection bound
// from the fuzzed scale, so the corpus explores bound positions and batch
// mixes the fixed grid misses.
func FuzzBatchScalarIdentity(f *testing.F) {
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
		g, parent, tab := randomInstance(rng)
		m, err := NewMapper(g, tab)
		if err != nil {
			t.Fatal(err)
		}
		full, err := m.Makespan(parent)
		if err != nil {
			t.Fatal(err)
		}
		items := batchOf(rng, parent, tab.Procs())
		for _, opt := range []Options{
			{},
			{RejectAbove: full * scale},
			{RejectAbove: full * scale, DisablePrefilter: true},
		} {
			if !checkBatchScalarIdentity(t, m, items, opt) {
				t.Fatalf("batch/scalar diverged: seed=%d scale=%g full=%g opt=%+v", seed, scale, full, opt)
			}
		}
	})
}

// TestBatchEvalZeroAllocs pins a worker's hot path: once the arenas and the
// parent baseline are warm, evaluating a whole mixed batch — delta rows,
// full-sweep rows, prefilter and in-loop rejections — allocates nothing.
func TestBatchEvalZeroAllocs(t *testing.T) {
	g, err := daggen.Random(daggen.RandomConfig{
		N: 120, Width: 0.5, Regularity: 0.5, Density: 0.5, Jump: 2,
	}, daggen.DefaultCosts(), 7)
	if err != nil {
		t.Fatal(err)
	}
	tab := model.MustTable(g, model.Synthetic{}, platform.Grelon())
	m, err := NewMapper(g, tab)
	if err != nil {
		t.Fatal(err)
	}
	parent := make(schedule.Allocation, g.NumTasks())
	for i := range parent {
		parent[i] = 1 + i%tab.Procs()
	}
	rng := rand.New(rand.NewSource(3))
	items := batchOf(rng, parent, tab.Procs())
	fit := make([]float64, len(items))
	errs := make([]error, len(items))
	evalBatch(m, items, Options{}, fit, errs) // warm up: builds the baseline
	full := fit[0]

	for _, opt := range []Options{{}, {RejectAbove: full}, {RejectAbove: full / 2}} {
		avg := testing.AllocsPerRun(100, func() {
			evalBatch(m, items, opt, fit, errs)
		})
		if avg != 0 {
			t.Fatalf("warm batch (opt %+v) allocates %.1f times per batch, want 0", opt, avg)
		}
	}
}

// TestBatchInvalidRows pins per-row error isolation: invalid allocations and
// unusable lineage fail (or fall back) on their own row without disturbing
// the warm Mapper's later rows.
func TestBatchInvalidRows(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	g, parent, tab := randomInstance(rng)
	m, err := NewMapper(g, tab)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Makespan(g, tab, parent)
	if err != nil {
		t.Fatal(err)
	}
	bad := parent.Clone()
	bad[0] = tab.Procs() + 1 // out of range
	short := parent[:len(parent)-1]
	items := []batchItem{
		{alloc: parent},
		{alloc: bad},
		{alloc: short},
		{alloc: parent, parent: bad, mutated: []int{0}}, // invalid parent baseline
		{alloc: parent, parent: short, mutated: []int{0}},
		{alloc: parent},
	}
	fit := make([]float64, len(items))
	errs := make([]error, len(items))
	evalBatch(m, items, Options{}, fit, errs)
	for _, r := range []int{0, 4, 5} {
		if errs[r] != nil || fit[r] != want {
			t.Errorf("row %d: fitness %g err %v, want %g nil", r, fit[r], errs[r], want)
		}
	}
	for _, r := range []int{1, 2, 3} {
		if errs[r] == nil || errors.Is(errs[r], ErrRejected) {
			t.Errorf("row %d: err %v, want a validation error", r, errs[r])
		}
	}
}
