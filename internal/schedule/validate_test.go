package schedule_test

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"emts/internal/dag"
	"emts/internal/daggen"
	"emts/internal/listsched"
	"emts/internal/model"
	"emts/internal/platform"
	"emts/internal/schedule"
)

// referenceValidate is Validate as it was written before it stopped
// allocating per task and per processor: a map per entry, a slice per
// processor, sort.Slice and the Edges copy. FuzzValidateMatchesReference
// compares the two.
func referenceValidate(s *schedule.Schedule, g *dag.Graph, tab *model.Table) error {
	if len(s.Entries) != g.NumTasks() {
		return fmt.Errorf("schedule: %d entries for %d tasks", len(s.Entries), g.NumTasks())
	}
	type span struct {
		start, end float64
		task       dag.TaskID
	}
	perProc := make([][]span, s.Procs)
	for i, e := range s.Entries {
		if e.Task != dag.TaskID(i) {
			return fmt.Errorf("schedule: entry %d holds task %d", i, e.Task)
		}
		if e.Start < 0 || e.End < e.Start {
			return fmt.Errorf("schedule: task %d has invalid interval [%g, %g)", i, e.Start, e.End)
		}
		if len(e.Procs) < 1 || len(e.Procs) > s.Procs {
			return fmt.Errorf("schedule: task %d uses %d processors, want 1..%d", i, len(e.Procs), s.Procs)
		}
		seen := make(map[int]bool, len(e.Procs))
		for _, p := range e.Procs {
			if p < 0 || p >= s.Procs {
				return fmt.Errorf("schedule: task %d placed on processor %d, want 0..%d", i, p, s.Procs-1)
			}
			if seen[p] {
				return fmt.Errorf("schedule: task %d lists processor %d twice", i, p)
			}
			seen[p] = true
			perProc[p] = append(perProc[p], span{e.Start, e.End, e.Task})
		}
		if tab != nil {
			want := tab.Time(e.Task, len(e.Procs))
			got := e.End - e.Start
			if refRelDiff(got, want) > 1e-9 {
				return fmt.Errorf("schedule: task %d duration %g != model time %g for %d procs",
					i, got, want, len(e.Procs))
			}
		}
	}
	for p, spans := range perProc {
		sort.Slice(spans, func(a, b int) bool { return spans[a].start < spans[b].start })
		for k := 1; k < len(spans); k++ {
			prev, cur := spans[k-1], spans[k]
			if cur.start < prev.end-refAbsEps(prev.end) {
				return fmt.Errorf("schedule: processor %d runs task %d [%g,%g) and task %d [%g,%g) concurrently",
					p, prev.task, prev.start, prev.end, cur.task, cur.start, cur.end)
			}
		}
	}
	for _, e := range g.Edges() {
		pred, succ := s.Entries[e.Src], s.Entries[e.Dst]
		if succ.Start < pred.End-refAbsEps(pred.End) {
			return fmt.Errorf("schedule: task %d starts at %g before predecessor %d ends at %g",
				e.Dst, succ.Start, e.Src, pred.End)
		}
	}
	return nil
}

func refRelDiff(a, b float64) float64 {
	d := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	if scale == 0 {
		return d
	}
	return d / scale
}

func refAbsEps(v float64) float64 { return 1e-9 * math.Max(1, math.Abs(v)) }

// validSchedule maps a random allocation in [1, maxProcs] of g on c and
// returns the schedule, each entry's processor list its own copy, with its
// table.
func validSchedule(tb testing.TB, g *dag.Graph, c platform.Cluster, maxProcs int, rng *rand.Rand) (*schedule.Schedule, *model.Table) {
	tb.Helper()
	tab, err := model.NewTable(g, model.Synthetic{}, c)
	if err != nil {
		tb.Fatal(err)
	}
	alloc := make(schedule.Allocation, g.NumTasks())
	for i := range alloc {
		alloc[i] = 1 + rng.Intn(min(maxProcs, c.Procs))
	}
	s, err := listsched.Map(g, tab, alloc)
	if err != nil {
		tb.Fatal(err)
	}
	for i := range s.Entries {
		s.Entries[i].Procs = slices.Clone(s.Entries[i].Procs)
	}
	return s, tab
}

// FuzzValidateMatchesReference maps a random allocation of a random PTG,
// corrupts the schedule with the edits the fuzzer chooses (shifted,
// stretched, tied or non-finite times, processors out of range, repeated,
// dropped or moved, wrong task IDs, missing entries) and requires Validate
// to return the reference's error text, with two exceptions. A schedule with
// a non-finite time must fail, with the reference's error or with an invalid
// interval on an entry holding such a time, which the reference let through.
// Where two spans on a processor start at the same time, the order
// sort.Slice gave them was unspecified, so an overlap error on either side
// is not compared.
func FuzzValidateMatchesReference(f *testing.F) {
	f.Add(int64(1), uint8(20), uint8(8), []byte{})
	f.Add(int64(2), uint8(30), uint8(4), []byte{0, 3, 100, 0})
	f.Add(int64(3), uint8(12), uint8(6), []byte{2, 5, 0, 9, 3, 1, 0, 0})
	f.Add(int64(4), uint8(40), uint8(16), []byte{6, 7, 1, 0, 7, 2, 3, 0})
	f.Add(int64(5), uint8(25), uint8(3), []byte{1, 4, 0, 0, 8, 0, 0, 0, 5, 6, 2, 0})
	f.Add(int64(6), uint8(9), uint8(2), []byte{0, 1, 130, 1, 0, 2, 120, 1})
	f.Fuzz(func(t *testing.T, seed int64, tasks, procs uint8, edits []byte) {
		rng := rand.New(rand.NewSource(seed))
		g, err := daggen.Random(daggen.RandomConfig{N: 2 + int(tasks)%48, Width: 0.5, Regularity: 0.5, Density: 0.5, Jump: 1},
			daggen.DefaultCosts(), seed)
		if err != nil {
			t.Fatal(err)
		}
		c := platform.Cluster{Name: "fuzz", Procs: 1 + int(procs)%16, SpeedGFlops: 1}
		s, tab := validSchedule(t, g, c, c.Procs, rng)
		if len(edits) > 64 {
			edits = edits[:64]
		}
		for ; len(edits) >= 4; edits = edits[4:] {
			if len(s.Entries) == 0 {
				break
			}
			e := &s.Entries[int(edits[1])%len(s.Entries)]
			x, y := edits[2], edits[3]
			switch edits[0] % 10 {
			case 0: // shift, by up to ±8 durations
				d := (float64(x) - 128) / 16 * (e.End - e.Start)
				e.Start, e.End = e.Start+d, e.End+d
			case 1: // stretch or shrink the end
				e.End += (float64(x) - 128) / 64 * (e.End - e.Start)
			case 2: // move a processor, possibly out of range
				if len(e.Procs) > 0 {
					e.Procs[int(y)%len(e.Procs)] = int(x)%(c.Procs+2) - 1
				}
			case 3: // repeat a processor
				if len(e.Procs) > 0 {
					e.Procs = append(e.Procs, e.Procs[int(x)%len(e.Procs)])
				}
			case 4: // drop processors
				e.Procs = e.Procs[:int(x)%(len(e.Procs)+1)]
			case 5: // wrong task ID
				e.Task = dag.TaskID(int(x) % (len(s.Entries) + 1))
			case 6: // a non-finite time
				v := [...]float64{math.NaN(), math.Inf(1), math.Inf(-1)}[int(x)%3]
				if y%2 == 0 {
					e.Start = v
				} else {
					e.End = v
				}
			case 7: // tie with another task's start, keeping the duration
				o := s.Entries[int(x)%len(s.Entries)]
				e.Start, e.End = o.Start, o.Start+(e.End-e.Start)
			case 8: // a missing entry
				s.Entries = s.Entries[:len(s.Entries)-1]
			case 9: // zero length
				e.End = e.Start
			}
		}
		if seed%2 == 0 {
			tab = nil
		}
		err = s.Validate(g, tab)
		refErr := referenceValidate(s, g, tab)
		if text(err) == text(refErr) {
			return
		}
		if i := nonFinite(s); i >= 0 {
			if !strings.HasPrefix(text(err), fmt.Sprintf("schedule: task %d has invalid interval", i)) {
				t.Fatalf("entry %d has a non-finite time; error %v, reference %v", i, err, refErr)
			}
			return
		}
		if tiedStarts(s) && (isOverlap(err) || isOverlap(refErr)) {
			return
		}
		t.Fatalf("Validate: %v\nreference: %v", err, refErr)
	})
}

func text(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

func isOverlap(err error) bool { return err != nil && strings.HasSuffix(err.Error(), "concurrently") }

// nonFinite returns the first entry with a non-finite time, or -1.
func nonFinite(s *schedule.Schedule) int {
	for i, e := range s.Entries {
		if math.IsNaN(e.Start) || math.IsInf(e.Start, 0) || math.IsNaN(e.End) || math.IsInf(e.End, 0) {
			return i
		}
	}
	return -1
}

// tiedStarts reports whether two spans on one processor start together.
func tiedStarts(s *schedule.Schedule) bool {
	type at struct {
		proc  int
		start float64
	}
	seen := map[at]bool{}
	for _, e := range s.Entries {
		for _, p := range e.Procs {
			if seen[at{p, e.Start}] {
				return true
			}
			seen[at{p, e.Start}] = true
		}
	}
	return false
}

// TestValidateAllocationsConstant: Validate allocates the same small number
// of times on a 10-task schedule on 4 processors as on a 100-task one on
// 120, with and without a table.
func TestValidateAllocationsConstant(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var counts []float64
	for _, size := range []struct{ tasks, procs int }{{10, 4}, {100, 120}} {
		g, err := daggen.Random(daggen.RandomConfig{N: size.tasks, Width: 0.5, Regularity: 0.5, Density: 0.5, Jump: 1}, daggen.DefaultCosts(), 9)
		if err != nil {
			t.Fatal(err)
		}
		s, tab := validSchedule(t, g, platform.Cluster{Name: "c", Procs: size.procs, SpeedGFlops: 3.1}, 40, rng)
		for _, tab := range []*model.Table{nil, tab} {
			counts = append(counts, testing.AllocsPerRun(20, func() {
				if err := s.Validate(g, tab); err != nil {
					t.Fatal(err)
				}
			}))
		}
	}
	for _, n := range counts {
		if n != counts[0] || n > 3 {
			t.Fatalf("Validate allocations per call %v, want one constant of at most 3", counts)
		}
	}
}

// BenchmarkValidateSchedule validates 16 schedules of 100-task random PTGs
// on Grelon, each from a random allocation of 1 to 40 processors per task,
// with their tables: what emts-serve checks on every schedule it returns.
func BenchmarkValidateSchedule(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	type instance struct {
		g   *dag.Graph
		s   *schedule.Schedule
		tab *model.Table
	}
	var ins []instance
	for seed := int64(1); seed <= 16; seed++ {
		g, err := daggen.Random(daggen.RandomConfig{N: 100, Width: 0.5, Regularity: 0.5, Density: 0.5, Jump: 1}, daggen.DefaultCosts(), seed)
		if err != nil {
			b.Fatal(err)
		}
		s, tab := validSchedule(b, g, platform.Grelon(), 40, rng)
		ins = append(ins, instance{g, s, tab})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in := ins[i%len(ins)]
		if err := in.s.Validate(in.g, in.tab); err != nil {
			b.Fatal(err)
		}
	}
}
