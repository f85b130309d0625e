// Package schedule defines processor allocations and schedules for parallel
// task graphs, together with correctness validation and Gantt-chart rendering
// (used to regenerate Figure 6 of the paper).
//
// An Allocation is the paper's "individual" encoding (Section III-A,
// Figure 2): position i holds s(v_i), the number of processors allocated to
// task v_i. A Schedule is the output of the mapping step: for every task a
// start time, an end time, and the concrete set of processors it occupies.
package schedule

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"emts/internal/dag"
	"emts/internal/model"
)

// ErrRejected reports an evaluation aborted by a makespan bound: the
// allocation's makespan exceeds the bound, or lies within rounding below it.
// listsched returns it when a lower bound on the makespan passes
// Options.RejectAbove, and the EA scores such an individual +Inf (see
// ea.Evaluator).
var ErrRejected = errors.New("schedule: rejected by makespan bound")

// ErrRejectedPrefilter is the ErrRejected variant decided by the O(V)
// lower-bound prefilter before the map loop (DESIGN.md §10). It wraps
// ErrRejected, so errors.Is(err, ErrRejected) matches both; the EA counts
// it separately in ea.Result.PrefilterRejections.
var ErrRejectedPrefilter = fmt.Errorf("%w (lower-bound prefilter)", ErrRejected)

// Allocation holds the number of processors allocated to each task, indexed
// by dag.TaskID. It is exactly the individual encoding of Figure 2.
type Allocation []int

// Ones returns the allocation that gives every one of n tasks a single
// processor — the starting point of the CPA-family heuristics.
func Ones(n int) Allocation {
	a := make(Allocation, n)
	for i := range a {
		a[i] = 1
	}
	return a
}

// Clone returns an independent copy of a.
func (a Allocation) Clone() Allocation { return append(Allocation(nil), a...) }

// Validate checks that the allocation covers every task of g and that every
// entry lies in [1, procs].
func (a Allocation) Validate(g *dag.Graph, procs int) error {
	return a.ValidateLen(g.NumTasks(), procs)
}

// ValidateLen is Validate for a graph of n tasks, for callers that know the
// task count but not the graph (the EA checks the children of outside
// mutation operators with it).
func (a Allocation) ValidateLen(n, procs int) error {
	if len(a) != n {
		return fmt.Errorf("schedule: allocation has %d entries for %d tasks", len(a), n)
	}
	for i, s := range a {
		if s < 1 || s > procs {
			return fmt.Errorf("schedule: allocation of task %d is %d, want 1..%d", i, s, procs)
		}
	}
	return nil
}

// Clamp forces every entry into [1, procs] in place and returns a.
func (a Allocation) Clamp(procs int) Allocation {
	for i, s := range a {
		if s < 1 {
			a[i] = 1
		} else if s > procs {
			a[i] = procs
		}
	}
	return a
}

// TotalProcs returns the sum of all allocations (the "area" in processors).
func (a Allocation) TotalProcs() int {
	sum := 0
	for _, s := range a {
		sum += s
	}
	return sum
}

// Entry records the placement of one task: the half-open time interval
// [Start, End) on the processors listed in Procs.
type Entry struct {
	Task  dag.TaskID `json:"task"`
	Start float64    `json:"start"`
	End   float64    `json:"end"`
	Procs []int      `json:"procs"`
}

// Schedule is a complete mapping of a PTG onto a cluster. Entries is indexed
// by task ID (Entries[i].Task == i).
type Schedule struct {
	// Graph is the name of the scheduled PTG (informational).
	Graph string `json:"graph"`
	// Procs is the number of processors of the platform.
	Procs int `json:"procs"`
	// Entries holds one entry per task, indexed by task ID.
	Entries []Entry `json:"entries"`
}

// Makespan returns the completion time of the schedule: the maximum entry end
// time, or 0 for an empty schedule.
func (s *Schedule) Makespan() float64 {
	max := 0.0
	for _, e := range s.Entries {
		if e.End > max {
			max = e.End
		}
	}
	return max
}

// Allocation extracts the allocation vector realized by the schedule.
func (s *Schedule) Allocation() Allocation {
	a := make(Allocation, len(s.Entries))
	for i, e := range s.Entries {
		a[i] = len(e.Procs)
	}
	return a
}

// timeEps is the relative tolerance used when validating schedule timings.
const timeEps = 1e-9

// Validate performs a full correctness audit of the schedule against its
// graph, the platform size, and (optionally) an execution-time table:
//
//  1. every task of g has exactly one entry, with finite Start >= 0 and
//     finite End >= Start;
//  2. every entry occupies between 1 and Procs distinct in-range processors;
//  3. no processor executes two tasks at overlapping times (Section IV:
//     "a processor only executes one task at a time");
//  4. precedence constraints hold: a task starts no earlier than the end of
//     each of its predecessors;
//  5. if tab is non-nil, End - Start equals tab.Time(v, len(Procs)).
//
// The first violation is reported: entries in task order (checks 1, 2 and
// 5 for each), then processors in order, then edges in (src, dst) order.
// Validate allocates once, whatever the graph and the platform: a stamp per
// processor, which finds a processor an entry lists twice; the entries
// sorted by start time (end time, then task, among equal starts), whose
// order is each processor's order; and the entry each processor ran last
// in that order, which the next one there must not overlap.
func (s *Schedule) Validate(g *dag.Graph, tab *model.Table) error {
	n := len(s.Entries)
	if n != g.NumTasks() {
		return fmt.Errorf("schedule: %d entries for %d tasks", n, g.NumTasks())
	}
	procs := max(s.Procs, 0)
	scratch := make([]int32, n+2*procs)
	order, stamp, last := scratch[:n], scratch[n:n+procs], scratch[n+procs:]
	for i, e := range s.Entries {
		if e.Task != dag.TaskID(i) {
			return fmt.Errorf("schedule: entry %d holds task %d", i, e.Task)
		}
		if !(e.Start >= 0 && e.End >= e.Start && e.End <= math.MaxFloat64) {
			return fmt.Errorf("schedule: task %d has invalid interval [%g, %g)", i, e.Start, e.End)
		}
		if len(e.Procs) < 1 || len(e.Procs) > s.Procs {
			return fmt.Errorf("schedule: task %d uses %d processors, want 1..%d", i, len(e.Procs), s.Procs)
		}
		for _, p := range e.Procs {
			if p < 0 || p >= s.Procs {
				return fmt.Errorf("schedule: task %d placed on processor %d, want 0..%d", i, p, s.Procs-1)
			}
			if stamp[p] == int32(i+1) {
				return fmt.Errorf("schedule: task %d lists processor %d twice", i, p)
			}
			stamp[p] = int32(i + 1)
		}
		if tab != nil {
			want := tab.Time(e.Task, len(e.Procs))
			got := e.End - e.Start
			if relDiff(got, want) > timeEps {
				return fmt.Errorf("schedule: task %d duration %g != model time %g for %d procs",
					i, got, want, len(e.Procs))
			}
		}
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(a, b int32) int {
		ea, eb := &s.Entries[a], &s.Entries[b]
		switch {
		case ea.Start < eb.Start:
			return -1
		case ea.Start > eb.Start:
			return 1
		case ea.End < eb.End:
			return -1
		case ea.End > eb.End:
			return 1
		}
		return int(a - b)
	})
	// Each processor's first overlap, in its order, is found when its later
	// task comes up; the lowest processor's is reported.
	for p := range last {
		last[p] = -1
	}
	bad, prev, cur := procs, -1, -1
	for _, i := range order {
		e := &s.Entries[i]
		for _, p := range e.Procs {
			if k := last[p]; k >= 0 && p < bad && e.Start < s.Entries[k].End-absEps(s.Entries[k].End) {
				bad, prev, cur = p, int(k), int(i)
			}
			last[p] = i
		}
	}
	if bad < procs {
		a, b := s.Entries[prev], s.Entries[cur]
		return fmt.Errorf("schedule: processor %d runs task %d [%g,%g) and task %d [%g,%g) concurrently",
			bad, a.Task, a.Start, a.End, b.Task, b.Start, b.End)
	}
	for src := range s.Entries {
		pred := &s.Entries[src]
		for _, dst := range g.Successors(dag.TaskID(src)) {
			if succ := &s.Entries[dst]; succ.Start < pred.End-absEps(pred.End) {
				return fmt.Errorf("schedule: task %d starts at %g before predecessor %d ends at %g",
					dst, succ.Start, src, pred.End)
			}
		}
	}
	return nil
}

func relDiff(a, b float64) float64 {
	d := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	if scale == 0 {
		return d
	}
	return d / scale
}

func absEps(v float64) float64 { return timeEps * math.Max(1, math.Abs(v)) }
