// Package listsched implements the mapping step shared by every two-step
// scheduler in this repository, as described in Section III-A of the paper:
//
//	"In the list scheduling algorithm used by EMTS, the ready nodes are
//	 sorted by decreasing bottom level and each ready node v is mapped to the
//	 first processor set that contains s(v) available processors."
//
// The mapper takes a PTG, an allocation vector (the EA individual), and a
// precomputed execution-time table; it produces a complete schedule. This is
// also the fitness function of EMTS: the fitness of an allocation is the
// makespan of the schedule the mapper builds for it (smaller is better).
//
// The mapper additionally implements the rejection strategy sketched as
// future work in Section VI: when a bound is supplied, schedule construction
// aborts as soon as a lower bound on the final makespan exceeds it, so the
// evolutionary search can discard hopeless individuals without paying for the
// full mapping.
package listsched

import (
	"errors"

	"emts/internal/dag"
	"emts/internal/model"
	"emts/internal/schedule"
)

// errIncomplete reports a map loop that drained its ready queue before
// placing every task. dag.Builder rejects cyclic graphs and NewMapper
// re-checks the topological order, so this is a defensive invariant check,
// not a user-facing parse error — which is why it carries no counts:
// constructing a formatted error would put an allocation on the fitness path
// for a case that cannot occur there (see the sentinelerr analyzer,
// DESIGN.md §14).
var errIncomplete = errors.New("listsched: mapping incomplete: ready queue drained with tasks unplaced (cyclic graph?)")

// Options tunes the mapping step.
type Options struct {
	// RejectAbove, when positive, enables the rejection strategy of Section
	// VI: mapping fails with schedule.ErrRejected as soon as start(v) +
	// bl(v) — a dependence-only lower bound on the final makespan — exceeds
	// the bound for some task v. A makespan above the bound is always rejected; one
	// within rounding below it may be (see Mapper.MakespanBounded).
	RejectAbove float64
	// DisablePrefilter skips the O(V) admissible lower-bound prefilter that
	// normally runs before the map loop when RejectAbove is set: the
	// remembered critical paths and the area bound before the bottom-level
	// sweep, the critical-path bound after it. The prefilter is exact — it
	// fires only when the in-loop rejection check would also fire — so this
	// switch exists purely for A/B regression tests and benchmarks.
	DisablePrefilter bool
}

// Cost adapts an execution-time table and an allocation into the dag.CostFunc
// used by graph analyses: cost(v) = T(v, alloc[v]).
func Cost(tab *model.Table, alloc schedule.Allocation) dag.CostFunc {
	return func(id dag.TaskID) float64 { return tab.Time(id, alloc[id]) }
}

// Map builds the full schedule for the given allocation (see Mapper.Map).
//
// Map and Makespan construct a throwaway Mapper per call; loops that map
// repeatedly against one (graph, table) pair should hold a Mapper and reuse
// its scratch arenas instead.
func Map(g *dag.Graph, tab *model.Table, alloc schedule.Allocation) (*schedule.Schedule, error) {
	m, err := NewMapper(g, tab)
	if err != nil {
		return nil, err
	}
	return m.Map(alloc)
}

// Makespan maps the allocation and returns only the resulting makespan — the
// fitness function F of Section III-A.
func Makespan(g *dag.Graph, tab *model.Table, alloc schedule.Allocation) (float64, error) {
	m, err := NewMapper(g, tab)
	if err != nil {
		return 0, err
	}
	return m.Makespan(alloc)
}
