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
	"fmt"

	"emts/internal/dag"
	"emts/internal/model"
	"emts/internal/schedule"
)

// ErrRejected reports that mapping was aborted because the partial schedule
// provably could not beat Options.RejectAbove.
var ErrRejected = errors.New("listsched: schedule rejected by makespan bound")

// ErrRejectedPrefilter is the ErrRejected variant raised by the O(V)
// lower-bound prefilter that runs before the map loop (DESIGN.md §10). It
// wraps ErrRejected, so errors.Is(err, ErrRejected) matches both; callers
// that care which layer fired (counters, benchmarks) test for this sentinel
// specifically.
var ErrRejectedPrefilter = fmt.Errorf("%w (lower-bound prefilter)", ErrRejected)

// errIncomplete reports a map loop that drained its ready queue before
// placing every task. Graphs reach the mappers only after bind's topological
// validation, so this is a defensive invariant check, not a user-facing
// parse error — which is why it carries no counts: constructing a formatted
// error would put an allocation on the fitness path for a case that cannot
// occur there (see the sentinelerr analyzer, DESIGN.md §14).
var errIncomplete = errors.New("listsched: mapping incomplete: ready queue drained with tasks unplaced (cyclic graph?)")

// Options tunes the mapping step.
type Options struct {
	// RejectAbove, when positive, enables the rejection strategy of Section
	// VI: mapping fails with ErrRejected as soon as start(v) + bl(v) — a
	// dependence-only lower bound on the final makespan — exceeds the bound
	// for some task v.
	RejectAbove float64
	// SkipProcSets, when true, leaves each entry's processor ID list nil and
	// records only start/end times. The makespan is unaffected (processor
	// choice is by earliest availability, so only availability *times*
	// matter), but the resulting schedule will not pass Schedule.Validate.
	// Fitness evaluation uses this to avoid per-task allocations.
	SkipProcSets bool
	// DisablePrefilter skips the O(V) admissible lower-bound prefilter that
	// normally runs between the bottom-level sweep and the map loop when
	// RejectAbove is set. The prefilter is exact — it fires only when the
	// in-loop rejection check would also fire — so this switch exists purely
	// for A/B regression tests and benchmarks, like ea.Config.DisableDelta.
	DisablePrefilter bool
}

// Cost adapts an execution-time table and an allocation into the dag.CostFunc
// used by graph analyses: cost(v) = T(v, alloc[v]).
func Cost(tab *model.Table, alloc schedule.Allocation) dag.CostFunc {
	return func(id dag.TaskID) float64 { return tab.Time(id, alloc[id]) }
}

// Map builds the schedule for the given allocation with default options.
//
// Map, Makespan, and MapWithOptions construct a throwaway Mapper per call;
// loops that map repeatedly against one (graph, table) pair should hold a
// Mapper and reuse its scratch arenas instead.
func Map(g *dag.Graph, tab *model.Table, alloc schedule.Allocation) (*schedule.Schedule, error) {
	return MapWithOptions(g, tab, alloc, Options{})
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

// MapWithOptions builds the schedule for the given allocation. See
// Mapper.MapWithOptions for the algorithm.
func MapWithOptions(g *dag.Graph, tab *model.Table, alloc schedule.Allocation, opt Options) (*schedule.Schedule, error) {
	m, err := NewMapper(g, tab)
	if err != nil {
		return nil, err
	}
	return m.MapWithOptions(alloc, opt)
}
