package listsched

import (
	"fmt"
	"sort"

	"emts/internal/dag"
	"emts/internal/model"
	"emts/internal/schedule"
)

// MapInsertion is an insertion-based variant of the mapping step: instead of
// placing each task after the chosen processors' last assignment (the
// end-of-availability rule of Mapper.Map), it searches the earliest time
// window — including gaps between already-placed tasks — where s(v)
// processors are simultaneously free for the task's full duration.
//
// Insertion produces schedules at least as good as the availability mapper on
// fragmented workloads, at a higher scheduling cost: O(V²·P) worst case
// versus the availability mapper's O(E + V log V + V·K), K ≤ min(P, V+1).
// The paper's Section VI observes that the mapping function dominates EMTS's
// run time; this variant quantifies the other side of that trade-off (see
// BenchmarkAblationInsertionMapping).
//
// Task priorities and tie-breaks match Mapper.Map exactly, so the two
// mappers differ only in placement policy.
func MapInsertion(g *dag.Graph, tab *model.Table, alloc schedule.Allocation) (*schedule.Schedule, error) {
	procs := tab.Procs()
	if err := alloc.Validate(g, procs); err != nil {
		return nil, err
	}
	if tab.NumTasks() != g.NumTasks() {
		return nil, fmt.Errorf("listsched: table covers %d tasks, graph has %d", tab.NumTasks(), g.NumTasks())
	}

	bl := g.BottomLevels(Cost(tab, alloc))
	n := g.NumTasks()
	indeg := make([]int, n)
	copy(indeg, g.Indegrees())
	readyTime := make([]float64, n)
	ready := &blHeap{}
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			ready.push(readyTask{bl: bl[i], id: dag.TaskID(i)})
		}
	}

	busy := make([][]interval, procs) // per processor, sorted by start
	sched := &schedule.Schedule{Graph: g.Name(), Procs: procs, Entries: make([]schedule.Entry, n)}
	placed := 0

	for ready.len() > 0 {
		v := ready.pop().id
		s := alloc[v]
		d := tab.Time(v, s)

		start, chosen := earliestSlot(busy, s, readyTime[v], d)
		end := start + d
		for _, p := range chosen {
			busy[p] = insertInterval(busy[p], interval{start, end})
		}
		e := schedule.Entry{Task: v, Start: start, End: end, Procs: chosen}
		sched.Entries[v] = e
		placed++

		for _, w := range g.Successors(v) {
			readyTime[w] = max(readyTime[w], end)
			indeg[w]--
			if indeg[w] == 0 {
				ready.push(readyTask{bl: bl[w], id: w})
			}
		}
	}
	if placed != n {
		return nil, errIncomplete
	}
	return sched, nil
}

// interval is a half-open busy window [lo, hi).
type interval struct{ lo, hi float64 }

// insertInterval keeps the per-processor busy list sorted by start time.
func insertInterval(list []interval, iv interval) []interval {
	pos := sort.Search(len(list), func(i int) bool { return list[i].lo >= iv.lo })
	list = append(list, interval{})
	copy(list[pos+1:], list[pos:])
	list[pos] = iv
	return list
}

// freeDuring reports whether processor busy-list has no overlap with
// [t, t+d).
func freeDuring(list []interval, t, d float64) bool {
	end := t + d
	// First interval with lo < end could overlap; binary search for the
	// insertion point of end, then check the interval before it.
	pos := sort.Search(len(list), func(i int) bool { return list[i].lo >= end })
	if pos == 0 {
		return true
	}
	return list[pos-1].hi <= t
}

// earliestSlot finds the smallest t >= ready such that at least s processors
// are free during [t, t+d), returning t and the s lowest-numbered free
// processors. Candidate times are the ready time and every busy-interval end
// not before it: between consecutive candidates the set of free processors
// for a fixed window can only change at interval boundaries.
func earliestSlot(busy [][]interval, s int, ready, d float64) (float64, []int) {
	candidates := []float64{ready}
	for _, list := range busy {
		for _, iv := range list {
			if iv.hi >= ready {
				candidates = append(candidates, iv.hi)
			}
		}
	}
	sort.Float64s(candidates)
	chosen := make([]int, 0, s)
	for _, t := range candidates {
		if t < ready {
			continue
		}
		chosen = chosen[:0]
		for p := range busy {
			if freeDuring(busy[p], t, d) {
				chosen = append(chosen, p)
				if len(chosen) == s {
					return t, append([]int(nil), chosen...)
				}
			}
		}
	}
	// Unreachable: the last candidate is the global maximum busy end, where
	// every processor is free.
	panic("listsched: no feasible insertion slot")
}
