// Package onestep implements a one-step scheduler for moldable task graphs,
// the second algorithm class of Section II-B (e.g. LoC-MPS, Boudet et al.):
// allocation and mapping are decided together, task by task. It serves as an
// additional comparator for EMTS beyond the two-step CPA family.
//
// The implemented algorithm, GreedyEFT, is the natural moldable extension of
// earliest-finish-time list scheduling (in the spirit of M-HEFT): ready tasks
// are prioritized by bottom level; for the selected task every processor
// count p is evaluated against the current processor availability, and the
// (p, processor set) minimizing the task's finish time is committed. This is
// exactly the "final decision of placement ... for a task in each iteration"
// the paper describes, with the known trade-off: better local packing, higher
// scheduling cost.
package onestep

import (
	"container/heap"
	"fmt"
	"sort"

	"emts/internal/dag"
	"emts/internal/model"
	"emts/internal/schedule"
)

// GreedyEFT is the one-step scheduler. Each task gets the processor count,
// from 1 to P, that finishes it earliest.
type GreedyEFT struct{}

// Name identifies the scheduler in reports.
func (GreedyEFT) Name() string { return "eft" }

// Schedule builds a complete schedule for g using the execution times of
// tab. The result passes schedule.Validate.
func (GreedyEFT) Schedule(g *dag.Graph, tab *model.Table) (*schedule.Schedule, error) {
	if tab.NumTasks() != g.NumTasks() {
		return nil, fmt.Errorf("onestep: table covers %d tasks, graph has %d", tab.NumTasks(), g.NumTasks())
	}
	if g.NumTasks() == 0 {
		return nil, fmt.Errorf("onestep: empty graph")
	}
	procs := tab.Procs()

	// Priorities: bottom levels under single-processor times, the common
	// one-step choice (the final allocation is unknown up front).
	ones := schedule.Ones(g.NumTasks())
	bl := g.BottomLevels(func(id dag.TaskID) float64 { return tab.Time(id, ones[id]) })

	n := g.NumTasks()
	indeg := make([]int, n)
	readyTime := make([]float64, n)
	for i := 0; i < n; i++ {
		indeg[i] = len(g.Predecessors(dag.TaskID(i)))
	}
	ready := &taskQueue{bl: bl}
	heap.Init(ready)
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			heap.Push(ready, dag.TaskID(i))
		}
	}

	avail := make([]float64, procs)
	order := make([]int, procs)
	sched := &schedule.Schedule{Graph: g.Name(), Procs: procs, Entries: make([]schedule.Entry, n)}
	placed := 0

	for ready.Len() > 0 {
		v := heap.Pop(ready).(dag.TaskID)

		// Sort processors by (availability, index) once per task; the p
		// earliest-available processors are then order[:p] for every p.
		for i := range order {
			order[i] = i
		}
		sort.SliceStable(order, func(a, b int) bool { return avail[order[a]] < avail[order[b]] })

		// Evaluate every processor count and keep the earliest finish; ties
		// break toward fewer processors (cheaper in resources).
		bestP := 1
		bestStart := maxf(readyTime[v], avail[order[0]])
		bestFinish := bestStart + tab.Time(v, 1)
		for p := 2; p <= procs; p++ {
			start := maxf(readyTime[v], avail[order[p-1]])
			finish := start + tab.Time(v, p)
			if bestFinish-finish > 0 {
				bestP, bestStart, bestFinish = p, start, finish
			}
		}

		chosen := make([]int, bestP)
		copy(chosen, order[:bestP])
		sort.Ints(chosen)
		sched.Entries[v] = schedule.Entry{Task: v, Start: bestStart, End: bestFinish, Procs: chosen}
		placed++
		for _, p := range chosen {
			avail[p] = bestFinish
		}
		for _, w := range g.Successors(v) {
			if bestFinish > readyTime[w] {
				readyTime[w] = bestFinish
			}
			indeg[w]--
			if indeg[w] == 0 {
				heap.Push(ready, w)
			}
		}
	}
	if placed != n {
		return nil, fmt.Errorf("onestep: scheduled %d of %d tasks", placed, n)
	}
	return sched, nil
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// taskQueue is a max-heap of ready tasks by bottom level, ID tie-break.
type taskQueue struct {
	bl    []float64
	items []dag.TaskID
}

func (q *taskQueue) Len() int { return len(q.items) }

func (q *taskQueue) Less(i, j int) bool {
	a, b := q.items[i], q.items[j]
	//schedlint:allow floateq -- exact tie-break: (bottom level desc, ID asc) keeps the priority queue a strict total order
	if q.bl[a] != q.bl[b] {
		return q.bl[a] > q.bl[b]
	}
	return a < b
}

func (q *taskQueue) Swap(i, j int) { q.items[i], q.items[j] = q.items[j], q.items[i] }

func (q *taskQueue) Push(x any) { q.items = append(q.items, x.(dag.TaskID)) }

func (q *taskQueue) Pop() any {
	last := len(q.items) - 1
	v := q.items[last]
	q.items = q.items[:last]
	return v
}
