package listsched

import (
	"fmt"

	"emts/internal/dag"
	"emts/internal/model"
	"emts/internal/schedule"
)

// mapState bundles the mutable scratch one map-loop execution consumes: the
// bottom levels driving the ready-heap priority, the consumable indegree and
// data-ready-time arrays, the availability profile, the per-processor free
// times consulted only when processor sets are recorded, and the ready heap.
type mapState struct {
	bl        []float64
	indeg     []int
	readyTime []float64
	avail     []float64
	steps     []availStep
	ready     blHeap
}

// availStep is one run of the availability profile: n processors become
// free at time t. The map loop keeps the runs with distinct times, latest
// first, so the earliest-free processors sit at the end of the slice; their
// counts sum to P, so there are never more than P runs.
type availStep struct {
	t float64
	n int
}

// witnessSlots is the number of critical paths a Mapper remembers from its
// latest critical-path rejections (DESIGN.md §10, Layer 1).
const witnessSlots = 4

// Mapper is a reusable evaluation engine for the mapping step: it owns every
// piece of per-call scratch state (bottom-level buffer, indegrees, ready
// heap, availability profile, per-processor free times, remembered critical
// paths), so repeated calls reuse the same arenas instead of reallocating
// them. After the first call on a given (graph, table) pair, Makespan
// performs zero heap allocations and never touches per-processor state,
// which is what makes the EA's fitness evaluation — the dominant cost of
// EMTS (Section VI) — cheap enough to scale to large populations and
// clusters. Every call that is not rejected by a remembered path or the area
// bound recomputes the bottom levels with one full reverse-topological
// sweep.
//
// The remembered paths are the only state a Mapper carries from one call to
// the next. They decide how much work a bounded call does, never its
// outcome: every result is the same as a fresh Mapper's.
//
// A Mapper is NOT safe for concurrent use: each worker goroutine must own its
// own instance (see ea.Run). Results are bit-identical to the
// package-level Map/Makespan functions, which are thin wrappers that
// construct a throwaway Mapper.
type Mapper struct {
	g     *dag.Graph
	tab   *model.Table
	procs int
	// topoOrder is the graph's topological order; the bottom-level sweep
	// walks it backwards.
	topoOrder []dag.TaskID
	// sources are the tasks without predecessors, in ID order: the
	// critical-path walk of a rejection starts at one of them.
	sources []dag.TaskID
	// witness holds the critical paths of the latest critical-path
	// rejections, source first, each in a slot sized for the graph's depth
	// (no path holds more tasks than there are precedence levels).
	// witnessNext is the slot the next path overwrites; witnessLen counts the
	// slots in use.
	witness     [witnessSlots][]dag.TaskID
	witnessNext int
	witnessLen  int

	st mapState
}

// NewMapper returns a Mapper for the given graph and execution-time table,
// with every arena sized for it. It fails if the table does not cover
// exactly the graph's tasks.
func NewMapper(g *dag.Graph, tab *model.Table) (*Mapper, error) {
	if tab.NumTasks() != g.NumTasks() {
		return nil, fmt.Errorf("listsched: table covers %d tasks, graph has %d", tab.NumTasks(), g.NumTasks())
	}
	order, err := g.TopologicalOrder()
	if err != nil {
		return nil, err
	}
	n, procs := g.NumTasks(), tab.Procs()
	m := &Mapper{
		g:         g,
		tab:       tab,
		procs:     procs,
		topoOrder: order,
		sources:   g.Sources(),
		st: mapState{
			bl:        make([]float64, n),
			indeg:     make([]int, n),
			readyTime: make([]float64, n),
			avail:     make([]float64, procs),
			steps:     make([]availStep, 0, procs),
			ready:     blHeap{items: make([]readyTask, 0, n)},
		},
	}
	depth := g.Depth()
	for i := range m.witness {
		m.witness[i] = make([]dag.TaskID, 0, depth)
	}
	return m, nil
}

// Makespan maps the allocation and returns only the resulting makespan — the
// fitness function F of Section III-A. No schedule object is materialized and
// no heap memory is allocated on the success path.
//
//schedlint:hotpath
func (m *Mapper) Makespan(alloc schedule.Allocation) (float64, error) {
	return m.MakespanOpts(alloc, Options{})
}

// MakespanBounded is Makespan with the rejection strategy of Section VI: it
// fails with schedule.ErrRejected as soon as a dependence-only lower bound on
// the final makespan exceeds rejectAbove (when positive).
//
// A makespan above the bound is always rejected: at the task achieving the
// makespan the lower bound start + bl(v) is at least the task's end. A
// makespan within rounding below the bound may be rejected as well, because
// bl(v) sums a path right to left while the schedule sums the same times left
// to right. On random allocations of 20,000-task chains the lower bound
// exceeded the makespan by up to 1.5e-14 relative (106 ulps), and a bound
// equal to the makespan was rejected on 672 of 80,000 allocations of DAGGEN
// graphs of 20–100 tasks. A bound of the makespan times 1 + 1e-9 is never
// rejected: that is the margin ea's cull relies on (TestMapperRejectionExact).
//
//schedlint:hotpath
func (m *Mapper) MakespanBounded(alloc schedule.Allocation, rejectAbove float64) (float64, error) {
	return m.MakespanOpts(alloc, Options{RejectAbove: rejectAbove})
}

// MakespanOpts is Makespan with full Options control (rejection bound,
// prefilter switch).
//
// Every public Mapper call first checks alloc with schedule.Allocation.Validate
// and returns its error for an allocation of the wrong length or with an
// entry outside [1, P].
//
//schedlint:hotpath
func (m *Mapper) MakespanOpts(alloc schedule.Allocation, opt Options) (float64, error) {
	if err := alloc.Validate(m.g, m.procs); err != nil {
		return 0, err
	}
	return MakespanUnchecked(m, alloc, opt)
}

// MakespanUnchecked is m.MakespanOpts without the Validate check: alloc must
// already hold one entry per task, each in [1, P], and any other allocation
// reads the wrong table cells or panics. It is the EA's fitness path, where
// an O(V) check per evaluation would re-prove what holds by construction:
// the EA checks allocations where they enter a run and derives every other
// one from them within [1, P] (DESIGN.md §10). It is a function rather than
// a method so that the public Mapper type keeps checking every call.
//
//schedlint:hotpath
func MakespanUnchecked(m *Mapper, alloc schedule.Allocation, opt Options) (float64, error) {
	return m.mapLoop(alloc, opt, nil, nil)
}

// bottomLevelsRow fills bl with the bottom levels of alloc by the same
// reverse-topological sweep as dag.BottomLevelsInto — same order, same float
// operation sequence (bl[v] = T(v, s(v)) + maxSucc), so the bits match — but
// with the execution time indexed straight out of the table instead of called
// through a cost closure.
//
//schedlint:hotpath
func bottomLevelsRow(g *dag.Graph, tab *model.Table, alloc schedule.Allocation, bl []float64, order []dag.TaskID) {
	for i := len(order) - 1; i >= 0; i-- {
		v := order[i]
		maxSucc := 0.0
		for _, s := range g.Successors(v) {
			if bl[s] > maxSucc {
				maxSucc = bl[s]
			}
		}
		bl[v] = tab.Time(v, alloc[v]) + maxSucc
	}
}

// Map builds the full schedule for the given allocation, processor sets
// included. The returned schedule is freshly allocated and independent of
// the Mapper's scratch state: the entry array plus one processor-ID arena
// shared by all entries' Procs slices (one allocation per Map instead of one
// per task).
func (m *Mapper) Map(alloc schedule.Allocation) (*schedule.Schedule, error) {
	if err := alloc.Validate(m.g, m.procs); err != nil {
		return nil, err
	}
	entries := make([]schedule.Entry, m.g.NumTasks())
	procArena := make([]int, 0, alloc.TotalProcs())
	if _, err := m.mapLoop(alloc, Options{}, entries, procArena); err != nil {
		return nil, err
	}
	return &schedule.Schedule{Graph: m.g.Name(), Procs: m.procs, Entries: entries}, nil
}

// mapLoop is the classical two-step mapping: tasks become ready when all
// predecessors are placed; among ready tasks the one with the largest bottom
// level runs next (ties broken by task ID); it is placed on the s(v)
// processors that become available earliest (ties broken by processor index
// — the "first processor set"), starting at the maximum of its data-ready
// time and the availability of the last of those processors.
//
// The start time depends only on the multiset of processor free times, so
// the loop keeps that multiset as an availability profile of K runs, where
// K ≤ min(P, V+1) is the number of distinct free times: a task takes its s
// processors from the earliest runs, and the time of the run holding the
// s-th processor is its start candidate; the s processors come back as one
// run at the task's end. That makes the complexity O(E + V log V + V·K),
// against the O(E + V log V + V·P) quoted in Section III-E, plus one O(P)
// scan per task when processor sets are recorded.
//
// When entries is non-nil, one Entry per task, processor set included, is
// recorded there; otherwise only the makespan is tracked (the fitness path).
// procArena, consulted only when entries are recorded, must have capacity
// for alloc.TotalProcs() entries; each task's Procs is carved from it, so a
// full Map costs one arena allocation instead of one per task.
//
// The caller has checked alloc (see MakespanUnchecked).
//
//schedlint:hotpath
func (m *Mapper) mapLoop(alloc schedule.Allocation, opt Options, entries []schedule.Entry, procArena []int) (float64, error) {
	g, tab, procs, st := m.g, m.tab, m.procs, &m.st
	n := g.NumTasks()
	// The prefilter (DESIGN.md §10, Layer 1) tries the cheap proofs first and
	// stops at the first that rejects: the remembered critical paths, the
	// area bound, and only then the sweep's critical-path bound.
	prefilter := opt.RejectAbove > 0 && !opt.DisablePrefilter
	if prefilter && (m.witnessReject(alloc, opt.RejectAbove) || areaReject(tab, procs, alloc, opt.RejectAbove)) {
		return 0, schedule.ErrRejectedPrefilter
	}
	bl := st.bl[:n]
	bottomLevelsRow(g, tab, alloc, bl, m.topoOrder)
	if prefilter && m.criticalPathReject(bl, opt.RejectAbove) {
		return 0, schedule.ErrRejectedPrefilter
	}
	indeg := st.indeg[:n]
	copy(indeg, g.Indegrees())
	readyTime := st.readyTime[:n]
	for i := range readyTime {
		readyTime[i] = 0
	}

	ready := &st.ready
	ready.items = ready.items[:0]
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			ready.push(readyTask{bl: bl[i], id: dag.TaskID(i)})
		}
	}

	steps := append(st.steps[:0], availStep{t: 0, n: procs})
	avail := st.avail[:procs]
	if entries != nil {
		for i := range avail {
			avail[i] = 0
		}
	}
	arenaUsed := 0
	placed := 0
	makespan := 0.0

	// The task being placed stays at the root of the ready heap until its
	// first newly ready successor replaces it (one sift-down instead of a pop
	// and a push); it is popped only when no successor became ready. The
	// heap holds the same tasks at every pick as with a pop up front, and
	// its order is strict, so the pick sequence is the same.
	for ready.len() > 0 {
		top := ready.items[0]
		v := top.id
		s := alloc[v]

		// Take runs from the earliest end of the profile until they hold s
		// processors; run j holds the s-th earliest-free one.
		j := len(steps) - 1
		taken := steps[j].n
		for taken < s {
			j--
			taken += steps[j].n
		}
		freeAt := steps[j].t

		// The builtin max compiles to branch-free code. Every time here is
		// finite, non-negative and never -0, so it returns the same bits
		// as keeping the larger operand with >.
		start := max(readyTime[v], freeAt)
		if opt.RejectAbove > 0 && start+top.bl > opt.RejectAbove {
			return 0, schedule.ErrRejected
		}
		end := start + tab.Time(v, s)
		makespan = max(makespan, end)

		placed++

		if entries != nil {
			// The first processor set is every processor free before
			// freeAt plus the lowest-numbered need of those free exactly at
			// freeAt; one ascending scan yields them already in index order.
			need := s - (taken - steps[j].n)
			procsOut := procArena[arenaUsed : arenaUsed+s : arenaUsed+s]
			arenaUsed += s
			c := 0
			for p, a := range avail {
				switch {
				case a < freeAt:
				case a > freeAt || need == 0:
					continue
				default:
					need--
				}
				avail[p] = end
				procsOut[c] = p
				c++
				if c == s {
					break
				}
			}
			entries[v] = schedule.Entry{Task: v, Start: start, End: end, Procs: procsOut}
		}

		// Drop the taken processors, then give them back as one run at end,
		// joining a run whose time is exactly end.
		if rest := taken - s; rest > 0 {
			steps[j].n = rest
			j++
		}
		steps = steps[:j]
		i := j
		for i > 0 && steps[i-1].t < end {
			i--
		}
		//schedlint:allow floateq -- runs are keyed by exact free time; merging only identical times keeps the profile's multiset exact
		if i > 0 && steps[i-1].t == end {
			steps[i-1].n += s
		} else {
			steps = append(steps, availStep{})
			copy(steps[i+1:], steps[i:])
			steps[i] = availStep{t: end, n: s}
		}

		atRoot := true
		for _, w := range g.Successors(v) {
			readyTime[w] = max(readyTime[w], end)
			indeg[w]--
			if indeg[w] == 0 {
				if atRoot {
					ready.replaceRoot(readyTask{bl: bl[w], id: w})
					atRoot = false
				} else {
					ready.push(readyTask{bl: bl[w], id: w})
				}
			}
		}
		if atRoot {
			ready.pop()
		}
	}

	if placed != n {
		return 0, errIncomplete
	}
	return makespan, nil
}

// areaSlack is the relative tolerance applied to the area lower bound. The
// bound Σ s(v)·T(v,s(v)) ≤ P·M holds exactly in real arithmetic, but the
// float sum accumulates rounding of order V·ε ≈ 1e-14 for V = 100; a slack
// of 1e-9 is orders of magnitude wider than that while still far below any
// meaningful makespan difference, so the comparison can only under-reject —
// never reject an allocation the map loop would have accepted. Admissibility
// is therefore preserved (DESIGN.md §10, Layer 1).
const areaSlack = 1e-9

// The prefilter's three checks each prove, without the map loop, that a
// bounded call would be rejected. Each fires only when one of two O(V)
// admissible lower bounds on the makespan exceeds the bound, so a prefilter
// rejection implies the in-loop check would have rejected as well: results
// with the prefilter on and off are bit-identical.
//
//   - Critical-path bound: max_v bl(v). The first task popped by the map
//     loop is the source with the largest bottom level, started at time 0,
//     so its in-loop check start+bl = max bl fires iff this bound exceeds
//     the threshold — exact, no slack needed. criticalPathReject reads it
//     from the sweep; witnessReject proves it from a remembered path
//     without the sweep.
//   - Area bound: Σ s(v)·T(v,s(v)) / P. All work must fit into P processors
//     within the makespan, so makespan ≥ area/P; compared with relative
//     slack areaSlack to absorb summation rounding (see above).

// witnessReject reports whether a remembered critical path, timed under
// alloc, already exceeds bound. Paths are tried newest first, and only while
// the tasks they hold sum to at most V, so a chain-like graph pays at most
// one sweep's worth of lookups.
//
// The sum runs right to left, acc = T(v, s(v)) + acc, the sweep's own
// expression with acc in place of the largest successor bottom level. Float
// addition is monotone, so the sum over any suffix of the path never exceeds
// the sweep's bottom level of that suffix's first task, and so never
// exceeds max bl: a path sum above bound proves that the sweep's
// critical-path check would reject. Any path of the graph will do, whatever
// allocation it was recorded under, which is why the remembered paths change
// the cost of a call and never its outcome.
//
//schedlint:hotpath
func (m *Mapper) witnessReject(alloc schedule.Allocation, bound float64) bool {
	budget := len(alloc)
	for i := 1; i <= m.witnessLen; i++ {
		path := m.witness[(m.witnessNext-i+witnessSlots)%witnessSlots]
		if budget -= len(path); budget < 0 {
			return false
		}
		acc := 0.0
		for j := len(path) - 1; j >= 0; j-- {
			v := path[j]
			acc = m.tab.Time(v, alloc[v]) + acc
			if acc > bound {
				return true
			}
		}
	}
	return false
}

// areaReject reports whether the area bound exceeds bound.
//
//schedlint:hotpath
func areaReject(tab *model.Table, procs int, alloc schedule.Allocation, bound float64) bool {
	area := 0.0
	for v, s := range alloc {
		area += float64(s) * tab.Time(dag.TaskID(v), s)
	}
	return area > bound*float64(procs)*(1+areaSlack)
}

// criticalPathReject reports whether the largest of the bottom levels bl
// exceeds bound. On a rejection it remembers the critical path for
// witnessReject, replacing the oldest remembered one: the walk starts at the
// source with the largest bottom level and follows the successor with the
// largest one, ties toward the smaller task ID, as dag.CriticalPath does.
// Along that walk each bottom level is the task's time plus the next one's,
// so the path's right-to-left sum under alloc is exactly max bl.
//
//schedlint:hotpath
func (m *Mapper) criticalPathReject(bl []float64, bound float64) bool {
	maxBL := 0.0
	for _, b := range bl {
		if b > maxBL {
			maxBL = b
		}
	}
	if maxBL <= bound {
		return false
	}
	cur := dag.TaskID(-1)
	for _, src := range m.sources {
		if cur == -1 || bl[src] > bl[cur] {
			cur = src
		}
	}
	path := m.witness[m.witnessNext][:0]
	for cur != -1 {
		path = append(path, cur)
		next := dag.TaskID(-1)
		for _, s := range m.g.Successors(cur) {
			if next == -1 || bl[s] > bl[next] {
				next = s
			}
		}
		cur = next
	}
	m.witness[m.witnessNext] = path
	m.witnessNext = (m.witnessNext + 1) % witnessSlots
	if m.witnessLen < witnessSlots {
		m.witnessLen++
	}
	return true
}

// readyTask is a ready task with its bottom level, the heap's key, so a
// comparison reads no side array.
type readyTask struct {
	bl float64
	id dag.TaskID
}

// before reports whether a runs before b: larger bottom level first, smaller
// ID on ties. It is one expression rather than an if on a.bl != b.bl: the
// result is the same for every input, NaN included, and
// BenchmarkMicroFullDistinct ran 7 % faster with it on a 2-vCPU Xeon.
//
//schedlint:hotpath
func (a readyTask) before(b readyTask) bool {
	//schedlint:allow floateq -- exact tie-break: (bottom level desc, ID asc) must be a strict total order for the pop sequence to be schedule-preserving
	return a.bl > b.bl || (a.bl == b.bl && a.id < b.id)
}

// blHeap is a max-heap of ready tasks ordered by readyTask.before. It
// replaces the container/heap implementation: the interface-based heap boxes
// every item pushed through `any`, which allocates — unacceptable on the
// fitness path. Because (bottom level desc, ID asc) is a strict total order,
// the pop sequence of any correct heap is identical, so swapping the
// implementation preserves schedules bit for bit.
type blHeap struct {
	items []readyTask
}

func (h *blHeap) len() int { return len(h.items) }

// push adds t, moving the hole left at the end up past every parent t runs
// before.
//
//schedlint:hotpath
func (h *blHeap) push(t readyTask) {
	h.items = append(h.items, t)
	items := h.items
	i := len(items) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !t.before(items[parent]) {
			break
		}
		items[i] = items[parent]
		i = parent
	}
	items[i] = t
}

// pop removes and returns the root.
//
//schedlint:hotpath
func (h *blHeap) pop() readyTask {
	top := h.items[0]
	last := len(h.items) - 1
	t := h.items[last]
	h.items = h.items[:last]
	if last > 0 {
		h.replaceRoot(t)
	}
	return top
}

// replaceRoot removes the root of a non-empty heap and adds t: a pop and a
// push for the price of one sift-down, which moves the hole left at the root
// down past every child that runs before t.
//
//schedlint:hotpath
func (h *blHeap) replaceRoot(t readyTask) {
	items := h.items
	n := len(items)
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && items[r].before(items[c]) {
			c = r
		}
		if !items[c].before(t) {
			break
		}
		items[i] = items[c]
		i = c
	}
	items[i] = t
}
