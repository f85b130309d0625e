package listsched

import (
	"fmt"

	"emts/internal/dag"
	"emts/internal/model"
	"emts/internal/schedule"
)

// mapState bundles the mutable scratch one map-loop execution consumes: the
// bottom levels driving the ready-heap priority, the consumable indegree and
// data-ready-time arrays, per-processor availability with its incrementally
// maintained (availability, index) order, and the ready heap itself.
type mapState struct {
	bl        []float64
	indeg     []int
	readyTime []float64
	avail     []float64
	order     []int
	scratch   []int
	mark      []bool
	ready     blHeap
}

// Mapper is a reusable evaluation engine for the mapping step: it owns every
// piece of per-call scratch state (bottom-level buffer, indegrees, ready
// heap, processor availability, entry records), so repeated calls reuse the
// same arenas instead of reallocating them. After the first call on a given
// (graph, table) pair, Makespan performs zero heap allocations, which is what
// makes the EA's fitness evaluation — the dominant cost of EMTS (Section VI)
// — cheap enough to scale to large populations.
//
// A Mapper is NOT safe for concurrent use: each worker goroutine must own its
// own instance (see ea.Config.DeltaEvaluatorFactory). Results are
// bit-identical to the package-level Map/Makespan functions, which are now
// thin wrappers that construct a throwaway Mapper.
type Mapper struct {
	g     *dag.Graph
	tab   *model.Table
	procs int

	st mapState

	// Delta-evaluation state (DESIGN.md §10, Layer 3). topoPos[v] is v's
	// index in the graph's topological order and topoOrder is its inverse.
	// MakespanDelta walks topoOrder backwards from the highest mutated
	// position, recomputing only tasks flagged dirty in inq, so every
	// successor's bottom level is final before a task is recomputed. A clean
	// task costs one flag load, which keeps the sweep no worse than the full
	// O(V+E) one even when most of the graph is affected. inq is cleared as
	// tasks are visited, so no O(V) reset is needed between calls.
	topoPos   []int32
	topoOrder []dag.TaskID
	inq       []bool

	// baselines is a small ring of parent bottom-level rows keyed by the
	// identity (&parent[0]) of the parent's allocation vector. Identity
	// keying is sound because the EA never mutates a parent vector after
	// selection, and holding the pointer keeps the backing array alive, so
	// an address is never reused while its entry is cached.
	baselines [baselineCap]blBaseline
	nextBase  int
}

// baselineCap bounds the baseline ring: parents per generation is μ (≤ 10
// for the paper's strategies), so 16 slots cover a full generation with room
// for the incumbent best.
const baselineCap = 16

// deltaMutatedDenom gates MakespanDelta: the delta sweep engages only when
// mutated positions number at most NumTasks/deltaMutatedDenom. Measured on
// the 100-task EMTS5 instance benchmark, the crossover between the delta and
// full sweeps sits near a quarter of the tasks mutated.
const deltaMutatedDenom = 4

type blBaseline struct {
	key *int
	bl  []float64
}

// NewMapper returns a Mapper for the given graph and execution-time table.
// It fails if the table does not cover exactly the graph's tasks.
func NewMapper(g *dag.Graph, tab *model.Table) (*Mapper, error) {
	m := &Mapper{}
	if err := m.bind(g, tab); err != nil {
		return nil, err
	}
	return m, nil
}

// Rebind points an existing Mapper at a new (graph, table) pair, reusing
// every arena whose capacity suffices — for a pair of the same shape (task
// count, processor count) it performs zero heap allocations. All cached state
// that depends on the previous pair (bottom-level baselines, delta dirty
// flags) is cleared, so results after a Rebind are bit-identical to those of
// a fresh NewMapper(g, tab). This is the pool reset protocol of DESIGN.md
// §12: evalpool checks Mappers out per request and rebinds them instead of
// reallocating ~10 arenas per worker per request.
//
//schedlint:hotpath
func (m *Mapper) Rebind(g *dag.Graph, tab *model.Table) error {
	return m.bind(g, tab)
}

// Release drops the graph, table, and baseline-key references so a Mapper
// parked in a pool does not pin request-scoped objects (interned graphs and
// tables must stay evictable, and baseline keys hold parent allocation
// vectors alive). Arenas are retained; a subsequent Rebind restores the
// Mapper to service.
//
//schedlint:hotpath
func (m *Mapper) Release() {
	m.g = nil
	m.tab = nil
	m.st.ready.bl = nil
	for i := range m.baselines {
		m.baselines[i].key = nil
	}
}

// Shape reports the (task count, processor count) the Mapper's arenas are
// sized for. It remains valid after Release, which is what lets a pool file a
// released Mapper under its shape without holding the graph alive.
func (m *Mapper) Shape() (tasks, procs int) { return len(m.st.bl), m.procs }

// grow returns s resized to length n, reallocating only when the capacity is
// insufficient. Reused elements keep their old values; callers that need a
// cleared arena must reset it explicitly.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// bind sizes every arena for (g, tab) and resets all pair-dependent state.
// Shared by NewMapper (all capacities zero, so everything allocates) and
// Rebind (same-shape pairs reuse every arena).
//
//schedlint:hotpath
func (m *Mapper) bind(g *dag.Graph, tab *model.Table) error {
	if tab.NumTasks() != g.NumTasks() {
		//schedlint:allow hotalloc,sentinelerr,hotescape -- cold validation path: a shape mismatch is a caller bug, never the steady-state rebind
		return fmt.Errorf("listsched: table covers %d tasks, graph has %d", tab.NumTasks(), g.NumTasks())
	}
	order, err := g.TopologicalOrderInto(m.topoOrder)
	if err != nil {
		return err
	}
	m.g, m.tab, m.procs = g, tab, tab.Procs()
	n := g.NumTasks()
	m.st.bl = grow(m.st.bl, n)
	m.st.indeg = grow(m.st.indeg, n)
	m.st.readyTime = grow(m.st.readyTime, n)
	m.st.avail = grow(m.st.avail, m.procs)
	m.st.order = grow(m.st.order, m.procs)
	m.st.scratch = grow(m.st.scratch, m.procs)
	m.st.mark = grow(m.st.mark, m.procs)
	for i := range m.st.mark {
		m.st.mark[i] = false
	}
	if cap(m.st.ready.items) < n {
		//schedlint:allow hotescape -- amortized arena growth: reallocates only when the task count outgrows the retained capacity
		m.st.ready.items = make([]dag.TaskID, 0, n)
	}
	m.st.ready.items = m.st.ready.items[:0]
	m.st.ready.bl = nil
	m.topoOrder = order
	m.topoPos = grow(m.topoPos, n)
	for i, v := range order {
		m.topoPos[v] = int32(i)
	}
	m.inq = grow(m.inq, n)
	for i := range m.inq {
		m.inq[i] = false
	}
	// Baseline rows cache bottom levels of the previous pair; invalidate the
	// keys but keep the float rows for reuse by the next binding.
	for i := range m.baselines {
		m.baselines[i].key = nil
	}
	m.nextBase = 0
	return nil
}

// Makespan maps the allocation and returns only the resulting makespan — the
// fitness function F of Section III-A. No schedule object is materialized and
// no heap memory is allocated on the success path.
//
//schedlint:hotpath
func (m *Mapper) Makespan(alloc schedule.Allocation) (float64, error) {
	return m.mapLoop(alloc, Options{SkipProcSets: true}, nil, nil)
}

// MakespanBounded is Makespan with the rejection strategy of Section VI: it
// fails with ErrRejected as soon as a dependence-only lower bound on the
// final makespan exceeds rejectAbove (when positive). Because that lower
// bound is exact at the task achieving the makespan, rejection fires if and
// only if the final makespan would exceed the bound.
//
//schedlint:hotpath
func (m *Mapper) MakespanBounded(alloc schedule.Allocation, rejectAbove float64) (float64, error) {
	return m.mapLoop(alloc, Options{SkipProcSets: true, RejectAbove: rejectAbove}, nil, nil)
}

// MakespanOpts is Makespan with full Options control (rejection bound,
// prefilter switch). SkipProcSets is implied: no schedule is materialized.
//
//schedlint:hotpath
func (m *Mapper) MakespanOpts(alloc schedule.Allocation, opt Options) (float64, error) {
	opt.SkipProcSets = true
	return m.mapLoop(alloc, opt, nil, nil)
}

// MakespanDelta is MakespanOpts for an offspring whose allocation differs
// from a known parent only at the given mutated positions. Instead of the
// full O(V+E) bottom-level sweep it copies the parent's cached bottom levels
// and recomputes only the mutated tasks and those of their ancestors whose
// value actually changes, in reverse-topological order with the exact same
// formula as dag.BottomLevelsInto — so the resulting array, and therefore
// the schedule, is bit-for-bit identical to a full evaluation (DESIGN.md
// §10, Layer 3).
//
// The caller contract: parent must be a live, never-again-mutated allocation
// vector (EA parents satisfy this), len(parent) == len(alloc), and alloc[i]
// == parent[i] for every i not listed in mutated. mutated may list positions
// whose new value equals the old one; those simply terminate propagation
// immediately. If parent is nil or the lineage is unusable, this falls back
// to MakespanOpts.
//
//schedlint:hotpath
func (m *Mapper) MakespanDelta(alloc, parent schedule.Allocation, mutated []int, opt Options) (float64, error) {
	opt.SkipProcSets = true
	n := m.g.NumTasks()
	if parent == nil || len(parent) != len(alloc) || len(alloc) != n || len(mutated) == 0 {
		return m.mapLoop(alloc, opt, nil, nil)
	}
	// The delta sweep only wins while the affected region is small: every
	// changed task also scans its predecessor list to flag ancestors, so once
	// a sizable fraction of tasks mutates the sweep costs more than the plain
	// linear one. Mutation counts decay over generations (Eq. 1), so early
	// broad steps fall through to the full sweep and later refinement steps
	// take the delta path. Both paths are bit-identical by construction.
	if len(mutated)*deltaMutatedDenom > n {
		return m.mapLoop(alloc, opt, nil, nil)
	}
	if err := alloc.Validate(m.g, m.procs); err != nil {
		return 0, err
	}
	base, err := m.baseline(parent)
	if err != nil {
		return 0, err
	}
	bl := m.st.bl[:n]
	copy(bl, base)
	deltaBottomLevels(m.g, m.tab, alloc, bl, m.topoOrder, m.topoPos, m.inq, mutated)
	return m.run(alloc, opt, nil, nil)
}

// deltaBottomLevels recomputes the affected bottom levels of bl in place
// after the positions in mutated changed alloc: it flags the mutated tasks
// dirty, then walks the topological order backwards from the highest flagged
// position so successors are final before their predecessors, and stops
// propagating wherever the recomputed value is bitwise unchanged. pending
// counts outstanding dirty tasks (predecessors always sit at lower positions,
// so none can be missed) and lets the walk exit as soon as the last one is
// resolved. inq must be all-false on entry; it is restored to all-false on
// return.
//
//schedlint:hotpath
func deltaBottomLevels(g *dag.Graph, tab *model.Table, alloc schedule.Allocation, bl []float64,
	topoOrder []dag.TaskID, topoPos []int32, inq []bool, mutated []int) {
	pending := 0
	maxPos := int32(-1)
	for _, p := range mutated {
		v := dag.TaskID(p)
		if !inq[v] {
			inq[v] = true
			pending++
			if topoPos[v] > maxPos {
				maxPos = topoPos[v]
			}
		}
	}
	for pos := maxPos; pos >= 0 && pending > 0; pos-- {
		v := topoOrder[pos]
		if !inq[v] {
			continue
		}
		inq[v] = false
		pending--
		maxSucc := 0.0
		for _, s := range g.Successors(v) {
			if bl[s] > maxSucc {
				maxSucc = bl[s]
			}
		}
		nb := tab.Time(v, alloc[v]) + maxSucc
		//schedlint:allow floateq -- bitwise change detection: propagation stops exactly when the recomputed value equals the stored one, which keeps the delta sweep bit-identical to a full sweep
		if nb == bl[v] {
			continue
		}
		bl[v] = nb
		for _, q := range g.Predecessors(v) {
			if !inq[q] {
				inq[q] = true
				pending++
			}
		}
	}
}

// baseline returns the cached bottom-level row for parent, computing and
// caching it on first sight. Rows are keyed by &parent[0]; see the field
// comment on Mapper.baselines for why pointer identity is sound.
//
//schedlint:hotpath
func (m *Mapper) baseline(parent schedule.Allocation) ([]float64, error) {
	key := &parent[0]
	for i := range m.baselines {
		if m.baselines[i].key == key {
			return m.baselines[i].bl, nil
		}
	}
	if err := parent.Validate(m.g, m.procs); err != nil {
		return nil, err
	}
	slot := &m.baselines[m.nextBase]
	m.nextBase = (m.nextBase + 1) % baselineCap
	slot.bl = grow(slot.bl, len(parent))
	bottomLevelsRow(m.g, m.tab, parent, slot.bl, m.topoOrder)
	slot.key = key
	return slot.bl, nil
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

// Map builds the full schedule for the given allocation with default options.
func (m *Mapper) Map(alloc schedule.Allocation) (*schedule.Schedule, error) {
	return m.MapWithOptions(alloc, Options{})
}

// MapWithOptions builds the schedule for the given allocation. The returned
// schedule is freshly allocated and independent of the Mapper's scratch
// state: the entry array plus, unless SkipProcSets is set, one processor-ID
// arena shared by all entries' Procs slices (one allocation per Map instead
// of one per task).
func (m *Mapper) MapWithOptions(alloc schedule.Allocation, opt Options) (*schedule.Schedule, error) {
	if err := alloc.Validate(m.g, m.procs); err != nil {
		return nil, err
	}
	entries := make([]schedule.Entry, m.g.NumTasks())
	var procArena []int
	if !opt.SkipProcSets {
		procArena = make([]int, 0, alloc.TotalProcs())
	}
	if _, err := m.mapLoop(alloc, opt, entries, procArena); err != nil {
		return nil, err
	}
	return &schedule.Schedule{Graph: m.g.Name(), Procs: m.procs, Entries: entries}, nil
}

// mapLoop is the classical two-step mapping (complexity O(E + V log V + V·P),
// as quoted in Section III-E): tasks become ready when all predecessors are
// placed; among ready tasks the one with the largest bottom level runs next
// (ties broken by task ID); it is placed on the s(v) processors that become
// available earliest (ties broken by processor index — the "first processor
// set"), starting at the maximum of its data-ready time and the availability
// of the last of those processors.
//
// When entries is non-nil, one Entry per task is recorded there; otherwise
// only the makespan is tracked (the fitness path).
//
//schedlint:hotpath
func (m *Mapper) mapLoop(alloc schedule.Allocation, opt Options, entries []schedule.Entry, procArena []int) (float64, error) {
	if err := alloc.Validate(m.g, m.procs); err != nil {
		return 0, err
	}
	bottomLevelsRow(m.g, m.tab, alloc, m.st.bl, m.topoOrder)
	return m.run(alloc, opt, entries, procArena)
}

// run is the map loop proper. It assumes alloc has been validated and m.st.bl
// holds the bottom levels for alloc (either from a full sweep or a delta
// update — both produce identical bits).
//
// When entries is non-nil, one Entry per task is recorded there. procArena,
// consulted only when processor sets are recorded, must have capacity for
// alloc.TotalProcs() entries; each task's Procs is carved from it, so a full
// Map costs one arena allocation instead of one per task.
//
//schedlint:hotpath
func (m *Mapper) run(alloc schedule.Allocation, opt Options, entries []schedule.Entry, procArena []int) (float64, error) {
	g, tab, procs, st := m.g, m.tab, m.procs, &m.st
	n := g.NumTasks()
	bl := st.bl[:n]

	if opt.RejectAbove > 0 && !opt.DisablePrefilter && prefilterReject(tab, procs, alloc, bl, opt.RejectAbove) {
		return 0, ErrRejectedPrefilter
	}
	indeg := st.indeg[:n]
	copy(indeg, g.Indegrees())
	readyTime := st.readyTime[:n]
	for i := range readyTime {
		readyTime[i] = 0
	}

	ready := &st.ready
	ready.bl = bl
	ready.items = ready.items[:0]
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			ready.push(dag.TaskID(i))
		}
	}

	avail := st.avail[:procs]
	for i := range avail {
		avail[i] = 0
	}
	// order holds processor indices sorted by (availability, index); it is
	// maintained incrementally: scheduling a task rewrites the first s
	// entries with one shared availability time, so a single merge pass
	// restores sortedness in O(P) instead of re-sorting.
	order := st.order[:procs]
	for i := range order {
		order[i] = i
	}
	scratch := st.scratch[:procs]
	mark := st.mark[:procs]
	recordProcs := entries != nil && !opt.SkipProcSets
	arenaUsed := 0
	placed := 0
	makespan := 0.0

	for ready.len() > 0 {
		v := ready.pop()
		s := alloc[v]

		// The s processors that become available earliest are the first s
		// entries of order; among equal availability times the
		// lowest-numbered processors win, which makes the mapping fully
		// deterministic ("the first processor set").
		chosen := order[:s]

		start := readyTime[v]
		if a := avail[chosen[s-1]]; a > start {
			start = a
		}
		if opt.RejectAbove > 0 && start+bl[v] > opt.RejectAbove {
			return 0, ErrRejected
		}
		end := start + tab.Time(v, s)
		if end > makespan {
			makespan = end
		}

		if entries != nil {
			entries[v] = schedule.Entry{Task: v, Start: start, End: end}
		}
		placed++

		for _, p := range chosen {
			avail[p] = end
			mark[p] = true
		}
		// The chosen processors, in ascending index order, fall out of the
		// mark-bitmap scan below for free; carve the entry's Procs from the
		// arena and fill it as the scan visits them — no sort, no per-task
		// allocation.
		var procsOut []int
		if recordProcs {
			procsOut = procArena[arenaUsed : arenaUsed+s : arenaUsed+s]
			arenaUsed += s
		}
		emitted := 0
		// Restore order: the updated processors all share avail == end, so
		// among themselves they order by index — which the mark bitmap
		// yields directly with an ascending scan, no sort — and one merge
		// pass with the untouched, still-sorted tail restores the invariant
		// in O(P).
		merged := scratch[:0]
		rest := order[s:]
		j, p, remaining := 0, 0, s
		for remaining > 0 && j < len(rest) {
			for !mark[p] {
				p++
			}
			r := rest[j]
			//schedlint:allow floateq -- exact tie-break: equal availability resolves by processor index, which is what makes "the first processor set" deterministic
			if avail[p] < avail[r] || (avail[p] == avail[r] && p < r) {
				merged = append(merged, p)
				mark[p] = false
				if recordProcs {
					procsOut[emitted] = p
					emitted++
				}
				p++
				remaining--
			} else {
				merged = append(merged, r)
				j++
			}
		}
		for remaining > 0 {
			for !mark[p] {
				p++
			}
			merged = append(merged, p)
			mark[p] = false
			if recordProcs {
				procsOut[emitted] = p
				emitted++
			}
			p++
			remaining--
		}
		merged = append(merged, rest[j:]...)
		copy(order, merged)
		if recordProcs {
			entries[v].Procs = procsOut
		}

		for _, w := range g.Successors(v) {
			if end > readyTime[w] {
				readyTime[w] = end
			}
			indeg[w]--
			if indeg[w] == 0 {
				ready.push(w)
			}
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

// prefilterReject reports whether two O(V) admissible lower bounds on the
// makespan already exceed bound, in which case the in-loop rejection check
// is guaranteed to fire and the map loop can be skipped entirely:
//
//   - Critical-path bound: max_v bl(v). The first task popped by the map
//     loop is the source with the largest bottom level, started at time 0,
//     so its in-loop check start+bl = max bl fires iff this bound exceeds
//     the threshold — the prefilter is exact for this bound, no slack
//     needed.
//   - Area bound: Σ s(v)·T(v,s(v)) / P. All work must fit into P processors
//     within the makespan, so makespan ≥ area/P; compared with relative
//     slack areaSlack to absorb summation rounding (see above).
//
// Both are true lower bounds, so a prefilter rejection implies the in-loop
// check would have rejected as well: results with the prefilter on and off
// are bit-identical.
//
//schedlint:hotpath
func prefilterReject(tab *model.Table, procs int, alloc schedule.Allocation, bl []float64, bound float64) bool {
	maxBL := 0.0
	for _, b := range bl {
		if b > maxBL {
			maxBL = b
		}
	}
	if maxBL > bound {
		return true
	}
	area := 0.0
	for v, s := range alloc {
		area += float64(s) * tab.Time(dag.TaskID(v), s)
	}
	return area > bound*float64(procs)*(1+areaSlack)
}

// blHeap is a max-heap of ready tasks ordered by bottom level (largest
// first), with task ID as the deterministic tie-break. It replaces the
// container/heap implementation: the interface-based heap boxes every TaskID
// pushed through `any`, which allocates for IDs >= 256 — unacceptable on the
// fitness path. Because (bottom level desc, ID asc) is a strict total order,
// the pop sequence of any correct heap is identical, so swapping the
// implementation preserves schedules bit for bit.
type blHeap struct {
	bl    []float64
	items []dag.TaskID
}

func (h *blHeap) len() int { return len(h.items) }

// before reports whether task a runs before task b: larger bottom level
// first, smaller ID on ties.
//
//schedlint:hotpath
func (h *blHeap) before(a, b dag.TaskID) bool {
	//schedlint:allow floateq -- exact tie-break: (bottom level desc, ID asc) must be a strict total order for the pop sequence to be schedule-preserving
	if h.bl[a] != h.bl[b] {
		return h.bl[a] > h.bl[b]
	}
	return a < b
}

//schedlint:hotpath
func (h *blHeap) push(v dag.TaskID) {
	h.items = append(h.items, v)
	i := len(h.items) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.before(h.items[i], h.items[parent]) {
			break
		}
		h.items[i], h.items[parent] = h.items[parent], h.items[i]
		i = parent
	}
}

//schedlint:hotpath
func (h *blHeap) pop() dag.TaskID {
	top := h.items[0]
	last := len(h.items) - 1
	h.items[0] = h.items[last]
	h.items = h.items[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		best := i
		if l < last && h.before(h.items[l], h.items[best]) {
			best = l
		}
		if r < last && h.before(h.items[r], h.items[best]) {
			best = r
		}
		if best == i {
			break
		}
		h.items[i], h.items[best] = h.items[best], h.items[i]
		i = best
	}
	return top
}
