// Package alloc implements the allocation step of the two-step scheduling
// algorithms the paper builds on and compares against (Section II-B):
//
//   - CPA    — Critical Path and Area-based allocation (Rădulescu & van
//     Gemund, ICPP 2001), the common ancestor of the family.
//   - HCPA   — Heterogeneous CPA (N'Takpé & Suter, ICPADS 2006): CPA run on a
//     virtual reference cluster; degenerates to CPA on one homogeneous
//     cluster (DESIGN.md item 4.5).
//   - MCPA   — Modified CPA (Bansal, Kumar & Singh, ParCo 2006): CPA with the
//     per-precedence-level allocation bound that preserves task parallelism.
//   - MCPA2  — a variant in the spirit of Hunold (CCGrid 2010) that lets
//     critical tasks reclaim processors from non-critical tasks of the same
//     level once the level budget is exhausted.
//   - DeltaCP — the paper's own seeding heuristic (Section III-B): share all
//     processors among the Δ-critical tasks of each precedence level.
//   - OneEach / Random — trivial allocators used as EA seeds and baselines.
//
// Allocators only produce allocation vectors; mapping them onto processors is
// package listsched's job.
package alloc

import (
	"fmt"
	"math/rand"

	"emts/internal/dag"
	"emts/internal/listsched"
	"emts/internal/model"
	"emts/internal/schedule"
)

// Allocator computes a processor allocation for a PTG whose execution times
// are given by a model table (which also fixes the processor count).
//
// EMTS runs its starting heuristics concurrently (core.Params.Seeds), so
// Allocate may be called from several goroutines at once, on the same graph
// and table and on different Allocator values. Allocate must not modify g or
// tab and must not share mutable state between calls; every allocator in
// this package is a pure function of its inputs.
type Allocator interface {
	// Name identifies the allocator in reports ("cpa", "mcpa", ...).
	Name() string
	// Allocate returns one processor count per task, each in [1, tab.Procs()].
	Allocate(g *dag.Graph, tab *model.Table) (schedule.Allocation, error)
}

// OneEach allocates a single processor to every task — the starting point of
// the CPA family and a pure task-parallel baseline.
type OneEach struct{}

// Name implements Allocator.
func (OneEach) Name() string { return "one" }

// Allocate implements Allocator.
func (OneEach) Allocate(g *dag.Graph, tab *model.Table) (schedule.Allocation, error) {
	return schedule.Ones(g.NumTasks()), nil
}

// Random allocates every task a uniform random processor count in
// [1, tab.Procs()], reproducibly from Seed. It provides the random starting
// individuals of the EA population.
type Random struct {
	// Seed makes the allocation reproducible.
	Seed int64
}

// Name implements Allocator.
func (Random) Name() string { return "random" }

// Allocate implements Allocator.
func (r Random) Allocate(g *dag.Graph, tab *model.Table) (schedule.Allocation, error) {
	rng := rand.New(rand.NewSource(r.Seed))
	a := make(schedule.Allocation, g.NumTasks())
	for i := range a {
		a[i] = 1 + rng.Intn(tab.Procs())
	}
	return a, nil
}

// cpaLoop is the CPA allocation loop of Rădulescu & van Gemund, shared by
// CPA, HCPA, MCPA, MCPA2 and BiCPA. Starting from one processor per task,
// each growth step grows the critical-path task whose increment most
// reduces its average area T(v,s)/s. A task is only grown when that
// reduction is strictly positive — under non-monotonic models (Model 2) this
// makes the procedure stall early with small allocations, exactly the
// behaviour the paper reports in Section V-B.
//
// growable reports whether a task's allocation may be incremented given the
// current allocation; it is the hook through which MCPA adds its level
// bound. onGrow is called after each increment so bound bookkeeping can be
// updated; it returns a task that gives one processor back in exchange (the
// loop takes it), or -1. picked, when set, sees each step's chosen task
// before it grows (CPAPair forks MCPA off there).
type cpaLoop struct {
	g        *dag.Graph
	tab      *model.Table
	s        schedule.Allocation
	growable func(v dag.TaskID, s schedule.Allocation) bool
	onGrow   func(v dag.TaskID, s schedule.Allocation) dag.TaskID
	picked   func(v dag.TaskID)
	// area = Σ s(v)·T(v, s(v)), maintained incrementally. A task that gives
	// a processor back keeps its old term: MCPA2's stop rule has always read
	// the area that way, and the CPA golden corpus pins it.
	area    float64
	levels  bottomLevels
	sources []dag.TaskID
	// steps counts growth steps. Each grows one allocation by one, so
	// without give-backs there are at most V·(P−1); the loop stops at V·P.
	steps int
}

func newCPALoop(g *dag.Graph, tab *model.Table, growable func(v dag.TaskID, s schedule.Allocation) bool, onGrow func(v dag.TaskID, s schedule.Allocation) dag.TaskID) *cpaLoop {
	s := schedule.Ones(g.NumTasks())
	area := 0.0
	for i := 0; i < g.NumTasks(); i++ {
		area += tab.Time(dag.TaskID(i), 1)
	}
	return &cpaLoop{
		g:        g,
		tab:      tab,
		s:        s,
		growable: growable,
		onGrow:   onGrow,
		area:     area,
		levels:   newBottomLevels(g, tab, s),
		sources:  g.Sources(),
	}
}

// cpaCore runs the CPA loop to CPA's own stop rule, T_CP ≤ area/P, and
// returns the allocation.
func cpaCore(g *dag.Graph, tab *model.Table, growable func(v dag.TaskID, s schedule.Allocation) bool, onGrow func(v dag.TaskID, s schedule.Allocation) dag.TaskID) schedule.Allocation {
	c := newCPALoop(g, tab, growable, onGrow)
	c.grow(tab.Procs())
	return c.s
}

// grow takes growth steps until the critical-path length T_CP is at most
// the average area area/q, no critical-path task can beneficially grow, or
// the loop has taken V·P steps; CPA stops at q = P. It reports whether it
// took a step.
func (c *cpaLoop) grow(q int) bool {
	g, tab, s := c.g, c.tab, c.s
	procs := tab.Procs()
	grew := false
	for ; c.steps < g.NumTasks()*procs; c.steps++ {
		bl := c.levels.bl
		// The critical path starts at the source with the largest bottom
		// level and follows the successor with the largest one, ties toward
		// the smaller task ID as in dag.CriticalPath. Times are positive, so
		// no task's bottom level is below a successor's: the largest bottom
		// level of all is that source's, which makes it T_CP.
		cur := dag.TaskID(-1)
		for _, src := range c.sources {
			if cur == -1 || bl[src] > bl[cur] {
				cur = src
			}
		}
		if bl[cur] <= c.area/float64(q) {
			break
		}
		best := dag.TaskID(-1)
		bestGain := 0.0
		for cur != -1 {
			if sv := s[cur]; sv < procs && (c.growable == nil || c.growable(cur, s)) {
				gain := tab.Time(cur, sv)/float64(sv) - tab.Time(cur, sv+1)/float64(sv+1)
				if gain > bestGain {
					bestGain = gain
					best = cur
				}
			}
			next := dag.TaskID(-1)
			for _, w := range g.Successors(cur) {
				if next == -1 || bl[w] > bl[next] {
					next = w
				}
			}
			cur = next
		}
		if best == -1 {
			break // no critical-path task can beneficially grow
		}
		if c.picked != nil {
			c.picked(best)
		}
		c.area -= float64(s[best]) * tab.Time(best, s[best])
		s[best]++
		c.area += float64(s[best]) * tab.Time(best, s[best])
		c.levels.mark(best)
		if c.onGrow != nil {
			if d := c.onGrow(best, s); d != -1 {
				s[d]--
				c.levels.mark(d)
			}
		}
		c.levels.settle()
		grew = true
	}
	return grew
}

// fork returns an independent copy of the loop, between two steps, that
// continues under the given hooks. It shares only what no step writes: the
// graph, the table, the topological order and the sources.
func (c *cpaLoop) fork(growable func(v dag.TaskID, s schedule.Allocation) bool, onGrow func(v dag.TaskID, s schedule.Allocation) dag.TaskID) *cpaLoop {
	f := *c
	f.growable, f.onGrow, f.picked = growable, onGrow, nil
	f.s = c.s.Clone()
	f.levels.s = f.s
	f.levels.bl = append([]float64(nil), c.levels.bl...)
	f.levels.maxSucc = append([]float64(nil), c.levels.maxSucc...)
	f.levels.marked = make([]bool, len(c.levels.marked)) // settled: nothing marked
	return &f
}

// bottomLevels keeps the bottom levels of a changing allocation equal, bit
// for bit, to a full sweep of it (dag.Graph.BottomLevels with
// listsched.Cost), while recomputing only the tasks whose value can change:
// the ones whose allocation changed, and the predecessors of a changed task
// whose largest successor value it held or now exceeds.
type bottomLevels struct {
	g   *dag.Graph
	tab *model.Table
	s   schedule.Allocation
	bl  []float64
	// maxSucc is each task's largest successor bottom level (0 for a sink)
	// as of its last computation.
	maxSucc []float64
	// order is the topological order and pos each task's place in it.
	// marked flags the places of the tasks waiting for recomputation; there
	// are pending of them, none after place last.
	order   []dag.TaskID
	pos     []int
	marked  []bool
	pending int
	last    int
}

// newBottomLevels computes the bottom levels of s. With every task marked,
// the first settle is the full sweep.
func newBottomLevels(g *dag.Graph, tab *model.Table, s schedule.Allocation) bottomLevels {
	n := g.NumTasks()
	order, _ := g.TopologicalOrder() // a built graph is acyclic
	b := bottomLevels{
		g:       g,
		tab:     tab,
		s:       s,
		bl:      make([]float64, n),
		maxSucc: make([]float64, n),
		order:   order,
		pos:     make([]int, n),
		marked:  make([]bool, n),
	}
	for i, v := range order {
		b.pos[v] = i
		b.mark(v)
	}
	b.settle()
	return b
}

// mark queues v for recomputation.
func (b *bottomLevels) mark(v dag.TaskID) {
	p := b.pos[v]
	if b.marked[p] {
		return
	}
	b.marked[p] = true
	b.pending++
	if p > b.last {
		b.last = p
	}
}

// settle recomputes the marked tasks in reverse topological order, as the
// sweep visits them, with the sweep's own expression T(v, s(v)) + max over
// successors. Every successor of a task comes later in the order, so each
// recomputation reads final successor values. A task whose value changed
// marks the predecessors whose largest successor value it held or now
// exceeds, which come earlier; the others keep their largest successor
// value and so their own. The walk stops at the last marked task.
func (b *bottomLevels) settle() {
	for p := b.last; b.pending > 0; p-- {
		if !b.marked[p] {
			continue
		}
		b.marked[p] = false
		b.pending--
		v := b.order[p]
		maxSucc := 0.0
		for _, w := range b.g.Successors(v) {
			if b.bl[w] > maxSucc {
				maxSucc = b.bl[w]
			}
		}
		b.maxSucc[v] = maxSucc
		val, old := b.tab.Time(v, b.s[v])+maxSucc, b.bl[v]
		//schedlint:allow floateq -- bit-identity with the full sweep: an unchanged value leaves every ancestor's value unchanged
		if val == old {
			continue
		}
		b.bl[v] = val
		for _, u := range b.g.Predecessors(v) {
			//schedlint:allow floateq -- u's largest successor value moves only if v held it exactly or now exceeds it
			if val > b.maxSucc[u] || old == b.maxSucc[u] {
				b.mark(u)
			}
		}
	}
	b.last = 0
}

// CPA is the Critical Path and Area-based allocator of Rădulescu & van
// Gemund. Section III-E gives its allocation procedure as O(V(V+E)P): up to
// V·P growth steps, each with a bottom-level sweep. cpaLoop sweeps once and
// then recomputes per step only the bottom levels that change.
type CPA struct{}

// Name implements Allocator.
func (CPA) Name() string { return "cpa" }

// Allocate implements Allocator.
func (CPA) Allocate(g *dag.Graph, tab *model.Table) (schedule.Allocation, error) {
	if err := checkInputs(g, tab); err != nil {
		return nil, err
	}
	return cpaCore(g, tab, nil, nil), nil
}

// HCPA is the allocation procedure of Heterogeneous CPA (N'Takpé & Suter).
// HCPA computes allocations on a virtual reference cluster and translates
// them to each real cluster in proportion to processor speed. On one
// homogeneous cluster, the paper's setting, the reference cluster is that
// cluster, the translation is the identity and HCPA's allocation is CPA's,
// which is what Allocate returns.
type HCPA struct{}

// Name implements Allocator.
func (HCPA) Name() string { return "hcpa" }

// Allocate implements Allocator.
func (HCPA) Allocate(g *dag.Graph, tab *model.Table) (schedule.Allocation, error) {
	return CPA{}.Allocate(g, tab)
}

// MCPA is the Modified CPA allocator of Bansal, Kumar & Singh: identical to
// CPA except that a task may only grow while the summed allocation of its
// precedence level stays within P, which preserves the task parallelism of
// regular (layered) PTGs — the reason MCPA is hard to beat on FFT, Strassen,
// and layered graphs (Section V-A).
type MCPA struct{}

// Name implements Allocator.
func (MCPA) Name() string { return "mcpa" }

// Allocate implements Allocator.
func (MCPA) Allocate(g *dag.Graph, tab *model.Table) (schedule.Allocation, error) {
	if err := checkInputs(g, tab); err != nil {
		return nil, err
	}
	b := newLevelBound(g, tab.Procs())
	return cpaCore(g, tab, b.growable, b.onGrow), nil
}

// levelBound is MCPA's precedence-level bound as CPA loop hooks: a task may
// grow while the allocations of its level sum to less than P.
type levelBound struct {
	level []int
	sum   []int
	procs int
}

func newLevelBound(g *dag.Graph, procs int) *levelBound {
	level, byLevel := g.PrecedenceLevels()
	sum := make([]int, len(byLevel))
	for l, tasks := range byLevel {
		sum[l] = len(tasks) // every task starts with 1 processor
	}
	return &levelBound{level: level, sum: sum, procs: procs}
}

func (b *levelBound) growable(v dag.TaskID, _ schedule.Allocation) bool {
	return b.sum[b.level[v]] < b.procs
}

func (b *levelBound) onGrow(v dag.TaskID, _ schedule.Allocation) dag.TaskID {
	b.sum[b.level[v]]++
	return -1
}

// CPAPair returns MCPA{}'s and HCPA{}'s allocations, bit for bit, from one
// CPA loop where the two agree.
//
// MCPA's loop is CPA's with the level bound on the tasks that may grow. At a
// step where CPA's pick passes the bound, MCPA picks the same task: it takes
// the first largest gain among a subset of CPA's candidates that holds CPA's
// pick, whose gain no earlier candidate reaches. Both then grow that task and
// reach the same state, so they stop at the same step. The pair therefore
// runs CPA's loop, and at the first step where the bound excludes CPA's pick
// it copies the loop state and hands fork a function that runs the rest of
// MCPA's loop from there, redoing that step under the bound, and returns
// MCPA's allocation. That function may run on another goroutine, concurrently
// with the rest of CPAPair, which finishes CPA's loop and returns HCPA's
// allocation with a nil mcpa. When the bound never excludes a pick, fork is
// not called and mcpa is CPA's allocation. With a nil fork, CPAPair runs the
// rest of MCPA's loop itself, after CPA's, and always returns both.
func CPAPair(g *dag.Graph, tab *model.Table, fork func(mcpa func() schedule.Allocation)) (mcpa, hcpa schedule.Allocation, err error) {
	if err := checkInputs(g, tab); err != nil {
		return nil, nil, err
	}
	procs := tab.Procs()
	b := newLevelBound(g, procs)
	var rest func() schedule.Allocation
	c := newCPALoop(g, tab, nil, func(v dag.TaskID, s schedule.Allocation) dag.TaskID {
		if rest == nil {
			b.onGrow(v, s)
		}
		return -1
	})
	c.picked = func(v dag.TaskID) {
		if rest != nil || b.growable(v, c.s) {
			return
		}
		m := c.fork(b.growable, b.onGrow)
		rest = func() schedule.Allocation {
			m.grow(procs)
			return m.s
		}
		if fork != nil {
			fork(rest)
		}
	}
	c.grow(procs)
	switch {
	case rest == nil:
		mcpa = c.s.Clone()
	case fork == nil:
		mcpa = rest()
	}
	return mcpa, c.s, nil
}

// MCPA2 extends MCPA in the spirit of Hunold (CCGrid 2010): when a critical
// task's precedence level has exhausted its processor budget, MCPA2 reclaims
// one processor from the least-critical task of the same level that holds
// more than one (instead of refusing to grow, as MCPA does). Levels whose
// width exceeds P behave exactly like MCPA.
type MCPA2 struct{}

// Name implements Allocator.
func (MCPA2) Name() string { return "mcpa2" }

// Allocate implements Allocator.
func (MCPA2) Allocate(g *dag.Graph, tab *model.Table) (schedule.Allocation, error) {
	if err := checkInputs(g, tab); err != nil {
		return nil, err
	}
	level, byLevel := g.PrecedenceLevels()
	procs := tab.Procs()
	levelSum := make([]int, len(byLevel))
	for l, tasks := range byLevel {
		levelSum[l] = len(tasks)
	}
	growable := func(v dag.TaskID, s schedule.Allocation) bool {
		if levelSum[level[v]] < procs {
			return true
		}
		// The level is full: growing v is allowed only if some other task of
		// the level can donate a processor.
		return donor(g, tab, s, byLevel[level[v]], v) != -1
	}
	onGrow := func(v dag.TaskID, s schedule.Allocation) dag.TaskID {
		if levelSum[level[v]] < procs {
			levelSum[level[v]]++
			return -1
		}
		d := donor(g, tab, s, byLevel[level[v]], v)
		if d == -1 {
			levelSum[level[v]]++ // defensive; growable should have prevented this
		}
		return d // the loop takes d's processor: levelSum unchanged, one in, one out
	}
	return cpaCore(g, tab, growable, onGrow), nil
}

// donor picks the least critical task in tasks (excluding grown) among
// those holding more than one processor, or -1. Criticality is approximated
// by the task's current execution time T(v, s(v)) rather than its bottom
// level, which keeps this O(width).
func donor(g *dag.Graph, tab *model.Table, s schedule.Allocation, tasks []dag.TaskID, grown dag.TaskID) dag.TaskID {
	best := dag.TaskID(-1)
	bestTime := 0.0
	for _, u := range tasks {
		if u == grown || s[u] <= 1 {
			continue
		}
		t := tab.Time(u, s[u])
		if best == -1 || t < bestTime {
			best = u
			bestTime = t
		}
	}
	return best
}

// DeltaCP is the paper's heuristic for creating an additional starting
// individual (Section III-B): compute bottom levels assuming one processor
// per task, then, per precedence level, share all P processors equally among
// the Δ-critical tasks of that level (those whose bottom level is at least
// Delta times the level's maximum); non-critical tasks get one processor.
type DeltaCP struct {
	// Delta in [0,1] is the minimum relative criticality; the paper uses 0.9
	// ("tasks whose criticality is only 10% smaller than the maximum value
	// are also considered critical").
	Delta float64
}

// Name implements Allocator.
func (DeltaCP) Name() string { return "delta-cp" }

// Allocate implements Allocator.
func (d DeltaCP) Allocate(g *dag.Graph, tab *model.Table) (schedule.Allocation, error) {
	if err := checkInputs(g, tab); err != nil {
		return nil, err
	}
	if d.Delta < 0 || d.Delta > 1 {
		return nil, fmt.Errorf("alloc: delta %g outside [0,1]", d.Delta)
	}
	procs := tab.Procs()
	ones := schedule.Ones(g.NumTasks())
	bl := g.BottomLevels(listsched.Cost(tab, ones))
	_, byLevel := g.PrecedenceLevels()

	s := schedule.Ones(g.NumTasks())
	for _, tasks := range byLevel {
		maxBL := 0.0
		for _, v := range tasks {
			if bl[v] > maxBL {
				maxBL = bl[v]
			}
		}
		var critical []dag.TaskID
		for _, v := range tasks {
			if bl[v] >= d.Delta*maxBL {
				critical = append(critical, v)
			}
		}
		if len(critical) == 0 {
			continue // unreachable: the max task is always critical
		}
		share := procs / len(critical)
		if share < 1 {
			share = 1
		}
		for _, v := range critical {
			s[v] = share
		}
	}
	return s, nil
}

func checkInputs(g *dag.Graph, tab *model.Table) error {
	if tab.NumTasks() != g.NumTasks() {
		return fmt.Errorf("alloc: table covers %d tasks, graph has %d", tab.NumTasks(), g.NumTasks())
	}
	if g.NumTasks() == 0 {
		return fmt.Errorf("alloc: empty graph")
	}
	return nil
}
