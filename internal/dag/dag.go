// Package dag implements the parallel task graph (PTG) model of Hunold and
// Lepping, "Evolutionary Scheduling of Parallel Tasks Graphs onto Homogeneous
// Clusters" (CLUSTER 2011), Section II-A.
//
// A PTG is a directed acyclic graph G = (V, E). Nodes represent moldable
// parallel tasks; edges represent data or control dependencies. Each task
// carries a computational cost in floating-point operations (FLOP), the size
// of the dataset it operates on (in doubles), and the Amdahl fraction alpha of
// non-parallelizable code used by the execution-time models.
//
// Graphs are immutable once built: construct them with a Builder, which
// validates acyclicity and edge sanity at Build time. All analysis routines
// (topological order, precedence levels, bottom/top levels, critical path)
// operate on the immutable Graph and are safe for concurrent use.
package dag

import (
	"errors"
	"fmt"
	"slices"
	"sync"
)

// TaskID identifies a task inside one Graph. IDs are dense: a graph with V
// tasks uses IDs 0..V-1, so a TaskID doubles as an index into per-task slices
// such as allocation vectors.
type TaskID int

// Task holds the static properties of one moldable task. The dynamic
// properties (processor allocation, start time) live in allocation vectors and
// schedules, not here.
type Task struct {
	// ID is the dense task identifier, equal to the task's index in the graph.
	ID TaskID
	// Name is an optional human-readable label (e.g. "butterfly-2-3").
	Name string
	// Flops is the computational cost of the task in floating-point
	// operations. The sequential execution time on a processor with speed
	// GFLOPS is Flops / (speed * 1e9).
	Flops float64
	// Alpha is the fraction of non-parallelizable code, 0 <= Alpha <= 1,
	// used by Amdahl-law based execution-time models (Section IV-B).
	Alpha float64
	// Data is the size of the dataset the task operates on, measured in
	// doubles (8 bytes). Only informative; cost generators derive Flops
	// from it (Section IV-C).
	Data float64
}

// Edge is a precedence constraint: Dst cannot start before Src has completed.
type Edge struct {
	Src, Dst TaskID
}

// Graph is an immutable parallel task graph. The zero value is an empty graph;
// use a Builder to create non-empty graphs.
//
// Adjacency is stored in compressed sparse row (CSR) form: one flat backing
// array per direction plus an offsets array, so the successor lists of all
// tasks are contiguous in memory. The fitness evaluation sweeps every
// adjacency list once per call (the bottom-level sweep plus the map loop),
// and a slice-of-slices layout costs one pointer chase and a potential cache
// miss per task; CSR turns the whole sweep into a linear scan of two arrays.
// Successors/Predecessors return subslices of the backing arrays, so the API
// is unchanged.
type Graph struct {
	name  string
	tasks []Task
	// succOff/predOff have NumTasks()+1 entries; the neighbors of task v in
	// direction d are dAdj[dOff[v]:dOff[v+1]], sorted by ID ascending.
	succOff []int32
	succAdj []TaskID
	predOff []int32
	predAdj []TaskID
	edges   int
	// topo and indeg are computed once at Build time and shared by every
	// analysis pass. Immutability makes this safe: the adjacency never
	// changes, so neither do the topological order nor the indegrees. Both
	// are on the fitness-evaluation hot path (millions of mapping calls per
	// experiment), which is why they are cached rather than recomputed.
	topo  []TaskID
	indeg []int
	// Precedence levels are likewise a pure function of the immutable
	// adjacency, but unlike topo they are only needed by the level-bounded
	// allocators — so they are computed lazily, once, on first use. On the
	// serving path one interned Graph instance answers every repeat request,
	// and memoizing here turns the per-request MCPA/Delta-CP seeding from
	// O(V) allocations into a pointer read.
	plOnce    sync.Once
	plLevel   []int
	plByLevel [][]TaskID
}

// buildCSR flattens a slice-of-slices adjacency into CSR form. Each row is
// sorted ascending, preserving the deterministic neighbor order the
// slice-of-slices representation guaranteed, and repeated neighbors are
// dropped, which is how the Builder ignores duplicate edges. The rows of adj
// are sorted and compacted in place.
func buildCSR(adj [][]TaskID) (off []int32, flat []TaskID) {
	off = make([]int32, len(adj)+1)
	total := 0
	for i, row := range adj {
		slices.Sort(row)
		adj[i] = slices.Compact(row)
		total += len(adj[i])
		off[i+1] = int32(total)
	}
	flat = make([]TaskID, total)
	for i, row := range adj {
		copy(flat[off[i]:off[i+1]], row)
	}
	return off, flat
}

// Builder incrementally assembles a Graph. It is not safe for concurrent use.
type Builder struct {
	name  string
	tasks []Task
	succ  [][]TaskID
	pred  [][]TaskID
	err   error
}

// NewBuilder returns a Builder for a graph with the given name.
func NewBuilder(name string) *Builder {
	return &Builder{name: name}
}

// AddTask appends a task and returns its ID. The ID recorded inside the task
// argument is overwritten with the assigned dense ID.
func (b *Builder) AddTask(t Task) TaskID {
	id := TaskID(len(b.tasks))
	t.ID = id
	if t.Flops < 0 {
		b.fail(fmt.Errorf("dag: task %d (%q) has negative flops %g", id, t.Name, t.Flops))
	}
	if t.Alpha < 0 || t.Alpha > 1 {
		b.fail(fmt.Errorf("dag: task %d (%q) has alpha %g outside [0,1]", id, t.Name, t.Alpha))
	}
	b.tasks = append(b.tasks, t)
	b.succ = append(b.succ, nil)
	b.pred = append(b.pred, nil)
	return id
}

// AddEdge records the precedence constraint src -> dst. Duplicate edges are
// ignored; self-loops and out-of-range endpoints are errors reported by Build.
func (b *Builder) AddEdge(src, dst TaskID) {
	if src < 0 || int(src) >= len(b.tasks) || dst < 0 || int(dst) >= len(b.tasks) {
		b.fail(fmt.Errorf("dag: edge (%d,%d) references unknown task (have %d tasks)", src, dst, len(b.tasks)))
		return
	}
	if src == dst {
		b.fail(fmt.Errorf("dag: self-loop on task %d", src))
		return
	}
	b.succ[src] = append(b.succ[src], dst)
	b.pred[dst] = append(b.pred[dst], src)
}

func (b *Builder) fail(err error) {
	if b.err == nil {
		b.err = err
	}
}

// Build validates the accumulated tasks and edges and returns the immutable
// Graph. It fails if any AddTask/AddEdge call was invalid or if the edge set
// contains a cycle.
func (b *Builder) Build() (*Graph, error) {
	if b.err != nil {
		return nil, b.err
	}
	g := &Graph{
		name:  b.name,
		tasks: append([]Task(nil), b.tasks...),
	}
	// buildCSR sorts each segment and drops repeats, giving deterministic
	// adjacency order regardless of insertion order.
	g.succOff, g.succAdj = buildCSR(b.succ)
	g.predOff, g.predAdj = buildCSR(b.pred)
	g.edges = len(g.succAdj)
	g.indeg = make([]int, len(g.tasks))
	for i := range g.tasks {
		g.indeg[i] = int(g.predOff[i+1] - g.predOff[i])
	}
	topo, err := g.computeTopo()
	if err != nil {
		return nil, err
	}
	g.topo = topo
	return g, nil
}

// MustBuild is Build for graphs known to be valid at compile time (tests,
// examples). It panics on error.
func (b *Builder) MustBuild() *Graph {
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

// Name returns the graph's label.
func (g *Graph) Name() string { return g.name }

// NumTasks returns V, the number of tasks.
func (g *Graph) NumTasks() int { return len(g.tasks) }

// NumEdges returns |E|.
func (g *Graph) NumEdges() int { return g.edges }

// Task returns the task with the given ID. It panics on out-of-range IDs,
// consistent with slice indexing.
func (g *Graph) Task(id TaskID) Task { return g.tasks[id] }

// Tasks returns a copy of the task list in ID order.
func (g *Graph) Tasks() []Task { return append([]Task(nil), g.tasks...) }

// Successors returns the tasks that directly depend on id. The returned slice
// is a subslice of the graph's CSR backing array (full slice expression, so
// appends cannot clobber neighbors) and must not be modified.
//
//schedlint:hotpath
func (g *Graph) Successors(id TaskID) []TaskID {
	lo, hi := g.succOff[id], g.succOff[id+1]
	return g.succAdj[lo:hi:hi]
}

// Predecessors returns the direct dependencies of id. The returned slice is a
// subslice of the graph's CSR backing array and must not be modified.
//
//schedlint:hotpath
func (g *Graph) Predecessors(id TaskID) []TaskID {
	lo, hi := g.predOff[id], g.predOff[id+1]
	return g.predAdj[lo:hi:hi]
}

// Edges returns all edges in deterministic (src, dst) order.
func (g *Graph) Edges() []Edge {
	es := make([]Edge, 0, g.edges)
	for src := range g.tasks {
		for _, dst := range g.Successors(TaskID(src)) {
			es = append(es, Edge{TaskID(src), dst})
		}
	}
	return es
}

// Sources returns the tasks without predecessors, in ID order.
func (g *Graph) Sources() []TaskID {
	var out []TaskID
	for i := range g.tasks {
		if g.predOff[i] == g.predOff[i+1] {
			out = append(out, TaskID(i))
		}
	}
	return out
}

// Sinks returns the tasks without successors, in ID order.
func (g *Graph) Sinks() []TaskID {
	var out []TaskID
	for i := range g.tasks {
		if g.succOff[i] == g.succOff[i+1] {
			out = append(out, TaskID(i))
		}
	}
	return out
}

// ErrCycle reports that the edge set is not acyclic.
var ErrCycle = errors.New("dag: graph contains a cycle")

// TopologicalOrder returns the task IDs in a deterministic topological order
// (Kahn's algorithm with a min-ID tie-break), or ErrCycle. The order is
// computed once at Build time; this returns a fresh copy the caller may
// modify.
func (g *Graph) TopologicalOrder() ([]TaskID, error) {
	if g.topo != nil || len(g.tasks) == 0 {
		return append([]TaskID(nil), g.topo...), nil
	}
	return g.computeTopo()
}

// topoOrder returns the cached topological order without copying. Internal
// analysis passes use it read-only; a Graph that passed Build always has it.
func (g *Graph) topoOrder() []TaskID {
	if g.topo == nil && len(g.tasks) > 0 {
		// Only reachable for graphs constructed without Build (not possible
		// outside this package); fall back to a fresh computation.
		topo, err := g.computeTopo()
		if err != nil {
			panic("dag: topoOrder on cyclic graph: " + err.Error())
		}
		return topo
	}
	return g.topo
}

// Indegrees returns the number of predecessors of every task, indexed by
// TaskID. The returned slice is shared and must not be modified; callers that
// consume indegrees (e.g. Kahn-style ready tracking) must copy it first.
func (g *Graph) Indegrees() []int { return g.indeg }

// computeTopo runs Kahn's algorithm from scratch.
func (g *Graph) computeTopo() ([]TaskID, error) {
	n := len(g.tasks)
	indeg := make([]int, n)
	for i := range g.tasks {
		indeg[i] = int(g.predOff[i+1] - g.predOff[i])
	}
	// Min-heap over task IDs keeps the order deterministic and stable.
	h := &idHeap{a: make([]TaskID, 0, n)}
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			h.push(TaskID(i))
		}
	}
	order := make([]TaskID, 0, n)
	for h.len() > 0 {
		v := h.pop()
		order = append(order, v)
		for _, w := range g.Successors(v) {
			indeg[w]--
			if indeg[w] == 0 {
				h.push(w)
			}
		}
	}
	if len(order) != n {
		return nil, ErrCycle
	}
	return order, nil
}

// PrecedenceLevels returns, for each task, its depth from the sources
// (sources have level 0; otherwise 1 + max over predecessors), together with
// the tasks grouped by level. This is the "precedence level" of Section III-B
// used by the Delta-critical heuristic and by MCPA's level bound.
//
// The result is computed once and cached (the graph is immutable); callers
// share the returned slices and must not modify them.
func (g *Graph) PrecedenceLevels() (level []int, byLevel [][]TaskID) {
	g.plOnce.Do(func() {
		order := g.topoOrder()
		lv := make([]int, len(g.tasks))
		maxLevel := 0
		for _, v := range order {
			l := 0
			for _, p := range g.Predecessors(v) {
				if lv[p]+1 > l {
					l = lv[p] + 1
				}
			}
			lv[v] = l
			if l > maxLevel {
				maxLevel = l
			}
		}
		byLv := make([][]TaskID, maxLevel+1)
		for i := range g.tasks {
			byLv[lv[i]] = append(byLv[lv[i]], TaskID(i))
		}
		g.plLevel, g.plByLevel = lv, byLv
	})
	return g.plLevel, g.plByLevel
}

// CostFunc maps a task to its (current) execution time. Analysis routines take
// a CostFunc so they work with any allocation and any execution-time model.
type CostFunc func(id TaskID) float64

// BottomLevels computes bl(v) = cost(v) + max over successors bl(succ) for
// every task: the length of the longest path from v to a sink including v's
// own execution time (footnote 1 of the paper).
func (g *Graph) BottomLevels(cost CostFunc) []float64 {
	bl := make([]float64, len(g.tasks))
	order := g.topoOrder()
	// Walk the CSR arrays directly: the reverse-topological sweep touches
	// every successor list once, and indexing succAdj through succOff keeps
	// the whole pass on two contiguous arrays.
	off, adj := g.succOff, g.succAdj
	for i := len(order) - 1; i >= 0; i-- {
		v := order[i]
		maxSucc := 0.0
		for _, s := range adj[off[v]:off[v+1]] {
			if bl[s] > maxSucc {
				maxSucc = bl[s]
			}
		}
		bl[v] = cost(v) + maxSucc
	}
	return bl
}

// TopLevels computes tl(v) = max over predecessors (tl(pred) + cost(pred)),
// the earliest time v could start if processors were unlimited.
func (g *Graph) TopLevels(cost CostFunc) []float64 {
	order := g.topoOrder()
	tl := make([]float64, len(g.tasks))
	for _, v := range order {
		maxPred := 0.0
		for _, p := range g.Predecessors(v) {
			if t := tl[p] + cost(p); t > maxPred {
				maxPred = t
			}
		}
		tl[v] = maxPred
	}
	return tl
}

// CriticalPath returns one longest (by cost) source-to-sink path and its
// length. Ties break toward the smaller task ID, so the result is
// deterministic.
func (g *Graph) CriticalPath(cost CostFunc) (path []TaskID, length float64) {
	bl := g.BottomLevels(cost)
	// Entry task: source with the largest bottom level.
	cur := TaskID(-1)
	for _, s := range g.Sources() {
		if cur == -1 || bl[s] > bl[cur] {
			cur = s
		}
	}
	if cur == -1 {
		return nil, 0
	}
	length = bl[cur]
	for {
		path = append(path, cur)
		next := TaskID(-1)
		for _, s := range g.Successors(cur) {
			if next == -1 || bl[s] > bl[next] {
				next = s
			}
		}
		if next == -1 {
			return path, length
		}
		cur = next
	}
}

// CriticalPathLength returns the length of the critical path: max bottom level
// over all tasks.
func (g *Graph) CriticalPathLength(cost CostFunc) float64 {
	max := 0.0
	for _, b := range g.BottomLevels(cost) {
		if b > max {
			max = b
		}
	}
	return max
}

// TotalWork returns the sum of cost(v) over all tasks.
func (g *Graph) TotalWork(cost CostFunc) float64 {
	sum := 0.0
	for i := range g.tasks {
		sum += cost(TaskID(i))
	}
	return sum
}

// MaxWidth returns the largest number of tasks in any precedence level, an
// upper bound on task parallelism.
func (g *Graph) MaxWidth() int {
	_, byLevel := g.PrecedenceLevels()
	w := 0
	for _, l := range byLevel {
		if len(l) > w {
			w = len(l)
		}
	}
	return w
}

// Depth returns the number of precedence levels.
func (g *Graph) Depth() int {
	_, byLevel := g.PrecedenceLevels()
	return len(byLevel)
}

// idHeap is a minimal binary min-heap over TaskIDs; container/heap's interface
// indirection is unnecessary for this single use.
type idHeap struct{ a []TaskID }

func (h *idHeap) len() int { return len(h.a) }

func (h *idHeap) push(v TaskID) {
	h.a = append(h.a, v)
	i := len(h.a) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if h.a[parent] <= h.a[i] {
			break
		}
		h.a[parent], h.a[i] = h.a[i], h.a[parent]
		i = parent
	}
}

func (h *idHeap) pop() TaskID {
	top := h.a[0]
	last := len(h.a) - 1
	h.a[0] = h.a[last]
	h.a = h.a[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < last && h.a[l] < h.a[small] {
			small = l
		}
		if r < last && h.a[r] < h.a[small] {
			small = r
		}
		if small == i {
			break
		}
		h.a[i], h.a[small] = h.a[small], h.a[i]
		i = small
	}
	return top
}
