// Package evalpool pools listsched.Mapper evaluation arenas across EMTS
// runs. A Mapper owns ~10 per-instance scratch arrays (bottom levels, ready
// heap, processor availability, delta state — see listsched.Mapper); under
// serving load every request used to allocate one Mapper per EA worker and
// throw them all away. The pool keeps released Mappers filed by shape
// (task count, processor count): a warm checkout rebinds an existing arena to
// the request's (graph, table) pair in O(V) with zero heap allocations
// (listsched.Mapper.Rebind), which is what makes warm server requests
// allocate ~nothing on the evaluation path (DESIGN.md §12).
//
// Checked-out Mappers are exclusively owned by the caller; the pool itself is
// safe for concurrent use. Returned Mappers are Released first, so the pool
// never pins a request's graph or table — interned objects stay evictable.
package evalpool

import (
	"runtime"
	"sync"
	"sync/atomic"

	"emts/internal/dag"
	"emts/internal/listsched"
	"emts/internal/model"
)

// shape identifies an arena size class: every Mapper bound to a graph with
// `tasks` tasks on a cluster with `procs` processors uses identically sized
// arenas, so any released Mapper of the right shape serves any such request.
type shape struct {
	tasks, procs int
}

// bucket is one shape class: a LIFO stack of released Mappers plus intrusive
// LRU links (container/list would box every bucket through `any` on the
// checkout path, which the hot-path lint forbids).
type bucket struct {
	key        shape
	mappers    []*listsched.Mapper
	prev, next *bucket
}

// Pool is a bounded, shape-keyed free list of Mapper arenas.
type Pool struct {
	mu     sync.Mutex
	shapes map[shape]*bucket
	// head/tail of the shape LRU: head is most recently used. When a new
	// shape would exceed maxShapes, the least recently used bucket is
	// dropped wholesale — rotating workloads keep their hot shapes.
	head, tail  *bucket
	maxShapes   int
	maxPerShape int

	hits   atomic.Uint64
	misses atomic.Uint64
}

// Defaults bound worst-case retained memory: 64 shapes × 2·GOMAXPROCS
// Mappers, each holding O(V + P) scratch for its shape.
const defaultMaxShapes = 64

// New returns a Pool holding at most maxShapes size classes of maxPerShape
// Mappers each. Zero (or negative) values select the defaults: 64 shapes and
// 2×GOMAXPROCS Mappers per shape — enough for every EA worker of one request
// plus a second request of the same shape warming up.
func New(maxShapes, maxPerShape int) *Pool {
	if maxShapes <= 0 {
		maxShapes = defaultMaxShapes
	}
	if maxPerShape <= 0 {
		maxPerShape = 2 * runtime.GOMAXPROCS(0)
	}
	return &Pool{
		shapes:      make(map[shape]*bucket, maxShapes),
		maxShapes:   maxShapes,
		maxPerShape: maxPerShape,
	}
}

// Get checks a Mapper out of the pool, bound to (g, tab) and ready for use.
// On a pool hit the Mapper is a rebound arena (zero allocations); on a miss a
// fresh one is constructed. Either way the caller owns it exclusively until
// Put.
//
//schedlint:hotpath
func (p *Pool) Get(g *dag.Graph, tab *model.Table) (*listsched.Mapper, error) {
	k := shape{tasks: tab.NumTasks(), procs: tab.Procs()}
	var m *listsched.Mapper
	p.mu.Lock()
	if b := p.shapes[k]; b != nil {
		if n := len(b.mappers); n > 0 {
			m = b.mappers[n-1]
			b.mappers[n-1] = nil
			b.mappers = b.mappers[:n-1]
		}
		p.touch(b)
	}
	p.mu.Unlock()
	if m == nil {
		p.misses.Add(1)
		return listsched.NewMapper(g, tab)
	}
	// Rebind outside the lock: it is O(V) work that only touches the
	// checked-out Mapper.
	if err := m.Rebind(g, tab); err != nil {
		return nil, err
	}
	p.hits.Add(1)
	return m, nil
}

// Put releases m's graph/table references and returns its arenas to the
// pool. Mappers beyond the per-shape bound are dropped for the collector.
// m must not be used after Put.
//
//schedlint:hotpath
func (p *Pool) Put(m *listsched.Mapper) {
	if m == nil {
		return
	}
	m.Release()
	tasks, procs := m.Shape()
	if tasks == 0 || procs == 0 {
		return // never bound; nothing worth pooling
	}
	k := shape{tasks: tasks, procs: procs}
	p.mu.Lock()
	b := p.shapes[k]
	if b == nil {
		//schedlint:allow hotescape -- cold first-sight-of-shape path: one bucket per (tasks, procs) shape for the pool's lifetime
		b = &bucket{key: k, mappers: make([]*listsched.Mapper, 0, p.maxPerShape)}
		p.shapes[k] = b
		p.pushFront(b)
		if len(p.shapes) > p.maxShapes {
			p.evictLRU()
		}
	} else {
		p.touch(b)
	}
	if len(b.mappers) < p.maxPerShape {
		b.mappers = append(b.mappers, m)
	}
	p.mu.Unlock()
}

// Stats reports checkout hits (arena reused) and misses (fresh Mapper
// constructed) since the pool was created.
func (p *Pool) Stats() (hits, misses uint64) {
	return p.hits.Load(), p.misses.Load()
}

// Len reports the number of Mappers currently parked in the pool.
func (p *Pool) Len() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, b := range p.shapes {
		n += len(b.mappers)
	}
	return n
}

// pushFront links b at the head of the shape LRU. Caller holds p.mu.
func (p *Pool) pushFront(b *bucket) {
	b.prev = nil
	b.next = p.head
	if p.head != nil {
		p.head.prev = b
	}
	p.head = b
	if p.tail == nil {
		p.tail = b
	}
}

// touch moves b to the head of the shape LRU. Caller holds p.mu.
//
//schedlint:hotpath
func (p *Pool) touch(b *bucket) {
	if p.head == b {
		return
	}
	if b.prev != nil {
		b.prev.next = b.next
	}
	if b.next != nil {
		b.next.prev = b.prev
	}
	if p.tail == b {
		p.tail = b.prev
	}
	b.prev = nil
	b.next = p.head
	if p.head != nil {
		p.head.prev = b
	}
	p.head = b
}

// evictLRU drops the least recently used shape class. Caller holds p.mu.
func (p *Pool) evictLRU() {
	b := p.tail
	if b == nil {
		return
	}
	if b.prev != nil {
		b.prev.next = nil
	}
	p.tail = b.prev
	if p.head == b {
		p.head = nil
	}
	delete(p.shapes, b.key)
}
