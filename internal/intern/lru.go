package intern

import (
	"container/list"
	"sync"
	"sync/atomic"
)

// LRU is a bounded map that evicts its least recently used entry, safe for
// concurrent use. It is the one eviction policy of the serving tier: the
// graph and table interns and emts-serve's response cache are all LRUs.
// Values are shared by every caller that finds them and must be treated as
// read-only.
type LRU[K comparable, V any] struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List // front = most recently used
	byKey map[K]*list.Element

	hits   atomic.Uint64
	misses atomic.Uint64
}

type lruItem[K comparable, V any] struct {
	key K
	val V
}

// NewLRU returns an LRU holding at most capacity entries (non-positive
// selects DefaultEntries).
func NewLRU[K comparable, V any](capacity int) *LRU[K, V] {
	if capacity <= 0 {
		capacity = DefaultEntries
	}
	return &LRU[K, V]{
		cap:   capacity,
		ll:    list.New(),
		byKey: make(map[K]*list.Element, capacity),
	}
}

// Get returns the value stored under key and makes it the most recently
// used entry, counting a hit or a miss. It is the whole warm path of a
// repeat request — one mutex hold and one map probe — so schedlint checks
// that it stays allocation-free.
//
//schedlint:hotpath
func (c *LRU[K, V]) Get(key K) (V, bool) {
	c.mu.Lock()
	if el, ok := c.byKey[key]; ok {
		c.ll.MoveToFront(el)
		c.mu.Unlock()
		c.hits.Add(1)
		return el.Value.(*lruItem[K, V]).val, true
	}
	c.mu.Unlock()
	c.misses.Add(1)
	var zero V
	return zero, false
}

// Add stores val under key as the most recently used entry, evicting the
// least recently used one beyond capacity, and returns the value now
// resident. Callers build values outside the lock, so two first sightings
// of one key can race to Add; the loser gets the winner's value back, which
// keeps one shared instance per key.
func (c *LRU[K, V]) Add(key K, val V) V {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[key]; ok {
		c.ll.MoveToFront(el)
		return el.Value.(*lruItem[K, V]).val
	}
	c.byKey[key] = c.ll.PushFront(&lruItem[K, V]{key: key, val: val})
	if c.ll.Len() > c.cap {
		oldest := c.ll.Remove(c.ll.Back()).(*lruItem[K, V])
		delete(c.byKey, oldest.key)
	}
	return val
}

// Stats reports Get hits and misses since construction.
func (c *LRU[K, V]) Stats() (hits, misses uint64) {
	return c.hits.Load(), c.misses.Load()
}

// Len reports the number of resident entries.
func (c *LRU[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
