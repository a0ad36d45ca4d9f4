// Package lru is the one least-recently-used cache behind every bounded
// cache in the service: the dataset registry's memory tier and its
// spill-file index, charged in bytes, and the job engine's result,
// explore, session and significance caches and the lattice navigator,
// charged one per entry.
//
// A Cache is bounded by a cost budget rather than an entry count: each
// entry is charged the cost its Add names, and Trim evicts
// least-recently-used entries until the total fits. Add never evicts, so
// a caller that must do work before an eviction — the registry writes
// the victim to disk first — peeks the victim with Oldest, does the work
// outside the cache's lock, and evicts with EvictIfOldest only if the
// victim is still next in line.
package lru

import (
	"container/list"
	"sync"
)

// Stats is a point-in-time snapshot of a cache's size and counters.
type Stats struct {
	Entries   int
	Cost      int64
	Budget    int64
	Hits      int64
	Misses    int64
	Evictions int64
}

// Cache is a cost-bounded LRU map from K to V. All methods are safe for
// concurrent use. Values are stored as given, so a value shared between
// readers must be immutable once added.
type Cache[K comparable, V any] struct {
	mu        sync.Mutex
	budget    int64     // <= 0 means unbounded
	cost      int64     // total cost of the resident entries
	ll        list.List // front = most recently used; values are *entry[K, V]
	items     map[K]*list.Element
	hits      int64
	misses    int64
	evictions int64
}

type entry[K comparable, V any] struct {
	key  K
	val  V
	cost int64
}

// New returns an empty cache bounded by budget. A budget of 0 or less
// means unbounded: Trim never evicts.
func New[K comparable, V any](budget int64) *Cache[K, V] {
	return &Cache[K, V]{budget: budget, items: make(map[K]*list.Element)}
}

// Get returns the value stored under k and marks it most recently used.
// Every call counts exactly one hit or one miss.
func (c *Cache[K, V]) Get(k K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[k]
	if !ok {
		c.misses++
		var zero V
		return zero, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	return el.Value.(*entry[K, V]).val, true
}

// Add stores v under k at the given cost and marks it most recently
// used. When k is already present the stored value wins: it is marked
// most recently used and returned with existed == true, and v is
// dropped, so concurrent builders of one entry all end up sharing the
// first one stored. Add moves no counter and never evicts; Trim does.
func (c *Cache[K, V]) Add(k K, v V, cost int64) (stored V, existed bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[k]; ok {
		c.ll.MoveToFront(el)
		return el.Value.(*entry[K, V]).val, true
	}
	c.items[k] = c.ll.PushFront(&entry[K, V]{key: k, val: v, cost: cost})
	c.cost += cost
	return v, false
}

// Remove deletes k and frees its cost, reporting whether it was
// present. A removal is a delete, not an eviction: it moves no counter.
func (c *Cache[K, V]) Remove(k K) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[k]
	if ok {
		c.drop(el)
	}
	return ok
}

// Trim evicts least-recently-used entries until the total cost fits the
// budget and returns the evicted keys, oldest first. It never evicts
// spare (the entry whose insert prompted the trim) and never evicts a
// sole entry, so one entry costlier than the whole budget stays usable.
func (c *Cache[K, V]) Trim(spare K) []K {
	c.mu.Lock()
	defer c.mu.Unlock()
	var evicted []K
	for el := c.victim(spare); el != nil; el = c.victim(spare) {
		evicted = append(evicted, el.Value.(*entry[K, V]).key)
		c.evict(el)
	}
	return evicted
}

// Oldest returns the entry Trim(spare) would evict next: the
// least-recently-used entry other than spare, while the cache is over
// its budget with more than one entry. ok is false when Trim would evict
// nothing. Oldest does not mark the entry used.
func (c *Cache[K, V]) Oldest(spare K) (k K, v V, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el := c.victim(spare); el != nil {
		e := el.Value.(*entry[K, V])
		return e.key, e.val, true
	}
	return k, v, false
}

// EvictIfOldest evicts k only if it is still the entry Oldest(spare)
// returns: the compare-and-evict that closes a peek taken with Oldest.
// A Get or Add of k since the peek moved it to the front, so the
// eviction is refused; so it is once the cache fits its budget again.
func (c *Cache[K, V]) EvictIfOldest(k, spare K) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	el := c.victim(spare)
	if el == nil || el.Value.(*entry[K, V]).key != k {
		return false
	}
	c.evict(el)
	return true
}

// Values returns the stored values, most recently used first, without
// marking any of them used.
func (c *Cache[K, V]) Values() []V {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]V, 0, c.ll.Len())
	for el := c.ll.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*entry[K, V]).val)
	}
	return out
}

// Stats snapshots the cache's size and counters.
func (c *Cache[K, V]) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Entries:   c.ll.Len(),
		Cost:      c.cost,
		Budget:    c.budget,
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
	}
}

// victim returns the entry to evict next, or nil when the cache fits its
// budget, is unbounded or holds a single entry. The tail is the victim
// unless it is spare; then the entry ahead of it is, which exists
// because more than one entry is resident. Caller holds c.mu.
func (c *Cache[K, V]) victim(spare K) *list.Element {
	if c.budget <= 0 || c.cost <= c.budget || c.ll.Len() <= 1 {
		return nil
	}
	el := c.ll.Back()
	if el.Value.(*entry[K, V]).key == spare {
		el = el.Prev()
	}
	return el
}

// evict drops el and counts an eviction. Caller holds c.mu.
func (c *Cache[K, V]) evict(el *list.Element) {
	c.drop(el)
	c.evictions++
}

// drop unlinks el and frees its cost. Caller holds c.mu.
func (c *Cache[K, V]) drop(el *list.Element) {
	e := el.Value.(*entry[K, V])
	c.ll.Remove(el)
	delete(c.items, e.key)
	c.cost -= e.cost
}
