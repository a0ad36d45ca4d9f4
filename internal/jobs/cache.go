package jobs

import (
	"container/list"
	"strconv"
	"strings"
	"sync"
)

// CacheStats is a point-in-time snapshot of one cache's counters.
type CacheStats struct {
	Entries   int   `json:"entries"`
	Capacity  int   `json:"capacity"`
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
}

// lru is an entry-count-bounded LRU with string keys, safe for
// concurrent use. Every engine cache is one: mined results, explore
// outcomes, navigation sessions and significance outcomes. Cached values
// are immutable once stored, so one entry can serve any number of
// concurrent readers.
type lru[V any] struct {
	mu        sync.Mutex
	capacity  int
	ll        *list.List // front = most recently used; values are *lruItem[V]
	entries   map[string]*list.Element
	hits      int64
	misses    int64
	evictions int64
}

type lruItem[V any] struct {
	key string
	val V
}

func newLRU[V any](capacity int) *lru[V] {
	return &lru[V]{capacity: capacity, ll: list.New(), entries: make(map[string]*list.Element)}
}

func (c *lru[V]) get(key string) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		c.misses++
		var zero V
		return zero, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	return el.Value.(*lruItem[V]).val, true
}

// put caches val under key and returns it. When key is already present
// the cached value wins and is returned instead, so concurrent builders
// of one entry all end up sharing the first one stored.
func (c *lru[V]) put(key string, val V) V {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		c.ll.MoveToFront(el)
		return el.Value.(*lruItem[V]).val
	}
	c.entries[key] = c.ll.PushFront(&lruItem[V]{key: key, val: val})
	for c.ll.Len() > c.capacity {
		back := c.ll.Back()
		c.ll.Remove(back)
		delete(c.entries, back.Value.(*lruItem[V]).key)
		c.evictions++
	}
	return val
}

// values returns the cached values, most recently used first.
func (c *lru[V]) values() []V {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]V, 0, c.ll.Len())
	for el := c.ll.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*lruItem[V]).val)
	}
	return out
}

func (c *lru[V]) stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Entries:   c.ll.Len(),
		Capacity:  c.capacity,
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
	}
}

// cacheKey joins the parts of a cache key with the ASCII unit separator.
func cacheKey(parts ...string) string { return strings.Join(parts, "\x1f") }

// ftoa formats a float key part in its shortest round-trip form.
func ftoa(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
