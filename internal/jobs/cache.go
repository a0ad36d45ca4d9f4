package jobs

import (
	"strconv"
	"strings"

	"repro/internal/lru"
)

// CacheStats is a point-in-time snapshot of one cache's counters.
type CacheStats struct {
	Entries   int   `json:"entries"`
	Capacity  int   `json:"capacity"`
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
}

// cache is an entry-count-bounded LRU with string keys, safe for
// concurrent use: an lru.Cache that charges every entry 1 against a
// budget of capacity entries. Every engine cache is one: mined results,
// explore outcomes, navigation sessions and significance outcomes.
// Cached values are immutable once stored, so one entry can serve any
// number of concurrent readers.
type cache[V any] struct{ c *lru.Cache[string, V] }

func newCache[V any](capacity int) cache[V] {
	return cache[V]{lru.New[string, V](int64(capacity))}
}

func (c cache[V]) get(key string) (V, bool) { return c.c.Get(key) }

// put caches val under key and returns it. When key is already present
// the cached value wins and is returned instead, so concurrent builders
// of one entry all end up sharing the first one stored.
func (c cache[V]) put(key string, val V) V {
	val, _ = c.c.Add(key, val, 1)
	c.c.Trim(key)
	return val
}

// values returns the cached values, most recently used first.
func (c cache[V]) values() []V { return c.c.Values() }

func (c cache[V]) stats() CacheStats {
	s := c.c.Stats()
	return CacheStats{
		Entries:   s.Entries,
		Capacity:  int(s.Budget),
		Hits:      s.Hits,
		Misses:    s.Misses,
		Evictions: s.Evictions,
	}
}

// cacheKey joins the parts of a cache key with the ASCII unit separator.
func cacheKey(parts ...string) string { return strings.Join(parts, "\x1f") }

// ftoa formats a float key part in its shortest round-trip form.
func ftoa(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
