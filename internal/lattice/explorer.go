package lattice

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/fpm"
	"repro/internal/lru"
)

// Explorer answers lattice-navigation queries — expand a pattern into
// its one-item refinements, or drill along a single attribute — against
// one transaction database without ever re-mining. The conditional
// tallies of a pattern's extensions (after Pastor et al.'s DivExplorer
// follow-up) are popcounts over fpm's class-sorted layout: the pattern's
// cover is the AND of its items' covers, and each unbound candidate
// costs one AND-and-popcount of that cover with its own.
//
// A cover takes ⌈n/64⌉ words whatever its item's count, so the layout
// holds only the items whose count reaches its floor, the lowest
// minCount asked so far: the first Expand builds it, and a lower
// minCount builds it again. Tallies are memoized in an entry-bounded LRU
// keyed by the pattern and that floor. The Explorer holds no mining
// state; the server's mine counter stays flat while navigation runs
// (tested).
type Explorer struct {
	db      *fpm.TxDB
	mu      sync.Mutex                       // serializes layout builds
	current atomic.Pointer[layout]           // nil until the first Expand
	cache   *lru.Cache[memoKey, []fpm.Tally] // 1 per entry

	rows    atomic.Int64 // covered rows of the patterns whose tallies were computed
	expands atomic.Int64
}

// layout holds, immutably, the covers of every item whose count reaches
// floor: items ascending, items[i]'s cover at covers[i*w:(i+1)*w].
type layout struct {
	fpm.Layout
	floor  int64
	items  []fpm.Item
	covers []uint64
}

// memoKey names a memo entry: a pattern's Itemset.Key and the floor of
// the layout whose items its tallies follow.
type memoKey struct {
	pattern string
	floor   int64
}

// Refinement is one child of the expanded pattern in the item lattice.
type Refinement struct {
	// Item is the extension item.
	Item fpm.Item
	// Items is the refined pattern (parent ∪ {Item}), sorted.
	Items fpm.Itemset
	// Tally is the refined pattern's exact outcome tally.
	Tally fpm.Tally
}

// ExplorerStats is a point-in-time snapshot of the navigation counters.
// RowsScanned sums the covered rows of every pattern whose tallies a
// cache miss computed.
type ExplorerStats struct {
	Entries     int   `json:"entries"`
	Capacity    int   `json:"capacity"`
	Hits        int64 `json:"hits"`
	Misses      int64 `json:"misses"`
	Evictions   int64 `json:"evictions"`
	RowsScanned int64 `json:"rows_scanned"`
	Expands     int64 `json:"expands"`
}

// DefaultExplorerCache is the default LRU capacity in patterns.
const DefaultExplorerCache = 256

// NewExplorer builds a navigator over db; it lays nothing out until
// the first Expand. capacity bounds the LRU in cached patterns
// (DefaultExplorerCache when <= 0).
func NewExplorer(db *fpm.TxDB, capacity int) *Explorer {
	if capacity <= 0 {
		capacity = DefaultExplorerCache
	}
	return &Explorer{db: db, cache: lru.New[memoKey, []fpm.Tally](int64(capacity))}
}

// Expand returns the frequent one-item refinements of pattern — every
// child pattern ∪ {item} over an unbound attribute whose support count
// reaches minCount — in ascending item order. The empty pattern expands
// to the frequent singletons. Cost is one AND-and-popcount per pattern
// item and per candidate on a cache miss, and one pass over the
// candidates on a hit. A pattern with an item the layout leaves out has
// a count below minCount, so it has no refinement to find.
func (e *Explorer) Expand(pattern fpm.Itemset, minCount int64) ([]Refinement, error) {
	if minCount < 1 {
		return nil, fmt.Errorf("lattice: minCount %d < 1", minCount)
	}
	bound, err := e.bound(pattern)
	if err != nil {
		return nil, err
	}
	e.expands.Add(1)
	l := e.layoutFor(minCount)
	for _, it := range pattern {
		if _, ok := slices.BinarySearch(l.items, it); !ok {
			return nil, nil
		}
	}
	tallies := e.tallies(l, pattern, bound)
	c := e.db.Catalog
	var out []Refinement
	for i, it := range l.items {
		if bound[c.Attr(it)] {
			continue
		}
		t := tallies[i]
		if t.Total() < minCount {
			continue
		}
		out = append(out, Refinement{
			Item:  it,
			Items: pattern.Union(fpm.Itemset{it}),
			Tally: t,
		})
	}
	return out, nil
}

// Drill is Expand restricted to one attribute: the frequent refinements
// of pattern along attr's values. The attribute must not already be
// bound by the pattern.
func (e *Explorer) Drill(pattern fpm.Itemset, attr int, minCount int64) ([]Refinement, error) {
	c := e.db.Catalog
	if attr < 0 || attr >= c.NumAttrs() {
		return nil, fmt.Errorf("lattice: attribute index %d out of range", attr)
	}
	for _, it := range pattern {
		if c.Attr(it) == attr {
			return nil, fmt.Errorf("lattice: attribute %q already bound by the pattern", c.AttrName(attr))
		}
	}
	all, err := e.Expand(pattern, minCount)
	if err != nil {
		return nil, err
	}
	out := all[:0:0]
	for _, r := range all {
		if c.Attr(r.Item) == attr {
			out = append(out, r)
		}
	}
	return out, nil
}

// Stats snapshots the counters.
func (e *Explorer) Stats() ExplorerStats {
	s := e.cache.Stats()
	return ExplorerStats{
		Entries:     s.Entries,
		Capacity:    int(s.Budget),
		Hits:        s.Hits,
		Misses:      s.Misses,
		Evictions:   s.Evictions,
		RowsScanned: e.rows.Load(),
		Expands:     e.expands.Load(),
	}
}

// bound validates a pattern and returns which attributes it binds.
// Patterns must be sorted with pairwise-distinct attributes (the
// package invariant); items out of catalog range are rejected.
func (e *Explorer) bound(pattern fpm.Itemset) ([]bool, error) {
	c := e.db.Catalog
	bound := make([]bool, c.NumAttrs())
	for i, it := range pattern {
		if it < 0 || int(it) >= c.NumItems() {
			return nil, fmt.Errorf("lattice: item %d outside the catalog", it)
		}
		if i > 0 && it <= pattern[i-1] {
			return nil, fmt.Errorf("lattice: pattern is not sorted")
		}
		if a := c.Attr(it); bound[a] {
			return nil, fmt.Errorf("lattice: attribute %q bound twice", c.AttrName(a))
		} else {
			bound[a] = true
		}
	}
	return bound, nil
}

// layoutFor returns a layout that holds every item whose count reaches
// minCount, laying the table out at floor minCount when there is none
// yet or the current floor is higher.
func (e *Explorer) layoutFor(minCount int64) *layout {
	if l := e.current.Load(); l != nil && l.floor <= minCount {
		return l
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if l := e.current.Load(); l != nil && l.floor <= minCount {
		return l
	}
	l := &layout{floor: minCount}
	l.Count(e.db)
	l.items = l.Frequent(minCount, nil)
	l.covers = make([]uint64, len(l.items)*l.Words())
	l.Pack(e.db, l.items, l.covers)
	e.current.Store(l)
	return l
}

// tallies returns the memoized tally of pattern ∪ {l.items[i]} for
// every i of an attribute the (validated) pattern leaves unbound, zero
// for the rest; l must hold the pattern's items. A miss ANDs the
// pattern's item covers and runs one AndTally per unbound candidate.
func (e *Explorer) tallies(l *layout, pattern fpm.Itemset, bound []bool) []fpm.Tally {
	key := memoKey{pattern.Key(), l.floor}
	if ts, ok := e.cache.Get(key); ok {
		return ts
	}
	c, w := e.db.Catalog, l.Words()
	buf := make([]uint64, 2*w)
	cover, scratch := buf[:w], buf[w:]
	covered := l.Full(cover)
	for _, it := range pattern {
		i, _ := slices.BinarySearch(l.items, it)
		covered = l.AndTally(cover, cover, l.covers[i*w:(i+1)*w])
	}
	ts := make([]fpm.Tally, len(l.items))
	for i, it := range l.items {
		if !bound[c.Attr(it)] {
			ts[i] = l.AndTally(scratch, cover, l.covers[i*w:(i+1)*w])
		}
	}
	e.rows.Add(covered.Total())
	// A builder that raced another one gets the incumbent back.
	ts, _ = e.cache.Add(key, ts, 1)
	e.cache.Trim(key)
	return ts
}
