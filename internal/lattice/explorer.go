package lattice

import (
	"fmt"
	"sync/atomic"

	"repro/internal/fpm"
	"repro/internal/lru"
)

// Explorer answers lattice-navigation queries — expand a pattern into
// its one-item refinements, or drill along a single attribute — against
// one transaction database without ever re-mining. The trick (after
// Pastor et al.'s DivExplorer follow-up) is that one scan over a
// pattern's cover rows computes the conditional tallies of EVERY
// candidate extension item at once: for each covered row, each unbound
// attribute contributes exactly one item, so a NumItems-sized tally
// array absorbs the whole row in O(#attrs).
//
// Covers and tally arrays are memoized in an entry-bounded LRU keyed by
// the pattern, and a pattern's cover is derived by narrowing its
// parent's cached cover rather than scanning the full dataset — so a
// drill-down session touches ever-shrinking row sets. The Explorer
// holds no mining state at all; the mine-counter stat in the server
// stays flat while navigation runs (tested).
type Explorer struct {
	db    *fpm.TxDB
	cache *lru.Cache[string, *coverEntry] // keyed by Itemset.Key, 1 per entry

	rows    atomic.Int64 // rows scanned building tally arrays
	expands atomic.Int64
}

// coverEntry memoizes one pattern's navigation state: the rows it
// covers and, for every item, the tally of pattern ∪ {item}. For items
// of attributes the pattern already binds, the tally is the conditional
// tally of that (attribute, value) within the cover — zero unless the
// value matches the bound one.
type coverEntry struct {
	cover   []int32
	tallies []fpm.Tally
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

// NewExplorer builds a navigator over db. capacity bounds the LRU in
// cached patterns (DefaultExplorerCache when <= 0).
func NewExplorer(db *fpm.TxDB, capacity int) *Explorer {
	if capacity <= 0 {
		capacity = DefaultExplorerCache
	}
	return &Explorer{db: db, cache: lru.New[string, *coverEntry](int64(capacity))}
}

// Expand returns the frequent one-item refinements of pattern — every
// child pattern ∪ {item} over an unbound attribute whose support count
// reaches minCount — in ascending item order. The empty pattern expands
// to the frequent singletons. Cost is one scan over the pattern's cover
// on a cache miss and O(NumItems) on a hit.
func (e *Explorer) Expand(pattern fpm.Itemset, minCount int64) ([]Refinement, error) {
	if minCount < 1 {
		return nil, fmt.Errorf("lattice: minCount %d < 1", minCount)
	}
	ent, err := e.entry(pattern)
	if err != nil {
		return nil, err
	}
	e.expands.Add(1)
	c := e.db.Catalog
	bound := make([]bool, c.NumAttrs())
	for _, it := range pattern {
		bound[c.Attr(it)] = true
	}
	var out []Refinement
	for it := fpm.Item(0); int(it) < c.NumItems(); it++ {
		if bound[c.Attr(it)] {
			continue
		}
		t := ent.tallies[it]
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

// Tally returns the exact tally of a pattern, served from the
// navigation cache (the pattern's parent entry holds it) or one
// narrowed scan.
func (e *Explorer) Tally(pattern fpm.Itemset) (fpm.Tally, error) {
	if len(pattern) == 0 {
		return e.db.TotalTally(), nil
	}
	parent := pattern[:len(pattern)-1]
	ent, err := e.entry(parent)
	if err != nil {
		return fpm.Tally{}, err
	}
	return ent.tallies[pattern[len(pattern)-1]], nil
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

// entry returns the memoized navigation state for a pattern, building
// it on demand by narrowing the parent's cover. Patterns must be sorted
// with pairwise-distinct attributes (the package invariant); items out
// of catalog range are rejected.
func (e *Explorer) entry(pattern fpm.Itemset) (*coverEntry, error) {
	c := e.db.Catalog
	seen := make([]bool, c.NumAttrs())
	for i, it := range pattern {
		if it < 0 || int(it) >= c.NumItems() {
			return nil, fmt.Errorf("lattice: item %d outside the catalog", it)
		}
		if i > 0 && it <= pattern[i-1] {
			return nil, fmt.Errorf("lattice: pattern is not sorted")
		}
		if a := c.Attr(it); seen[a] {
			return nil, fmt.Errorf("lattice: attribute %q bound twice", c.AttrName(a))
		} else {
			seen[a] = true
		}
	}
	return e.build(pattern)
}

// build recursively materializes the entry for a (validated) pattern.
func (e *Explorer) build(pattern fpm.Itemset) (*coverEntry, error) {
	key := pattern.Key()
	if ent, ok := e.cache.Get(key); ok {
		return ent, nil
	}

	var cover []int32
	if len(pattern) == 0 {
		cover = make([]int32, e.db.NumRows())
		for r := range cover {
			cover[r] = int32(r)
		}
	} else {
		// Narrow the parent's cover by the last (highest) item instead of
		// scanning the whole dataset.
		parent, err := e.build(pattern[:len(pattern)-1])
		if err != nil {
			return nil, err
		}
		last := pattern[len(pattern)-1]
		a, v := e.db.Catalog.Attr(last), e.db.Catalog.Value(last)
		for _, r := range parent.cover {
			if e.db.Data.Rows[r][a] == v {
				cover = append(cover, r)
			}
		}
	}

	c := e.db.Catalog
	ent := &coverEntry{
		cover:   cover,
		tallies: make([]fpm.Tally, c.NumItems()),
	}
	// One scan: each covered row contributes one item per attribute, so
	// this fills the conditional tally of every candidate extension at
	// once.
	for _, r := range cover {
		row := e.db.Data.Rows[r]
		cls := e.db.Classes[r]
		for a, v := range row {
			ent.tallies[c.ItemFor(a, v)][cls]++
		}
	}

	e.rows.Add(int64(len(cover)))
	// A builder that raced another one gets the incumbent back.
	ent, _ = e.cache.Add(key, ent, 1)
	e.cache.Trim(key)
	return ent, nil
}
