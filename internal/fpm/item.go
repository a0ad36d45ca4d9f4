// Package fpm implements the frequent pattern mining substrate of the
// paper's Algorithm 1. It provides an item catalog mapping
// attribute=value pairs to dense item identifiers, itemset utilities, a
// transaction database carrying a per-row outcome class, and the miners:
// the paper's two Algorithm 1 variants (Apriori over vertical bitsets,
// FP-growth with outcome-tally counters), the bitset kernel that serves
// every request path (Parallel and MineVisit), and a brute-force
// reference used to test soundness and completeness (Theorem 5.1).
//
// The crucial deviation from textbook mining is the Tally: instead of a
// single support counter, every itemset accumulates a small vector of
// counts, one per outcome class (e.g. the confusion cells TP/FP/FN/TN).
// Support is the tally total; divergence metrics are computed from the
// class counts by package core without ever re-scanning the data.
package fpm

import (
	"encoding/binary"
	"fmt"
	"sort"
	"strings"

	"repro/internal/dataset"
)

// Item identifies one attribute=value pair. Items are dense: all values
// of attribute 0 come first, then attribute 1, and so on.
type Item int32

// Itemset is a set of items over pairwise-distinct attributes, stored in
// ascending item order. Because the catalog assigns item ranges per
// attribute, ascending item order also groups items by attribute.
type Itemset []Item

// Key returns a canonical map key for the itemset. The itemset must be
// sorted (the package invariant).
func (is Itemset) Key() string {
	buf := make([]byte, 4*len(is))
	for i, it := range is {
		binary.LittleEndian.PutUint32(buf[4*i:], uint32(it))
	}
	return string(buf)
}

// ParseKey decodes a key produced by Key back into an itemset.
func ParseKey(key string) Itemset {
	is := make(Itemset, len(key)/4)
	for i := range is {
		is[i] = Item(binary.LittleEndian.Uint32([]byte(key[4*i : 4*i+4])))
	}
	return is
}

// Contains reports whether the itemset contains item it.
func (is Itemset) Contains(it Item) bool {
	for _, x := range is {
		if x == it {
			return true
		}
		if x > it {
			return false
		}
	}
	return false
}

// ContainsAll reports whether other ⊆ is. Both must be sorted.
func (is Itemset) ContainsAll(other Itemset) bool {
	i := 0
	for _, want := range other {
		for i < len(is) && is[i] < want {
			i++
		}
		if i >= len(is) || is[i] != want {
			return false
		}
		i++
	}
	return true
}

// Without returns a new itemset with item it removed. If it is absent the
// result is a copy of the original.
func (is Itemset) Without(it Item) Itemset {
	out := make(Itemset, 0, len(is))
	for _, x := range is {
		if x != it {
			out = append(out, x)
		}
	}
	return out
}

// Union returns the sorted union of two itemsets. Duplicate items are
// kept once. The caller must ensure the result does not put two items of
// the same attribute together if that matters to it.
func (is Itemset) Union(other Itemset) Itemset {
	out := make(Itemset, 0, len(is)+len(other))
	out = append(out, is...)
	out = append(out, other...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	// Deduplicate.
	w := 0
	for i, x := range out {
		if i == 0 || x != out[w-1] {
			out[w] = x
			w++
		}
	}
	return out[:w]
}

// Equal reports whether two itemsets are identical.
func (is Itemset) Equal(other Itemset) bool {
	if len(is) != len(other) {
		return false
	}
	for i := range is {
		if is[i] != other[i] {
			return false
		}
	}
	return true
}

// Clone returns a copy of the itemset.
func (is Itemset) Clone() Itemset { return append(Itemset(nil), is...) }

// Sorted returns a sorted copy of the itemset.
func (is Itemset) Sorted() Itemset {
	out := is.Clone()
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Subsets calls fn for every proper, non-empty subset of the itemset.
// For the empty or singleton itemset nothing is visited. fn receives a
// reused buffer; it must copy if it retains the subset.
func (is Itemset) Subsets(fn func(Itemset)) {
	n := len(is)
	if n < 2 {
		return
	}
	buf := make(Itemset, 0, n)
	for mask := 1; mask < (1<<n)-1; mask++ {
		buf = buf[:0]
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				buf = append(buf, is[i])
			}
		}
		fn(buf)
	}
}

// Catalog maps between (attribute, value) pairs and dense Item ids for a
// particular dataset schema.
type Catalog struct {
	attrOf   []int32  // item -> attribute index
	valOf    []int32  // item -> value code within the attribute
	base     []int32  // attribute -> first item id
	names    []string // item -> "attr=value"
	schema   []dataset.Attribute
	numItems int
}

// NewCatalog builds the item catalog for a dataset schema.
func NewCatalog(d *dataset.Dataset) *Catalog {
	c := &Catalog{
		base:   make([]int32, d.NumAttrs()+1),
		schema: d.Attrs,
	}
	n := 0
	for i := range d.Attrs {
		c.base[i] = int32(n)
		n += d.Attrs[i].Cardinality()
	}
	c.base[d.NumAttrs()] = int32(n)
	c.numItems = n
	c.attrOf = make([]int32, n)
	c.valOf = make([]int32, n)
	c.names = make([]string, n)
	for a := range d.Attrs {
		for v := 0; v < d.Attrs[a].Cardinality(); v++ {
			id := c.base[a] + int32(v)
			c.attrOf[id] = int32(a)
			c.valOf[id] = int32(v)
			c.names[id] = d.Attrs[a].Name + "=" + d.Attrs[a].Values[v]
		}
	}
	return c
}

// NumItems returns the total number of items (attribute=value pairs).
func (c *Catalog) NumItems() int { return c.numItems }

// NumAttrs returns the number of attributes in the schema.
func (c *Catalog) NumAttrs() int { return len(c.schema) }

// Cardinality returns m_a, the domain size of attribute a.
func (c *Catalog) Cardinality(attr int) int { return c.schema[attr].Cardinality() }

// AttrName returns the name of attribute a.
func (c *Catalog) AttrName(attr int) string { return c.schema[attr].Name }

// ItemFor returns the item for attribute attr with value code val.
func (c *Catalog) ItemFor(attr int, val int32) Item {
	if attr < 0 || attr >= len(c.schema) {
		// lint:ignore libprint documented contract: panics on caller-side argument violation
		panic(fmt.Sprintf("fpm: attribute index %d out of range", attr))
	}
	if val < 0 || int(val) >= c.schema[attr].Cardinality() {
		// lint:ignore libprint documented contract: panics on caller-side argument violation
		panic(fmt.Sprintf("fpm: value code %d out of range for attribute %q", val, c.schema[attr].Name))
	}
	return Item(c.base[attr] + val)
}

// Attr returns the attribute index of item it.
func (c *Catalog) Attr(it Item) int { return int(c.attrOf[it]) }

// Value returns the value code of item it within its attribute.
func (c *Catalog) Value(it Item) int32 { return c.valOf[it] }

// Name returns the human-readable "attr=value" form of item it. Items
// outside the catalog render as "item#N" rather than panicking, so error
// paths can format arbitrary input safely.
func (c *Catalog) Name(it Item) string {
	if it < 0 || int(it) >= c.numItems {
		return fmt.Sprintf("item#%d", it)
	}
	return c.names[it]
}

// ItemByName resolves a "attr=value" string to its Item.
func (c *Catalog) ItemByName(s string) (Item, error) {
	eq := strings.Index(s, "=")
	if eq < 0 {
		return 0, fmt.Errorf("fpm: item %q is not of the form attr=value", s)
	}
	attrName, value := s[:eq], s[eq+1:]
	for a := range c.schema {
		if c.schema[a].Name != attrName {
			continue
		}
		code := c.schema[a].ValueCode(value)
		if code < 0 {
			return 0, fmt.Errorf("fpm: attribute %q has no value %q", attrName, value)
		}
		return c.ItemFor(a, int32(code)), nil
	}
	return 0, fmt.Errorf("fpm: unknown attribute %q", attrName)
}

// ItemsetByNames resolves a list of "attr=value" strings to a sorted
// Itemset, checking that attributes are pairwise distinct.
func (c *Catalog) ItemsetByNames(names ...string) (Itemset, error) {
	is := make(Itemset, 0, len(names))
	seen := make(map[int]bool, len(names))
	for _, n := range names {
		it, err := c.ItemByName(n)
		if err != nil {
			return nil, err
		}
		a := c.Attr(it)
		if seen[a] {
			return nil, fmt.Errorf("fpm: itemset mentions attribute %q twice", c.AttrName(a))
		}
		seen[a] = true
		is = append(is, it)
	}
	return is.Sorted(), nil
}

// Format renders an itemset as a comma-separated list of item names.
func (c *Catalog) Format(is Itemset) string {
	if len(is) == 0 {
		return "{}"
	}
	parts := make([]string, len(is))
	for i, it := range is {
		parts[i] = c.Name(it)
	}
	return strings.Join(parts, ", ")
}

// RowItems converts a dataset row (value codes per attribute) into its
// itemset, one item per attribute, sorted by construction.
func (c *Catalog) RowItems(row []int32) Itemset {
	is := make(Itemset, len(row))
	for a, v := range row {
		is[a] = Item(c.base[a] + v)
	}
	return is
}

// Attrs returns the sorted set of attribute indexes used by an itemset.
func (c *Catalog) Attrs(is Itemset) []int {
	out := make([]int, len(is))
	for i, it := range is {
		out[i] = c.Attr(it)
	}
	sort.Ints(out)
	return out
}
