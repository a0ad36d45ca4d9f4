// Package dataset implements the discrete tabular data model of the
// paper's Sec. 3.1: an n-dimensional dataset over a schema of attributes,
// each with a finite discrete domain. Rows store value codes (indexes
// into the attribute domain), which makes itemset mining and tallying a
// matter of small-integer comparisons.
//
// Continuous attributes must be discretized (package discretize) before a
// Dataset is built, exactly as the paper requires for its frequent
// pattern mining substrate.
package dataset

import (
	"fmt"
	"sort"
	"strings"
)

// Attribute describes one column of a dataset: its name and the ordered
// list of values forming its discrete domain. The position of a value in
// Values is its code, used in Dataset rows.
type Attribute struct {
	Name   string
	Values []string
}

// Cardinality returns the domain size m_a of the attribute.
func (a *Attribute) Cardinality() int { return len(a.Values) }

// ValueCode returns the code for value v, or -1 if v is not in the domain.
func (a *Attribute) ValueCode(v string) int {
	for i, w := range a.Values {
		if w == v {
			return i
		}
	}
	return -1
}

// Dataset is a set of instances over a fixed schema. Rows[i][j] holds the
// value code of attribute j in instance i.
type Dataset struct {
	Attrs []Attribute
	Rows  [][]int32
}

// NumRows returns |D|, the number of instances.
func (d *Dataset) NumRows() int { return len(d.Rows) }

// NumAttrs returns |A|, the number of attributes.
func (d *Dataset) NumAttrs() int { return len(d.Attrs) }

// AttrIndex returns the position of the attribute with the given name, or
// -1 if no such attribute exists.
func (d *Dataset) AttrIndex(name string) int {
	for i := range d.Attrs {
		if d.Attrs[i].Name == name {
			return i
		}
	}
	return -1
}

// Value returns the string value of attribute attr in row row.
func (d *Dataset) Value(row, attr int) string {
	return d.Attrs[attr].Values[d.Rows[row][attr]]
}

// Validate checks structural invariants: non-empty schema, unique
// attribute names, non-empty domains with unique values, and rows whose
// codes are within their attribute domains. It returns the first problem
// found, or nil.
func (d *Dataset) Validate() error {
	if len(d.Attrs) == 0 {
		return fmt.Errorf("dataset: empty schema")
	}
	names := make(map[string]bool, len(d.Attrs))
	for i := range d.Attrs {
		a := &d.Attrs[i]
		if a.Name == "" {
			return fmt.Errorf("dataset: attribute %d has empty name", i)
		}
		if names[a.Name] {
			return fmt.Errorf("dataset: duplicate attribute name %q", a.Name)
		}
		names[a.Name] = true
		if len(a.Values) == 0 {
			return fmt.Errorf("dataset: attribute %q has empty domain", a.Name)
		}
		vals := make(map[string]bool, len(a.Values))
		for _, v := range a.Values {
			if v == "" {
				// Empty values would render as the ambiguous item "attr="
				// and do not survive a CSV round trip (a lone empty field
				// reads back as a skipped blank line).
				return fmt.Errorf("dataset: attribute %q has an empty-string value", a.Name)
			}
			if vals[v] {
				return fmt.Errorf("dataset: attribute %q has duplicate value %q", a.Name, v)
			}
			vals[v] = true
		}
	}
	for r, row := range d.Rows {
		if len(row) != len(d.Attrs) {
			return fmt.Errorf("dataset: row %d has %d values, schema has %d attributes",
				r, len(row), len(d.Attrs))
		}
		for j, code := range row {
			if code < 0 || int(code) >= len(d.Attrs[j].Values) {
				return fmt.Errorf("dataset: row %d attribute %q code %d out of domain [0,%d)",
					r, d.Attrs[j].Name, code, len(d.Attrs[j].Values))
			}
		}
	}
	return nil
}

// Clone returns a deep copy of the dataset.
func (d *Dataset) Clone() *Dataset {
	c := &Dataset{
		Attrs: make([]Attribute, len(d.Attrs)),
		Rows:  make([][]int32, len(d.Rows)),
	}
	for i, a := range d.Attrs {
		c.Attrs[i] = Attribute{Name: a.Name, Values: append([]string(nil), a.Values...)}
	}
	for i, r := range d.Rows {
		c.Rows[i] = append([]int32(nil), r...)
	}
	return c
}

// Subset returns a new dataset containing only the given row indexes, in
// order. The schema is shared structurally (copied headers, shared value
// strings); row slices are referenced, not copied.
func (d *Dataset) Subset(rows []int) *Dataset {
	s := &Dataset{Attrs: d.Attrs, Rows: make([][]int32, len(rows))}
	for i, r := range rows {
		s.Rows[i] = d.Rows[r]
	}
	return s
}

// DropAttrs returns a new dataset without the named attributes. Unknown
// names are reported as an error so callers notice schema drift. The
// kept codes are copied into one arena, each row a capacity-bounded
// window of it.
func (d *Dataset) DropAttrs(names ...string) (*Dataset, error) {
	drop := make(map[int]bool, len(names))
	for _, n := range names {
		idx := d.AttrIndex(n)
		if idx < 0 {
			return nil, fmt.Errorf("dataset: cannot drop unknown attribute %q", n)
		}
		drop[idx] = true
	}
	keep := make([]int, 0, len(d.Attrs)-len(drop))
	for i := range d.Attrs {
		if !drop[i] {
			keep = append(keep, i)
		}
	}
	out := &Dataset{Attrs: make([]Attribute, len(keep)), Rows: make([][]int32, len(d.Rows))}
	for i, j := range keep {
		out.Attrs[i] = d.Attrs[j]
	}
	nk := len(keep)
	arena := make([]int32, len(d.Rows)*nk)
	for r, row := range d.Rows {
		nr := arena[r*nk : (r+1)*nk : (r+1)*nk]
		for i, j := range keep {
			nr[i] = row[j]
		}
		out.Rows[r] = nr
	}
	return out, nil
}

// Column extracts the string values of one attribute for all rows.
func (d *Dataset) Column(attr int) []string {
	out := make([]string, len(d.Rows))
	for i, row := range d.Rows {
		out[i] = d.Attrs[attr].Values[row[attr]]
	}
	return out
}

// ColumnCodes extracts the value codes of one attribute for all rows.
func (d *Dataset) ColumnCodes(attr int) []int32 {
	out := make([]int32, len(d.Rows))
	for i, row := range d.Rows {
		out[i] = row[attr]
	}
	return out
}

// String returns a short human-readable summary of the dataset shape.
func (d *Dataset) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Dataset(%d rows, %d attrs:", d.NumRows(), d.NumAttrs())
	for i := range d.Attrs {
		fmt.Fprintf(&b, " %s[%d]", d.Attrs[i].Name, d.Attrs[i].Cardinality())
	}
	b.WriteString(")")
	return b.String()
}

// Builder incrementally assembles a dataset from string records, growing
// attribute domains as new values appear. Domains keep first-seen order;
// call SortDomains to canonicalize.
type Builder struct {
	attrs  []Attribute
	lookup []map[string]int32
	rows   [][]int32
}

// NewBuilder creates a builder for the given attribute names.
func NewBuilder(attrNames ...string) *Builder {
	b := &Builder{
		attrs:  make([]Attribute, len(attrNames)),
		lookup: make([]map[string]int32, len(attrNames)),
	}
	for i, n := range attrNames {
		b.attrs[i] = Attribute{Name: n}
		b.lookup[i] = make(map[string]int32)
	}
	return b
}

// Add appends one record. The number of values must match the schema.
func (b *Builder) Add(values ...string) error {
	if len(values) != len(b.attrs) {
		return fmt.Errorf("dataset: record has %d values, schema has %d attributes",
			len(values), len(b.attrs))
	}
	row := make([]int32, len(values))
	for j, v := range values {
		code, ok := b.lookup[j][v]
		if !ok {
			code = int32(len(b.attrs[j].Values))
			b.attrs[j].Values = append(b.attrs[j].Values, v)
			b.lookup[j][v] = code
		}
		row[j] = code
	}
	b.rows = append(b.rows, row)
	return nil
}

// SortDomains reorders every attribute domain lexicographically and
// remaps all stored rows accordingly. Useful for deterministic output
// independent of record order.
func (b *Builder) SortDomains() {
	sortDomains(&Dataset{Attrs: b.attrs, Rows: b.rows})
	for j := range b.attrs {
		for k, v := range b.attrs[j].Values {
			b.lookup[j][v] = int32(k)
		}
	}
}

// sortDomains sorts every domain lexicographically and rewrites the
// codes to match, in one pass over the rows for all columns whose
// first-seen order was not already sorted.
func sortDomains(d *Dataset) {
	remaps := make([][]int32, len(d.Attrs))
	var moved []int
	for j := range d.Attrs {
		vals := d.Attrs[j].Values
		if sort.StringsAreSorted(vals) {
			continue
		}
		order := make([]int32, len(vals))
		for k := range order {
			order[k] = int32(k)
		}
		sort.Slice(order, func(a, b int) bool { return vals[order[a]] < vals[order[b]] })
		sorted := make([]string, len(vals))
		remap := make([]int32, len(vals))
		for k, old := range order {
			sorted[k] = vals[old]
			remap[old] = int32(k)
		}
		d.Attrs[j].Values = sorted
		remaps[j] = remap
		moved = append(moved, j)
	}
	if len(moved) == 0 {
		return
	}
	for _, row := range d.Rows {
		for _, j := range moved {
			row[j] = remaps[j][row[j]]
		}
	}
}

// Dataset finalizes the builder. The builder must not be reused after.
func (b *Builder) Dataset() (*Dataset, error) {
	d := &Dataset{Attrs: b.attrs, Rows: b.rows}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return d, nil
}
