package fpm

import (
	"context"
	"fmt"

	"repro/internal/dataset"
)

// MaxClasses bounds the number of outcome classes a transaction database
// can carry. Classifier analysis uses 4 (the confusion cells); a generic
// Boolean outcome function uses 3 (T, F, ⊥).
const MaxClasses = 8

// Tally is the per-itemset vector of outcome-class counts that Algorithm 1
// threads through the mining process. Index c counts the covered rows
// whose outcome class is c. The itemset's support count is the total.
type Tally [MaxClasses]int64

// Add accumulates another tally into t.
func (t *Tally) Add(o Tally) {
	for i := range t {
		t[i] += o[i]
	}
}

// AddClass increments the count of class c by n.
func (t *Tally) AddClass(c uint8, n int64) { t[c] += n }

// Total returns the support count: the sum over all classes.
func (t Tally) Total() int64 {
	var s int64
	for _, v := range t {
		s += v
	}
	return s
}

// Masked returns the sum of counts over the classes selected by mask
// (bit c set means class c is included).
func (t Tally) Masked(mask uint16) int64 {
	var s int64
	for c := 0; c < MaxClasses; c++ {
		if mask&(1<<c) != 0 {
			s += t[c]
		}
	}
	return s
}

// TxDB is a transaction database: the dataset rows, each labelled with an
// outcome class in [0, K). It is the input to all miners. The rows' value
// codes live in one flat array, row r at [r·A, (r+1)·A) with A =
// Catalog.NumAttrs(), and every reader takes a row through Row: a row
// costs its codes and nothing else. A TxDB is immutable once built, so
// databases over the same rows may share its catalog and codes.
type TxDB struct {
	Catalog *Catalog
	Classes []uint8 // per-row outcome class
	K       int     // number of classes in use
	codes   []int32 // row-major value codes, Catalog.NumAttrs() per row
}

// NewTxDB builds a transaction database over the dataset with the given
// per-row outcome classes. It copies the dataset's codes into the
// database's flat array, so d may change afterwards.
func NewTxDB(d *dataset.Dataset, classes []uint8, k int) (*TxDB, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	if len(classes) != d.NumRows() {
		return nil, fmt.Errorf("fpm: %d class labels for %d rows", len(classes), d.NumRows())
	}
	w := d.NumAttrs()
	codes := make([]int32, len(d.Rows)*w)
	for r, row := range d.Rows {
		copy(codes[r*w:], row)
	}
	return NewTxDBCodes(NewCatalog(d), codes, classes, k)
}

// NewTxDBCodes builds a transaction database over flat row-major value
// codes of the catalog's schema, with one class per row. The database
// takes codes over: the caller must not write to it afterwards. The
// classes and every code are checked; the schema is for the catalog's
// builder to validate.
func NewTxDBCodes(cat *Catalog, codes []int32, classes []uint8, k int) (*TxDB, error) {
	w := cat.NumAttrs()
	if len(codes) != len(classes)*w {
		return nil, fmt.Errorf("fpm: %d class labels for %d value codes of %d attributes", len(classes), len(codes), w)
	}
	if k < 1 || k > MaxClasses {
		return nil, fmt.Errorf("fpm: class count %d out of range [1,%d]", k, MaxClasses)
	}
	for i, c := range classes {
		if int(c) >= k {
			return nil, fmt.Errorf("fpm: row %d has class %d >= K=%d", i, c, k)
		}
	}
	base := cat.base
	for r := range classes {
		for a, code := range codes[r*w : (r+1)*w] {
			if code < 0 || code >= base[a+1]-base[a] {
				return nil, fmt.Errorf("fpm: row %d attribute %q code %d out of domain [0,%d)",
					r, cat.AttrName(a), code, cat.Cardinality(a))
			}
		}
	}
	return &TxDB{Catalog: cat, Classes: classes, K: k, codes: codes}, nil
}

// NumRows returns the number of transactions.
func (db *TxDB) NumRows() int { return len(db.Classes) }

// Row returns row r's value codes, one per attribute. The slice is the
// database's own: callers must not write to it.
func (db *TxDB) Row(r int) []int32 {
	w := len(db.Catalog.schema)
	return db.codes[r*w : (r+1)*w : (r+1)*w]
}

// TotalTally returns the tally of the whole database (the empty itemset).
func (db *TxDB) TotalTally() Tally {
	var t Tally
	for _, c := range db.Classes {
		t[c]++
	}
	return t
}

// Covers reports whether row r is covered by itemset is.
func (db *TxDB) Covers(r int, is Itemset) bool {
	row := db.Row(r)
	for _, it := range is {
		a := db.Catalog.Attr(it)
		if row[a] != db.Catalog.Value(it) {
			return false
		}
	}
	return true
}

// SupportSet returns the row indexes covered by the itemset — the
// support-set D(I) of Sec. 3.1. Intended for reporting and tests, not for
// the mining hot path.
func (db *TxDB) SupportSet(is Itemset) []int {
	var rows []int
	for r := range db.Classes {
		if db.Covers(r, is) {
			rows = append(rows, r)
		}
	}
	return rows
}

// TallyOf computes the tally of an itemset by a direct scan. Intended for
// tests and one-off queries; miners compute tallies incrementally.
func (db *TxDB) TallyOf(is Itemset) Tally {
	var t Tally
	for r := range db.Classes {
		if db.Covers(r, is) {
			t[db.Classes[r]]++
		}
	}
	return t
}

// FrequentPattern is one mined itemset together with its outcome tally.
type FrequentPattern struct {
	Items Itemset
	Tally Tally
}

// pack copies the patterns of batches, in order, into one pattern slice
// of exactly their number, whose items lie back to back in one array of
// exactly Σ|Items|. A miner's working arenas grow by append, so the
// patterns carved from them pin every array an arena passed through; a
// mine's result is packed once instead, and holds its own size.
func pack(batches ...[]FrequentPattern) []FrequentPattern {
	n, m := 0, 0
	for _, b := range batches {
		n += len(b)
		for i := range b {
			m += len(b[i].Items)
		}
	}
	out := make([]FrequentPattern, 0, n)
	items := make(Itemset, m)
	for _, b := range batches {
		for i := range b {
			k := copy(items, b[i].Items)
			out = append(out, FrequentPattern{Items: items[:k:k], Tally: b[i].Tally})
			items = items[k:]
		}
	}
	return out
}

// Miner extracts all itemsets whose support count is at least
// minCount, along with their tallies. Implementations must be sound and
// complete in the sense of Theorem 5.1. The empty itemset is not
// reported; its tally is TxDB.TotalTally.
type Miner interface {
	// Name identifies the algorithm, e.g. "apriori" or "fpgrowth".
	Name() string
	// Mine returns all frequent patterns with support count >= minCount.
	// minCount must be at least 1. Once ctx is canceled the mine stops
	// and returns an error wrapping ctx.Err(): the bitset kernel
	// (Parallel) checks at every search node, FP-growth at every
	// conditional tree, Apriori at every level, BruteForce (the oracle,
	// for small inputs only) at entry. The async job engine and the HTTP
	// server rely on this so a canceled job or a disconnected client
	// stops burning CPU.
	Mine(ctx context.Context, db *TxDB, minCount int64) ([]FrequentPattern, error)
}

// MinCount converts a relative support threshold s into the minimum
// absolute support count over n rows: the smallest integer c with
// c/n >= s, but at least 1.
func MinCount(n int, s float64) int64 {
	if s <= 0 {
		return 1
	}
	c := int64(float64(n) * s)
	// Round up unless s*n is (numerically) integral.
	if float64(c) < float64(n)*s-1e-9 {
		c++
	}
	if float64(c)/float64(n) < s-1e-12 {
		c++
	}
	if c < 1 {
		c = 1
	}
	return c
}
