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
// outcome class in [0, K). It is the input to all miners.
type TxDB struct {
	Catalog *Catalog
	Data    *dataset.Dataset
	Classes []uint8 // per-row outcome class
	K       int     // number of classes in use
}

// NewTxDB builds a transaction database over the dataset with the given
// per-row outcome classes.
func NewTxDB(d *dataset.Dataset, classes []uint8, k int) (*TxDB, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	if len(classes) != d.NumRows() {
		return nil, fmt.Errorf("fpm: %d class labels for %d rows", len(classes), d.NumRows())
	}
	if k < 1 || k > MaxClasses {
		return nil, fmt.Errorf("fpm: class count %d out of range [1,%d]", k, MaxClasses)
	}
	for i, c := range classes {
		if int(c) >= k {
			return nil, fmt.Errorf("fpm: row %d has class %d >= K=%d", i, c, k)
		}
	}
	return &TxDB{Catalog: NewCatalog(d), Data: d, Classes: classes, K: k}, nil
}

// NumRows returns the number of transactions.
func (db *TxDB) NumRows() int { return db.Data.NumRows() }

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
	row := db.Data.Rows[r]
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
	for r := range db.Data.Rows {
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
	for r := range db.Data.Rows {
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
