package fpm

import (
	"context"
	"fmt"
	"math/bits"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/dataset"
)

// coverRows reads itemset i's cover out of the index in either form,
// ascending.
func coverRows(c *CoverIndex, i int) []int32 {
	cv := c.covers[i]
	if !c.isBitset(cv.count) {
		return c.rows[cv.off : cv.off+cv.count]
	}
	var out []int32
	for j, x := range c.words[cv.off : cv.off+c.w] {
		for ; x != 0; x &= x - 1 {
			out = append(out, int32(64*j+bits.TrailingZeros64(x)))
		}
	}
	return out
}

// checkFold asserts that itemset i's fold under the labelling classes
// reproduces want, the itemset's tally under those classes: for each
// class x, splitting class x against every other class must give
// want[x] positive rows and the rest of the cover negative.
func checkFold(t *testing.T, c *CoverIndex, i int, classes []uint8, k int, want Tally) {
	t.Helper()
	all := uint16(1)<<k - 1
	s := c.NewSplit()
	for x := 0; x < k; x++ {
		s.Fill(classes, 1<<x, all&^(1<<x))
		pos, neg := c.Fold(i, s)
		if pos != want[x] || neg != want.Total()-want[x] {
			t.Fatalf("itemset %d, class %d: fold (%d, %d) want (%d, %d) from tally %v",
				i, x, pos, neg, want[x], want.Total()-want[x], want)
		}
	}
}

// TestCoverIndexMatchesSupportSet is the differential check on the
// re-fold seam: for every mined itemset, the cover read out of either
// form must equal SupportSet row for row, and the fold under the
// database's own classes must reproduce TallyOf exactly.
func TestCoverIndexMatchesSupportSet(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		db := randomLabeledTxDB(t, 700+seed, diffShape{rows: 150, attrs: 4, maxCard: 4})
		mined, err := FPGrowth{}.Mine(context.Background(), db, 2)
		if err != nil {
			t.Fatal(err)
		}
		itemsets := make([]Itemset, len(mined))
		for i, p := range mined {
			itemsets[i] = p.Items
		}
		c := BuildCoverIndex(db, itemsets)
		if c.Len() != len(itemsets) || len(c.words) == 0 || len(c.rows) == 0 {
			t.Fatalf("seed %d: index holds %d covers, %d bitset words, %d listed rows; want %d covers in both forms",
				seed, c.Len(), len(c.words), len(c.rows), len(itemsets))
		}
		for i, is := range itemsets {
			want := db.SupportSet(is)
			got := coverRows(c, i)
			if len(got) != len(want) {
				t.Fatalf("seed %d itemset %v: cover size %d want %d", seed, is, len(got), len(want))
			}
			for j := range want {
				if int(got[j]) != want[j] {
					t.Fatalf("seed %d itemset %v: cover[%d]=%d want %d", seed, is, j, got[j], want[j])
				}
			}
			checkFold(t, c, i, db.Classes, db.K, db.TallyOf(is))
		}
	}
}

// TestCoverIndexRefoldUnderRelabeling checks the permutation-invariance
// property the engine relies on: folding through the index with
// permuted classes equals re-tallying a database rebuilt with those
// classes (covers never move, only labels do).
func TestCoverIndexRefoldUnderRelabeling(t *testing.T) {
	db := randomLabeledTxDB(t, 77, diffShape{rows: 120, attrs: 4, maxCard: 3})
	mined, err := FPGrowth{}.Mine(context.Background(), db, 2)
	if err != nil {
		t.Fatal(err)
	}
	itemsets := make([]Itemset, len(mined))
	for i, p := range mined {
		itemsets[i] = p.Items
	}
	c := BuildCoverIndex(db, itemsets)

	perm := append([]uint8(nil), db.Classes...)
	rng := rand.New(rand.NewSource(7))
	rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
	relabeled, err := NewTxDBCodes(db.Catalog, db.codes, perm, db.K)
	if err != nil {
		t.Fatal(err)
	}
	for i, is := range itemsets {
		checkFold(t, c, i, perm, db.K, relabeled.TallyOf(is))
	}
}

// TestCoverIndexEmptyItemset pins the empty-itemset convention: its
// cover is every row, and its fold is the total tally.
func TestCoverIndexEmptyItemset(t *testing.T) {
	for _, rows := range []int{1, 40, 64, 129} {
		db := randomLabeledTxDB(t, 5, diffShape{rows: rows, attrs: 3, maxCard: 3})
		c := BuildCoverIndex(db, []Itemset{{}})
		if got := coverRows(c, 0); c.Len() != 1 || len(got) != db.NumRows() || int(got[len(got)-1]) != db.NumRows()-1 {
			t.Fatalf("%d rows: empty itemset cover %v, want every row", rows, got)
		}
		checkFold(t, c, 0, db.Classes, db.K, db.TotalTally())
	}
}

// TestCoverIndexFormThreshold pins the form rule at its boundary: with
// W = ⌈n/64⌉ words per bitset, a cover of 2W−1 rows is stored as a row
// list and one of 2W rows as a bitset.
func TestCoverIndexFormThreshold(t *testing.T) {
	const n, w = 130, 3 // W = ⌈130/64⌉
	db := thresholdTxDB(t, n, []int{2*w - 1, 2 * w})
	short, long := Itemset{db.Catalog.ItemFor(0, 1)}, Itemset{db.Catalog.ItemFor(0, 2)}
	c := BuildCoverIndex(db, []Itemset{short, long})
	if c.w != w {
		t.Fatalf("words per bitset %d, want %d", c.w, w)
	}
	if len(c.rows) != 2*w-1 || len(c.words) != w {
		t.Fatalf("index holds %d listed rows and %d bitset words; want %d and %d",
			len(c.rows), len(c.words), 2*w-1, w)
	}
	for i, is := range []Itemset{short, long} {
		checkFold(t, c, i, db.Classes, db.K, db.TallyOf(is))
	}
}

// TestCoverIndexPacksUsedItems: the index lays out only the covers of
// the items its itemsets use, so an id column's n items cost it no
// ⌈n/64⌉-word cover each: building an index over one common item of an
// 8,192-row table allocates well under the 8 MB that covering every item
// would take.
func TestCoverIndexPacksUsedItems(t *testing.T) {
	const n = 8192
	d := &dataset.Dataset{Attrs: []dataset.Attribute{{Name: "id"}, {Name: "a", Values: []string{"x", "y"}}}}
	classes := make([]uint8, n)
	for r := 0; r < n; r++ {
		d.Attrs[0].Values = append(d.Attrs[0].Values, fmt.Sprintf("r%d", r))
		d.Rows = append(d.Rows, []int32{int32(r), int32(r % 2)})
		classes[r] = uint8(r % 3 % 2)
	}
	db, err := NewTxDB(d, classes, 2)
	if err != nil {
		t.Fatal(err)
	}
	is := Itemset{db.Catalog.ItemFor(1, 0)}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c := BuildCoverIndex(db, []Itemset{is})
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 2<<20 {
		t.Fatalf("building a one-itemset index allocated %d bytes", got)
	}
	checkFold(t, c, 0, db.Classes, db.K, db.TallyOf(is))
}

// thresholdTxDB builds an n-row, one-attribute database in which value
// v+1 covers sizes[v] rows and value 0 covers the rest, with classes
// alternating over two.
func thresholdTxDB(t *testing.T, n int, sizes []int) *TxDB {
	t.Helper()
	data := []byte{0, 1, byte(len(sizes)), 0}
	r := 0
	for v, size := range sizes {
		for ; size > 0; size-- {
			data = append(data, byte(v+1), byte(r%2))
			r++
		}
	}
	for ; r < n; r++ {
		data = append(data, 0, byte(r%2))
	}
	db, _, ok := fuzzTxDB(data, 2)
	if !ok || db.NumRows() != n {
		t.Fatalf("threshold table did not decode to %d rows", n)
	}
	return db
}

// FuzzCoverFold: on any small database, both cover forms fold alike.
// For BruteForce's itemsets, under the database's own classes and under
// two relabelings drawn from the input (a shuffle of the classes and an
// arbitrary reassignment), the fold under two disjoint class masks drawn
// from the input equals TallyOf on a database rebuilt with those
// classes, masked by each.
func FuzzCoverFold(f *testing.F) {
	for i, rows := range []int{63, 64, 65, 127, 128, 129} {
		k := 1 + i%4
		sizes := make([]int, k)
		for r := 0; r < rows; r++ {
			sizes[r%k]++
		}
		f.Add(fuzzSeed(1+i%5, k, 0, sizes...), byte(0x21+i), int64(i))
	}
	f.Fuzz(func(t *testing.T, data []byte, masks byte, seed int64) {
		db, minCount, ok := fuzzTxDB(data, 4)
		if !ok {
			return
		}
		mined, err := BruteForce{}.Mine(context.Background(), db, minCount)
		if err != nil {
			t.Fatal(err)
		}
		itemsets := []Itemset{{}}
		for _, p := range mined {
			itemsets = append(itemsets, p.Items)
		}
		c := BuildCoverIndex(db, itemsets)

		all := uint16(1)<<db.K - 1
		pos := uint16(masks) & all
		neg := uint16(masks>>4) & all &^ pos
		rng := rand.New(rand.NewSource(seed))
		shuffled := append([]uint8(nil), db.Classes...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		drawn := make([]uint8, db.NumRows())
		for r := range drawn {
			drawn[r] = uint8(rng.Intn(db.K))
		}

		s := c.NewSplit()
		for _, classes := range [][]uint8{db.Classes, shuffled, drawn} {
			relabeled, err := NewTxDBCodes(db.Catalog, db.codes, classes, db.K)
			if err != nil {
				t.Fatal(err)
			}
			s.Fill(classes, pos, neg)
			for i, is := range itemsets {
				want := relabeled.TallyOf(is)
				if p, n := c.Fold(i, s); p != want.Masked(pos) || n != want.Masked(neg) {
					t.Fatalf("itemset %v (%d rows, masks %#x/%#x): fold (%d, %d) want (%d, %d)",
						is, want.Total(), pos, neg, p, n, want.Masked(pos), want.Masked(neg))
				}
			}
		}
	})
}
