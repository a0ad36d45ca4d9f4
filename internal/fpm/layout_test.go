package fpm

import (
	"math/bits"
	"math/rand"
	"testing"
)

// classSizedTxDB builds a database whose class c has sizes[c] rows, the
// classes shuffled over the rows, with seeded values over attrs
// attributes of cardinality up to 4.
func classSizedTxDB(t testing.TB, seed int64, attrs int, sizes ...int) *TxDB {
	t.Helper()
	var classes []byte
	for c, n := range sizes {
		for ; n > 0; n-- {
			classes = append(classes, byte(c))
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(classes), func(i, j int) { classes[i], classes[j] = classes[j], classes[i] })
	data := []byte{byte(attrs - 1), byte(len(sizes) - 1)}
	for a := 0; a < attrs; a++ {
		data = append(data, byte(1+a%4))
	}
	data = append(data, 0)
	for _, c := range classes {
		for a := 0; a < attrs; a++ {
			data = append(data, byte(rng.Intn(256)))
		}
		data = append(data, c)
	}
	db, _, ok := fuzzTxDB(data, MaxClasses)
	if !ok || db.NumRows() != len(classes) {
		t.Fatalf("class sizes %v did not decode", sizes)
	}
	return db
}

// TestLayout pins the class-sorted layout at class boundaries: class c's
// rows take the first bits of its word range in dataset order, an empty
// class owns no words, Full covers exactly the rows, and AndTally of
// item covers gives every item's and item pair's cover and tally. A
// Pack of the frequent items alone leaves the rest without a cover.
func TestLayout(t *testing.T) {
	sizes := []int{63, 0, 64, 65, 1}
	db := classSizedTxDB(t, 3, 3, sizes...)
	var lay Layout
	lay.Count(db)
	if w := lay.Words(); w != 1+0+1+2+1 {
		t.Fatalf("%d words per cover for class sizes %v, want 5", w, sizes)
	}
	w := lay.Words()
	all := make([]Item, db.Catalog.NumItems())
	for it := range all {
		all[it] = Item(it)
	}
	covers := make([]uint64, len(all)*w)
	lay.Pack(db, all, covers)
	coverOf := func(covers []uint64, it Item) []uint64 {
		if lay.pos[it] < 0 {
			return nil
		}
		return covers[int(lay.pos[it])*w:][:w]
	}

	// Row r of class c takes the next bit of c's word range.
	rowBit := make([]int, db.NumRows())
	var next [MaxClasses]int
	for r, c := range db.Classes {
		rowBit[r] = 64*lay.lo[c] + next[c]
		next[c]++
	}
	full := make([]uint64, w)
	if got := lay.Full(full); got != db.TotalTally() {
		t.Fatalf("Full tally %v, want %v", got, db.TotalTally())
	}
	bitsOf := func(rows []int) []uint64 {
		want := make([]uint64, w)
		for _, r := range rows {
			want[rowBit[r]/64] |= 1 << (rowBit[r] % 64)
		}
		return want
	}
	check := func(name string, got []uint64, tally Tally, is Itemset) {
		t.Helper()
		want := bitsOf(db.SupportSet(is))
		n := 0
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("%s: cover word %d %#x, want %#x", name, j, got[j], want[j])
			}
			n += bits.OnesCount64(got[j])
		}
		if tally != db.TallyOf(is) || int64(n) != tally.Total() {
			t.Fatalf("%s: tally %v over %d bits, want %v", name, tally, n, db.TallyOf(is))
		}
	}
	check("full", full, db.TotalTally(), nil)
	dst := make([]uint64, w)
	for a := Item(0); int(a) < db.Catalog.NumItems(); a++ {
		ca := coverOf(covers, a)
		check(db.Catalog.Name(a), dst, lay.AndTally(dst, full, ca), Itemset{a})
		for b := a + 1; int(b) < db.Catalog.NumItems(); b++ {
			tally := lay.AndTally(dst, ca, coverOf(covers, b))
			if db.Catalog.Attr(a) == db.Catalog.Attr(b) {
				if tally.Total() != 0 {
					t.Fatalf("items %d and %d of one attribute share %d rows", a, b, tally.Total())
				}
				continue
			}
			is := Itemset{a, b}
			check(db.Catalog.Format(is), dst, tally, is)
		}
	}

	minCount := db.TotalTally().Total() / 5
	frequent := lay.Frequent(minCount, nil)
	some := make([]uint64, len(frequent)*w)
	lay.Pack(db, frequent, some)
	for it := Item(0); int(it) < db.Catalog.NumItems(); it++ {
		got := coverOf(some, it)
		if db.TallyOf(Itemset{it}).Total() < minCount {
			if got != nil {
				t.Fatalf("item %s below minCount %d has a cover", db.Catalog.Name(it), minCount)
			}
			continue
		}
		if got == nil {
			t.Fatalf("frequent item %s has no cover", db.Catalog.Name(it))
		}
		check(db.Catalog.Name(it), got, lay.AndTally(dst, full, got), Itemset{it})
	}
}
