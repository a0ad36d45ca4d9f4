package fpm

import (
	"context"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/datagen"
	"repro/internal/dataset"
)

func smallTxDB(t testing.TB) *TxDB {
	t.Helper()
	d := smallDataset(t)
	// Two outcome classes, alternating.
	classes := make([]uint8, d.NumRows())
	for i := range classes {
		classes[i] = uint8(i % 2)
	}
	db, err := NewTxDB(d, classes, 2)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestNewTxDBValidation(t *testing.T) {
	d := smallDataset(t)
	classes := make([]uint8, d.NumRows())
	if _, err := NewTxDB(d, classes[:2], 2); err == nil {
		t.Error("mismatched class slice accepted")
	}
	if _, err := NewTxDB(d, classes, 0); err == nil {
		t.Error("K=0 accepted")
	}
	if _, err := NewTxDB(d, classes, MaxClasses+1); err == nil {
		t.Error("K too large accepted")
	}
	bad := append([]uint8(nil), classes...)
	bad[0] = 5
	if _, err := NewTxDB(d, bad, 2); err == nil {
		t.Error("class out of range accepted")
	}
}

func TestTallyOps(t *testing.T) {
	var a, b Tally
	a.AddClass(0, 3)
	a.AddClass(2, 5)
	b.AddClass(2, 2)
	a.Add(b)
	if a.Total() != 10 {
		t.Errorf("Total = %d, want 10", a.Total())
	}
	if got := a.Masked(1 << 2); got != 7 {
		t.Errorf("Masked(class2) = %d, want 7", got)
	}
	if got := a.Masked(1<<0 | 1<<2); got != 10 {
		t.Errorf("Masked(0|2) = %d, want 10", got)
	}
	if got := a.Masked(1 << 5); got != 0 {
		t.Errorf("Masked(empty class) = %d, want 0", got)
	}
}

func TestMinCount(t *testing.T) {
	cases := []struct {
		n    int
		s    float64
		want int64
	}{
		{100, 0.1, 10},
		{100, 0.101, 11},
		{6172, 0.1, 618},
		{10, 0, 1},
		{10, -1, 1},
		{3, 0.5, 2},
		{1000, 0.001, 1},
	}
	for _, c := range cases {
		if got := MinCount(c.n, c.s); got != c.want {
			t.Errorf("MinCount(%d, %v) = %d, want %d", c.n, c.s, got, c.want)
		}
	}
}

func TestTxDBHelpers(t *testing.T) {
	db := smallTxDB(t)
	total := db.TotalTally()
	if total.Total() != int64(db.NumRows()) {
		t.Errorf("TotalTally sums to %d, want %d", total.Total(), db.NumRows())
	}
	is, err := db.Catalog.ItemsetByNames("color=red")
	if err != nil {
		t.Fatal(err)
	}
	rows := db.SupportSet(is)
	if len(rows) != 3 {
		t.Errorf("SupportSet(color=red) = %v, want 3 rows", rows)
	}
	tally := db.TallyOf(is)
	if tally.Total() != 3 {
		t.Errorf("TallyOf total = %d, want 3", tally.Total())
	}
}

// patternsByKey indexes mined output for comparison.
func patternsByKey(ps []FrequentPattern) map[string]Tally {
	m := make(map[string]Tally, len(ps))
	for _, p := range ps {
		m[p.Items.Key()] = p.Tally
	}
	return m
}

func minersUnderTest() []Miner {
	return []Miner{BruteForce{}, Apriori{}, FPGrowth{}, Parallel{}}
}

// Every miner agrees exactly on the small fixture at every threshold.
func TestMinersAgreeOnFixture(t *testing.T) {
	db := smallTxDB(t)
	for minCount := int64(1); minCount <= 4; minCount++ {
		ref, err := BruteForce{}.Mine(context.Background(), db, minCount)
		if err != nil {
			t.Fatal(err)
		}
		refMap := patternsByKey(ref)
		for _, m := range minersUnderTest()[1:] {
			got, err := m.Mine(context.Background(), db, minCount)
			if err != nil {
				t.Fatalf("%s: %v", m.Name(), err)
			}
			gotMap := patternsByKey(got)
			if !reflect.DeepEqual(refMap, gotMap) {
				t.Errorf("minCount=%d: %s output differs from brute force (%d vs %d patterns)",
					minCount, m.Name(), len(gotMap), len(refMap))
			}
		}
	}
}

// Hand-checked tallies on the fixture: itemset (color=red, shape=round)
// covers only row 0, which has class 0.
func TestMinedTalliesExact(t *testing.T) {
	db := smallTxDB(t)
	out, err := FPGrowth{}.Mine(context.Background(), db, 1)
	if err != nil {
		t.Fatal(err)
	}
	is, err := db.Catalog.ItemsetByNames("color=red", "shape=round")
	if err != nil {
		t.Fatal(err)
	}
	tally, ok := patternsByKey(out)[is.Key()]
	if !ok {
		t.Fatal("itemset (color=red, shape=round) not mined")
	}
	if tally[0] != 1 || tally[1] != 0 {
		t.Errorf("tally = %v, want [1 0 ...]", tally)
	}
}

// No pattern below the threshold is emitted, and every emitted tally
// matches a direct recount (soundness).
func TestMinerSoundness(t *testing.T) {
	db := smallTxDB(t)
	for _, m := range minersUnderTest() {
		out, err := m.Mine(context.Background(), db, 2)
		if err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		for _, p := range out {
			if p.Tally.Total() < 2 {
				t.Errorf("%s emitted infrequent pattern %v", m.Name(), p.Items)
			}
			if got := db.TallyOf(p.Items); got != p.Tally {
				t.Errorf("%s: tally mismatch for %v: %v vs recount %v",
					m.Name(), p.Items, p.Tally, got)
			}
			// No two items of the same attribute.
			seen := map[int]bool{}
			for _, it := range p.Items {
				a := db.Catalog.Attr(it)
				if seen[a] {
					t.Errorf("%s: pattern %v repeats attribute %d", m.Name(), p.Items, a)
				}
				seen[a] = true
			}
		}
	}
}

func TestMinerRejectsBadMinCount(t *testing.T) {
	db := smallTxDB(t)
	for _, m := range minersUnderTest() {
		if _, err := m.Mine(context.Background(), db, 0); err == nil {
			t.Errorf("%s accepted minCount=0", m.Name())
		}
	}
}

// randomTxDB builds a reproducible random database with the given shape.
func randomTxDB(t testing.TB, seed int64, rows, attrs, card, k int) *TxDB {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	names := make([]string, attrs)
	for i := range names {
		names[i] = string(rune('a' + i))
	}
	b := dataset.NewBuilder(names...)
	rec := make([]string, attrs)
	for r := 0; r < rows; r++ {
		for j := range rec {
			rec[j] = string(rune('0' + rng.Intn(card)))
		}
		if err := b.Add(rec...); err != nil {
			t.Fatal(err)
		}
	}
	d, err := b.Dataset()
	if err != nil {
		t.Fatal(err)
	}
	classes := make([]uint8, rows)
	for i := range classes {
		classes[i] = uint8(rng.Intn(k))
	}
	db, err := NewTxDB(d, classes, k)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// Theorem 5.1 as a property: on random databases, Apriori, FP-growth and
// the bitset kernel produce the same pattern→tally map as brute force —
// sound (nothing extra, tallies exact) and complete (nothing missing).
func TestTheorem51SoundCompleteProperty(t *testing.T) {
	f := func(seedRaw uint32, rowsRaw, attrsRaw, cardRaw, minRaw uint8) bool {
		rows := int(rowsRaw%40) + 5
		attrs := int(attrsRaw%4) + 2
		card := int(cardRaw%3) + 2
		minCount := int64(minRaw%5) + 1
		db := randomTxDB(t, int64(seedRaw), rows, attrs, card, 3)
		ref, err := BruteForce{}.Mine(context.Background(), db, minCount)
		if err != nil {
			return false
		}
		refMap := patternsByKey(ref)
		for _, m := range []Miner{Apriori{}, FPGrowth{}, Parallel{}} {
			got, err := m.Mine(context.Background(), db, minCount)
			if err != nil {
				return false
			}
			if !reflect.DeepEqual(refMap, patternsByKey(got)) {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 40}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Support counts are anti-monotone: every subset of a frequent itemset is
// frequent with at least the same support.
func TestAntiMonotonicityProperty(t *testing.T) {
	db := randomTxDB(t, 42, 120, 4, 3, 2)
	out, err := FPGrowth{}.Mine(context.Background(), db, 5)
	if err != nil {
		t.Fatal(err)
	}
	byKey := patternsByKey(out)
	for _, p := range out {
		if len(p.Items) < 2 {
			continue
		}
		p.Items.Subsets(func(sub Itemset) {
			st, ok := byKey[sub.Clone().Key()]
			if !ok {
				t.Fatalf("subset %v of frequent %v missing", sub, p.Items)
			}
			if st.Total() < p.Tally.Total() {
				t.Fatalf("subset %v has smaller support than superset %v", sub, p.Items)
			}
		})
	}
}

// A miner must mine the maximal itemsets too: with minCount=1 every full
// row is a frequent pattern of length = #attributes.
func TestFullLengthPatternsAtMinCountOne(t *testing.T) {
	db := smallTxDB(t)
	out, err := Apriori{}.Mine(context.Background(), db, 1)
	if err != nil {
		t.Fatal(err)
	}
	byKey := patternsByKey(out)
	for r := range db.Classes {
		is := db.Catalog.RowItems(db.Row(r))
		if _, ok := byKey[is.Key()]; !ok {
			t.Errorf("row %d itemset %v missing from output", r, is)
		}
	}
}

// TestNewTxDBAllocsIndependentOfRows pins the flat row layout: a
// database costs the same allocations whatever its row count, since its
// codes are one array and no row has a slice of its own.
func TestNewTxDBAllocsIndependentOfRows(t *testing.T) {
	g, err := datagen.Random(4, datagen.RandomConfig{Rows: 10000, Attrs: 6, MaxCard: 4})
	if err != nil {
		t.Fatal(err)
	}
	build := func(rows int) func() {
		d := g.Data.Subset(rand.New(rand.NewSource(1)).Perm(10000)[:rows]) // one schema for both sizes
		classes := make([]uint8, rows)
		return func() {
			if _, err := NewTxDB(d, classes, 2); err != nil {
				t.Fatal(err)
			}
		}
	}
	if a, b := testing.AllocsPerRun(20, build(1000)), testing.AllocsPerRun(20, build(10000)); a != b {
		t.Errorf("NewTxDB: %v allocs over 1,000 rows, %v over 10,000", a, b)
	}
}

// TestNewTxDBCodes checks the flat constructor against NewTxDB over the
// same rows, that it takes the caller's codes over, and its validation.
func TestNewTxDBCodes(t *testing.T) {
	db := smallTxDB(t)
	w := db.Catalog.NumAttrs()
	var codes []int32
	for r := 0; r < db.NumRows(); r++ {
		codes = append(codes, db.Row(r)...)
	}
	flat, err := NewTxDBCodes(db.Catalog, codes, db.Classes, db.K)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < db.NumRows(); r++ {
		if !reflect.DeepEqual(flat.Row(r), db.Row(r)) {
			t.Fatalf("row %d: %v, want %v", r, flat.Row(r), db.Row(r))
		}
	}
	if &flat.Row(0)[0] != &codes[0] {
		t.Error("the database copied the codes it was handed")
	}
	if _, err := NewTxDBCodes(db.Catalog, codes[:len(codes)-1], db.Classes, db.K); err == nil {
		t.Error("short code array accepted")
	}
	if _, err := NewTxDBCodes(db.Catalog, codes, db.Classes[1:], db.K); err == nil {
		t.Error("too few classes accepted")
	}
	bad := append([]int32(nil), codes...)
	bad[w+1] = int32(db.Catalog.Cardinality(1))
	if _, err := NewTxDBCodes(db.Catalog, bad, db.Classes, db.K); err == nil {
		t.Error("out-of-domain code accepted")
	}
	if _, err := NewTxDBCodes(db.Catalog, codes, db.Classes, MaxClasses+1); err == nil {
		t.Error("K out of range accepted")
	}
}
