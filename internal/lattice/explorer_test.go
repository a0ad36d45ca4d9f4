package lattice

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/fpm"
)

// randomDB builds a seeded random TxDB for oracle checks.
func randomDB(t testing.TB, seed int64, rows, attrs, maxCard int) *fpm.TxDB {
	t.Helper()
	g, err := datagen.Random(seed, datagen.RandomConfig{Rows: rows, Attrs: attrs, MaxCard: maxCard})
	if err != nil {
		t.Fatal(err)
	}
	classes := make([]uint8, len(g.Truth))
	for i := range classes {
		c := uint8(0)
		if g.Truth[i] {
			c |= 2
		}
		if g.Pred[i] {
			c |= 1
		}
		classes[i] = c
	}
	db, err := fpm.NewTxDB(g.Data, classes, 4)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// classDB builds a TxDB whose class c has sizes[c] rows, the classes
// shuffled over the rows, with seeded values over attrs attributes of
// cardinality maxCard.
func classDB(t testing.TB, seed int64, attrs, maxCard int, sizes ...int) *fpm.TxDB {
	t.Helper()
	var classes []uint8
	for c, n := range sizes {
		for ; n > 0; n-- {
			classes = append(classes, uint8(c))
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(classes), func(i, j int) { classes[i], classes[j] = classes[j], classes[i] })
	d := &dataset.Dataset{}
	for a := 0; a < attrs; a++ {
		attr := dataset.Attribute{Name: fmt.Sprintf("a%d", a)}
		for v := 0; v < maxCard; v++ {
			attr.Values = append(attr.Values, fmt.Sprintf("v%d", v))
		}
		d.Attrs = append(d.Attrs, attr)
	}
	for range classes {
		row := make([]int32, attrs)
		for a := range row {
			row[a] = int32(rng.Intn(maxCard))
		}
		d.Rows = append(d.Rows, row)
	}
	db, err := fpm.NewTxDB(d, classes, len(sizes))
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// TestExpandMatchesDirectScan is the oracle check: every refinement's
// tally must equal TallyOf's direct scan, and the refinement set must be
// exactly the frequent extensions over unbound attributes. The tables
// put class sizes at the layout's word boundaries, where its padding
// lies.
func TestExpandMatchesDirectScan(t *testing.T) {
	for _, tc := range []struct {
		name     string
		db       *fpm.TxDB
		minCount int64
	}{
		{"random", randomDB(t, 17, 250, 5, 4), 5},
		{"class of 63", classDB(t, 1, 4, 3, 63, 40), 3},
		{"class of 64", classDB(t, 2, 4, 3, 64, 64), 3},
		{"class of 65", classDB(t, 3, 4, 3, 65, 2), 3},
		{"empty class", classDB(t, 4, 4, 3, 70, 0, 65, 0), 3},
		{"one row", classDB(t, 5, 3, 2, 0, 1), 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			expandMatchesDirectScan(t, NewExplorer(tc.db, 0), tc.db, tc.minCount)
		})
	}
}

// TestExplorerFloors runs one explorer through falling and rising
// minCounts: a lower minCount lays the table out again at that floor,
// a higher one reads the lower floor's layout, and every answer stays
// oracle-exact.
func TestExplorerFloors(t *testing.T) {
	db := randomDB(t, 19, 300, 5, 5)
	e := NewExplorer(db, 4)
	for _, minCount := range []int64{20, 5, 20, 40, 1, 5} {
		expandMatchesDirectScan(t, e, db, minCount)
	}
	if floor := e.current.Load().floor; floor != 1 {
		t.Fatalf("layout floor %d after a minCount of 1", floor)
	}
}

// expandMatchesDirectScan walks the lattice of db from the root, three
// refinements wide and two deep, checking each expand of e against
// TallyOf.
func expandMatchesDirectScan(t *testing.T, e *Explorer, db *fpm.TxDB, minCount int64) {
	t.Helper()
	c := db.Catalog
	var walk func(pattern fpm.Itemset, depth int)
	walk = func(pattern fpm.Itemset, depth int) {
		refs, err := e.Expand(pattern, minCount)
		if err != nil {
			t.Fatal(err)
		}
		got := make(map[fpm.Item]fpm.Tally, len(refs))
		for _, r := range refs {
			got[r.Item] = r.Tally
			if want := pattern.Union(fpm.Itemset{r.Item}); !r.Items.Equal(want) {
				t.Fatalf("refinement items %v, want %v", r.Items, want)
			}
		}
		bound := make(map[int]bool)
		for _, it := range pattern {
			bound[c.Attr(it)] = true
		}
		for it := fpm.Item(0); int(it) < c.NumItems(); it++ {
			want := db.TallyOf(pattern.Union(fpm.Itemset{it}))
			ref, ok := got[it]
			switch {
			case bound[c.Attr(it)] || want.Total() < minCount:
				if ok {
					t.Fatalf("expand(%v) wrongly includes item %s (support %d)",
						pattern, c.Name(it), want.Total())
				}
			case !ok:
				t.Fatalf("expand(%v) misses frequent item %s (support %d)",
					pattern, c.Name(it), want.Total())
			case ref != want:
				t.Fatalf("expand(%v) item %s tally %v, direct scan %v",
					pattern, c.Name(it), ref, want)
			}
		}
		if depth < 2 {
			for _, r := range refs[:min(len(refs), 3)] {
				walk(r.Items, depth+1)
			}
		}
	}
	walk(nil, 0)
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestDrill(t *testing.T) {
	db := randomDB(t, 17, 250, 5, 4)
	e := NewExplorer(db, 0)
	c := db.Catalog
	refs, err := e.Expand(nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	base := refs[0].Items

	drilled, err := e.Drill(base, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(drilled) == 0 {
		t.Fatal("drill along attribute 2 found nothing at minCount 1")
	}
	for _, r := range drilled {
		if c.Attr(r.Item) != 2 {
			t.Fatalf("drill(attr=2) returned item %s of attribute %d", c.Name(r.Item), c.Attr(r.Item))
		}
		if want := db.TallyOf(r.Items); r.Tally != want {
			t.Fatalf("drill tally %v, direct scan %v", r.Tally, want)
		}
	}
	// Drilling a bound attribute is an error.
	if _, err := e.Drill(base, c.Attr(base[0]), 1); err == nil {
		t.Fatal("drill along a bound attribute succeeded")
	}
	if _, err := e.Drill(base, 99, 1); err == nil {
		t.Fatal("drill along an out-of-range attribute succeeded")
	}
}

func TestExplorerValidation(t *testing.T) {
	db := randomDB(t, 23, 100, 3, 3)
	e := NewExplorer(db, 0)
	if _, err := e.Expand(nil, 0); err == nil {
		t.Error("minCount 0 accepted")
	}
	if _, err := e.Expand(fpm.Itemset{fpm.Item(9999)}, 1); err == nil {
		t.Error("out-of-catalog item accepted")
	}
	if _, err := e.Expand(fpm.Itemset{3, 1}, 1); err == nil {
		t.Error("unsorted pattern accepted")
	}
	// Two values of attribute 0.
	twice := fpm.Itemset{db.Catalog.ItemFor(0, 0), db.Catalog.ItemFor(0, 1)}
	if _, err := e.Expand(twice, 1); err == nil {
		t.Error("doubly-bound attribute accepted")
	}
}

// TestExplorerCache: repeated expands hit the LRU; tiny capacities evict
// but never corrupt; the row-scan counter counts each computed
// pattern's cover, not the whole dataset.
func TestExplorerCache(t *testing.T) {
	db := randomDB(t, 31, 300, 4, 3)
	e := NewExplorer(db, 8)

	refs, err := e.Expand(nil, 3)
	if err != nil {
		t.Fatal(err)
	}
	s0 := e.Stats()
	if s0.Misses != 1 || s0.Entries != 1 || s0.RowsScanned != 300 {
		t.Fatalf("after first expand: %+v", s0)
	}
	if _, err := e.Expand(nil, 3); err != nil {
		t.Fatal(err)
	}
	s1 := e.Stats()
	if s1.Hits != s0.Hits+1 || s1.RowsScanned != s0.RowsScanned {
		t.Fatalf("second expand did not hit the cache: %+v", s1)
	}

	// Expanding a child counts only the child's cover: the extra rows
	// scanned are its support, not the whole dataset.
	child := refs[0]
	if _, err := e.Expand(child.Items, 3); err != nil {
		t.Fatal(err)
	}
	s2 := e.Stats()
	scanned := s2.RowsScanned - s1.RowsScanned
	if scanned != child.Tally.Total() {
		t.Fatalf("child expand scanned %d rows, want its cover %d", scanned, child.Tally.Total())
	}

	// Churn far past capacity; every answer must stay oracle-exact.
	for _, r := range refs {
		got, err := e.Expand(r.Items, 3)
		if err != nil {
			t.Fatal(err)
		}
		for _, g := range got {
			if want := db.TallyOf(g.Items); g.Tally != want {
				t.Fatalf("post-eviction tally %v, want %v", g.Tally, want)
			}
		}
	}
	s3 := e.Stats()
	if s3.Entries > 8 {
		t.Fatalf("cache holds %d entries, capacity 8", s3.Entries)
	}
}

// TestExplorerConcurrent: one explorer serves concurrent expands of
// overlapping patterns at two minCounts, as a shared navigation session
// does, with a capacity small enough that misses evict each other and
// a lower minCount relaying the table out under readers of the higher
// one's layout; every answer equals a private explorer's.
func TestExplorerConcurrent(t *testing.T) {
	db := randomDB(t, 41, 400, 5, 3)
	minCounts := []int64{40, 4}
	ref := NewExplorer(db, 0)
	roots, err := ref.Expand(nil, minCounts[1])
	if err != nil {
		t.Fatal(err)
	}
	patterns := []fpm.Itemset{nil}
	for _, r := range roots {
		patterns = append(patterns, r.Items)
	}
	want := make([][2][]Refinement, len(patterns))
	for i, p := range patterns {
		for j, m := range minCounts {
			if want[i][j], err = ref.Expand(p, m); err != nil {
				t.Fatal(err)
			}
		}
	}
	shared := NewExplorer(db, 4)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < 3*len(patterns); k++ {
				i, j := (g+k)%len(patterns), (g+k/2)%2
				got, err := shared.Expand(patterns[i], minCounts[j])
				if err != nil || !reflect.DeepEqual(got, want[i][j]) {
					t.Errorf("expand(%v, %d) = %v, %v; want %v", patterns[i], minCounts[j], got, err, want[i][j])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// idDB builds an n-row TxDB with an "id" attribute holding a distinct
// value per row beside three seeded attributes of three values.
func idDB(t testing.TB, n int) *fpm.TxDB {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(n)))
	d := &dataset.Dataset{Attrs: []dataset.Attribute{{Name: "id"}}}
	for a := 0; a < 3; a++ {
		d.Attrs = append(d.Attrs, dataset.Attribute{Name: fmt.Sprintf("a%d", a), Values: []string{"x", "y", "z"}})
	}
	classes := make([]uint8, n)
	for r := 0; r < n; r++ {
		d.Attrs[0].Values = append(d.Attrs[0].Values, fmt.Sprintf("r%d", r))
		d.Rows = append(d.Rows, []int32{int32(r), int32(rng.Intn(3)), int32(rng.Intn(3)), int32(rng.Intn(3))})
		classes[r] = uint8(rng.Intn(2))
	}
	db, err := fpm.NewTxDB(d, classes, 2)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// TestExplorerFootprintLinear: an attribute with a distinct value per
// row adds n items, but none reaches minCount, so the layout keeps no
// cover for them and navigation holds words linear in the rows — the
// same for 8× the rows at 8× the words or fewer — where covering every
// item would grow with n·n/64. An id pattern has no refinement.
func TestExplorerFootprintLinear(t *testing.T) {
	footprint := func(n int) int {
		db := idDB(t, n)
		minCount := fpm.MinCount(n, 0.05)
		e := NewExplorer(db, 0)
		if e.current.Load() != nil {
			t.Fatal("NewExplorer laid the table out before any expand")
		}
		refs, err := e.Expand(nil, minCount)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range refs {
			if _, err := e.Expand(r.Items, minCount); err != nil {
				t.Fatal(err)
			}
		}
		l := e.current.Load()
		if len(l.items) != 9 {
			t.Fatalf("%d rows: %d items laid out, want the 9 non-id values", n, len(l.items))
		}
		id := fpm.Itemset{db.Catalog.ItemFor(0, 0)}
		if refs, err = e.Expand(id, minCount); err != nil || refs != nil {
			t.Fatalf("expand of an id pattern = %v, %v", refs, err)
		}
		entries := 0
		for _, ts := range e.cache.Values() {
			entries += len(ts)
		}
		if entries > e.cache.Stats().Entries*len(l.items) {
			t.Fatalf("memo holds %d tallies over %d entries of %d items", entries, e.cache.Stats().Entries, len(l.items))
		}
		return len(l.covers)
	}
	small, large := footprint(512), footprint(4096)
	db := idDB(t, 512)
	expandMatchesDirectScan(t, NewExplorer(db, 0), db, fpm.MinCount(512, 0.05))
	if large > 8*small {
		t.Fatalf("layout words: %d at 512 rows, %d at 4,096", small, large)
	}
}

// BenchmarkLatticeExpand expands every frequent singleton once per op:
// cold on a fresh explorer (the layout built, then one miss each), warm
// on an explorer that already holds them all (one cache hit each). A
// whole sweep per op keeps allocs/op exact at any -benchtime.
func BenchmarkLatticeExpand(b *testing.B) {
	g, err := datagen.Random(7, datagen.RandomConfig{Rows: 20000, Attrs: 12, MaxCard: 4})
	if err != nil {
		b.Fatal(err)
	}
	classes := make([]uint8, len(g.Truth))
	for i := range classes {
		if g.Pred[i] {
			classes[i] = 1
		}
	}
	db, err := fpm.NewTxDB(g.Data, classes, 2)
	if err != nil {
		b.Fatal(err)
	}
	e := NewExplorer(db, 0)
	refs, err := e.Expand(nil, 50)
	if err != nil {
		b.Fatal(err)
	}
	sweep := func(b *testing.B, e *Explorer) {
		for _, r := range refs {
			if _, err := e.Expand(r.Items, 50); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sweep(b, NewExplorer(db, 0))
		}
	})
	sweep(b, e)
	b.Run("warm", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sweep(b, e)
		}
	})
}
