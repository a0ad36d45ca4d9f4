package core

import (
	"bytes"
	"encoding/gob"
	"testing"
	"unsafe"

	"repro/internal/fpm"
)

// TestResultFootprint pins a cached Result at the size of its data: for
// each miner, the Result keeps the mined pattern slice at exact
// capacity, and the patterns' items tile one array of exactly Σ|Items|,
// each pattern's items right after the previous pattern's.
func TestResultFootprint(t *testing.T) {
	db := datagenDB(t, 3, 2000, 6, 4)
	for _, miner := range []fpm.Miner{fpm.Parallel{Workers: 3}, fpm.FPGrowth{}, fpm.Apriori{}} {
		r, err := Explore(db, 0.06, Options{Miner: miner})
		if err != nil {
			t.Fatal(err)
		}
		if len(r.Patterns) == 0 || cap(r.Patterns) != len(r.Patterns) {
			t.Fatalf("%s: %d patterns in a slice of capacity %d", miner.Name(), len(r.Patterns), cap(r.Patterns))
		}
		first := unsafe.Pointer(&r.Patterns[0].Items[0])
		off := 0
		for i, p := range r.Patterns {
			if cap(p.Items) != len(p.Items) {
				t.Fatalf("%s: pattern %d has %d items in capacity %d", miner.Name(), i, len(p.Items), cap(p.Items))
			}
			if at := unsafe.Pointer(&p.Items[0]); at != unsafe.Add(first, off*int(unsafe.Sizeof(fpm.Item(0)))) {
				t.Fatalf("%s: pattern %d's items do not follow pattern %d's", miner.Name(), i, i-1)
			}
			off += len(p.Items)
		}
	}
}

// TestNewResultAllocsIndependentOfSize pins the index's storage: building
// a Result makes the same few allocations whatever its pattern count, as
// the slots and the parent index are one array each and no pattern
// allocates a key.
func TestNewResultAllocsIndependentOfSize(t *testing.T) {
	small := explore(t, datagenDB(t, 3, 2000, 6, 4), 0.06)
	large := explore(t, datagenDB(t, 3, 4000, 8, 4), 0.025)
	if n := small.NumPatterns(); n < 100 || n > 400 {
		t.Fatalf("small result has %d patterns, want about 200", n)
	}
	if n := large.NumPatterns(); n < 1500 || n > 3000 {
		t.Fatalf("large result has %d patterns, want about 2000", n)
	}
	build := func(r *Result) func() {
		return func() { newResult(r.DB, r.MinSup, r.MinCount, r.Miner, r.Patterns) }
	}
	a, b := testing.AllocsPerRun(10, build(small)), testing.AllocsPerRun(10, build(large))
	if a != b {
		t.Errorf("newResult: %v allocs on %d patterns, %v on %d", a, small.NumPatterns(), b, large.NumPatterns())
	}
	for _, r := range []*Result{small, large} {
		if n := len(r.slots); n < 2*len(r.Patterns) || n&(n-1) != 0 {
			t.Errorf("%d slots for %d patterns, want a power of two at least twice as many", n, len(r.Patterns))
		}
	}
}

// TestSlotsResolveUnderAnySeed checks the slot index against a map over
// the same itemsets: under several seeds, every pattern resolves to its
// position, every proper subset of a pattern resolves, and itemsets that
// were not mined miss, whatever slots the seed gives them.
func TestSlotsResolveUnderAnySeed(t *testing.T) {
	db := datagenDB(t, 5, 600, 5, 3)
	mined := explore(t, db, 0.02)
	want := map[string]int{}
	for i, p := range mined.Patterns {
		want[p.Items.Key()] = i
	}
	for run := 0; run < 4; run++ {
		r := newResult(db, mined.MinSup, mined.MinCount, mined.Miner, mined.Patterns)
		for i, p := range r.Patterns {
			got, ok := r.Lookup(p.Items)
			if !ok || &got.Items[0] != &r.Patterns[i].Items[0] {
				t.Fatalf("run %d: pattern %d %v does not resolve to itself", run, i, p.Items)
			}
			for j := range p.Items {
				sub := p.Items.Without(p.Items[j])
				if _, ok := r.Lookup(sub); !ok {
					t.Fatalf("run %d: subset %v of %v is missing", run, sub, p.Items)
				}
			}
		}
		// Full rows of attribute values are rare at this support: every
		// absent one must miss.
		for row := 0; row < db.NumRows(); row++ {
			is := db.Catalog.RowItems(db.Row(row))
			_, inMap := want[is.Key()]
			if _, ok := r.Lookup(is); ok != inMap {
				t.Fatalf("run %d: Lookup(%v) = %v, the map says %v", run, is, ok, inMap)
			}
		}
	}
}

// TestLoadResultRepeatedItemset pins how a snapshot that lists an itemset
// twice resolves: the last position wins, for Lookup and for the parent
// index alike.
func TestLoadResultRepeatedItemset(t *testing.T) {
	db := randomClassifierDB(t, 81, 3, 3, 200)
	r := explore(t, db, 0.02)
	var single, pair Pattern
	for _, p := range r.Patterns {
		if len(p.Items) == 1 && single.Items == nil {
			single = p
		}
	}
	for _, p := range r.Patterns {
		if len(p.Items) == 2 && p.Items.Contains(single.Items[0]) {
			pair = p
			break
		}
	}
	if single.Items == nil || pair.Items == nil {
		t.Fatal("fixture has no singleton with a superset")
	}
	snap := resultSnapshot{Fingerprint: fingerprintDB(db), MinSup: r.MinSup, MinCount: r.MinCount, Miner: r.Miner}
	dup := single.Tally
	dup[0]++ // a second, distinguishable tally for the same itemset
	for _, p := range []Pattern{single, pair, {Items: single.Items, Tally: dup}} {
		snap.Items = append(snap.Items, p.Items)
		snap.Tallies = append(snap.Tallies, p.Tally)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&snap); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadResult(&buf, db)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := loaded.Lookup(single.Items); !ok || got.Tally != dup {
		t.Errorf("Lookup(%v) = %v, %v; want the last tally %v", single.Items, got.Tally, ok, dup)
	}
	j := 0
	if pair.Items[0] != single.Items[0] {
		j = 1 // the pair's entry that drops the other item
	}
	if q := loaded.parents[1+(1-j)]; q != 2 {
		t.Errorf("parent of %v without %v is position %d, want the last, 2", pair.Items, pair.Items[1-j], q)
	}
}
