package fpm

import (
	"context"
	"math/rand"
	"testing"
)

// TestCoverIndexMatchesSupportSet is the differential check on the
// re-fold seam: for every mined itemset, the flat-arena cover must equal
// SupportSet row for row, and Refold with the database's own classes
// must reproduce TallyOf exactly.
func TestCoverIndexMatchesSupportSet(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		db := randomLabeledTxDB(t, 700+seed, diffShape{rows: 150, attrs: 4, maxCard: 4})
		mined, err := FPGrowth{}.Mine(context.Background(), db, 5)
		if err != nil {
			t.Fatal(err)
		}
		itemsets := make([]Itemset, len(mined))
		for i, p := range mined {
			itemsets[i] = p.Items
		}
		c := BuildCoverIndex(db, itemsets)
		if c.Len() != len(itemsets) || c.NumRows() != db.NumRows() {
			t.Fatalf("seed %d: index shape Len=%d NumRows=%d", seed, c.Len(), c.NumRows())
		}
		for i, is := range itemsets {
			want := db.SupportSet(is)
			got := c.Cover(i)
			if len(got) != len(want) {
				t.Fatalf("seed %d itemset %v: cover size %d want %d", seed, is, len(got), len(want))
			}
			for j := range want {
				if int(got[j]) != want[j] {
					t.Fatalf("seed %d itemset %v: cover[%d]=%d want %d", seed, is, j, got[j], want[j])
				}
			}
			if got, want := c.Refold(i, db.Classes), db.TallyOf(is); got != want {
				t.Fatalf("seed %d itemset %v: refold %v want tally %v", seed, is, got, want)
			}
		}
	}
}

// TestCoverIndexRefoldUnderRelabeling checks the permutation-invariance
// property the engine relies on: refolding through the index with
// permuted classes equals re-tallying a database rebuilt with those
// classes (covers never move, only labels do).
func TestCoverIndexRefoldUnderRelabeling(t *testing.T) {
	db := randomLabeledTxDB(t, 77, diffShape{rows: 120, attrs: 4, maxCard: 3})
	mined, err := FPGrowth{}.Mine(context.Background(), db, 4)
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
	relabeled, err := NewTxDB(db.Data, perm, db.K)
	if err != nil {
		t.Fatal(err)
	}
	for i, is := range itemsets {
		if got, want := c.Refold(i, perm), relabeled.TallyOf(is); got != want {
			t.Fatalf("itemset %v: refold under permuted labels %v want %v", is, got, want)
		}
	}
}

// TestCoverIndexEmptyItemset pins the empty-itemset convention: its
// cover is every row, and its refold is the total tally.
func TestCoverIndexEmptyItemset(t *testing.T) {
	db := randomLabeledTxDB(t, 5, diffShape{rows: 40, attrs: 3, maxCard: 3})
	c := BuildCoverIndex(db, []Itemset{{}})
	if c.Len() != 1 || len(c.Cover(0)) != db.NumRows() {
		t.Fatalf("empty itemset cover has %d rows, want %d", len(c.Cover(0)), db.NumRows())
	}
	if got, want := c.Refold(0, db.Classes), db.TotalTally(); got != want {
		t.Fatalf("empty itemset refold %v want %v", got, want)
	}
}
