package fpm

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/datagen"
)

// The differential suite is the empirical side of the Theorem 5.1 guard:
// every miner must produce the identical itemset→tally map on randomized
// datasets spanning skewed domains, unbalanced labels and a range of
// support thresholds. BruteForce is the oracle on shapes small enough to
// afford it; on larger shapes Apriori, FP-growth and the bitset kernel
// check each other.

// diffShape is one randomized dataset configuration.
type diffShape struct {
	rows, attrs, maxCard int
	oracle               bool // include the exponential BruteForce miner
}

func diffShapes(short bool) []diffShape {
	shapes := []diffShape{
		{rows: 30, attrs: 3, maxCard: 3, oracle: true},
		{rows: 60, attrs: 4, maxCard: 4, oracle: true},
		{rows: 200, attrs: 5, maxCard: 4},
	}
	if !short {
		shapes = append(shapes,
			diffShape{rows: 120, attrs: 4, maxCard: 6, oracle: true},
			diffShape{rows: 400, attrs: 6, maxCard: 5},
			diffShape{rows: 800, attrs: 5, maxCard: 3},
		)
	}
	return shapes
}

// randomLabeledTxDB draws a seeded random labelled dataset and wraps it as a
// 4-class transaction database (the confusion cells, computed inline:
// class = 2·truth + pred).
func randomLabeledTxDB(t *testing.T, seed int64, sh diffShape) *TxDB {
	t.Helper()
	g, err := datagen.Random(seed, datagen.RandomConfig{
		Rows:    sh.rows,
		Attrs:   sh.attrs,
		MaxCard: sh.maxCard,
	})
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
	db, err := NewTxDB(g.Data, classes, 4)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestMinersAgreeOnRandomizedDatasets(t *testing.T) {
	supports := []float64{0.01, 0.05, 0.2, 0.5}
	seeds := []int64{1, 7, 42}
	if testing.Short() {
		seeds = seeds[:2]
	}
	for _, sh := range diffShapes(testing.Short()) {
		for _, seed := range seeds {
			t.Run(fmt.Sprintf("rows=%d/attrs=%d/card=%d/seed=%d", sh.rows, sh.attrs, sh.maxCard, seed), func(t *testing.T) {
				db := randomLabeledTxDB(t, seed, sh)
				miners := []Miner{Apriori{}, FPGrowth{}, Parallel{}}
				if sh.oracle {
					miners = append([]Miner{BruteForce{}}, miners...)
				}
				for _, sup := range supports {
					minCount := MinCount(db.NumRows(), sup)
					ref, err := miners[0].Mine(context.Background(), db, minCount)
					if err != nil {
						t.Fatalf("%s(sup=%v): %v", miners[0].Name(), sup, err)
					}
					want := patternsByKey(ref)
					assertPatternInvariants(t, db, ref, minCount, miners[0].Name(), sup)
					for _, m := range miners[1:] {
						got, err := m.Mine(context.Background(), db, minCount)
						if err != nil {
							t.Fatalf("%s(sup=%v): %v", m.Name(), sup, err)
						}
						diffPatternMaps(t, want, patternsByKey(got), miners[0].Name(), m.Name(), sup)
					}
				}
			})
		}
	}
}

// diffPatternMaps reports every disagreement between two miners' outputs
// rather than just the first, so a real divergence is easy to diagnose.
func diffPatternMaps(t *testing.T, want, got map[string]Tally, refName, name string, sup float64) {
	t.Helper()
	if len(want) == len(got) {
		equal := true
		for k, w := range want {
			if g, ok := got[k]; !ok || g != w {
				equal = false
				break
			}
		}
		if equal {
			return
		}
	}
	missing, extra, tallies := 0, 0, 0
	for k, w := range want {
		g, ok := got[k]
		switch {
		case !ok:
			missing++
			if missing <= 3 {
				t.Errorf("%s vs %s (sup=%v): %s missing itemset %q", refName, name, sup, name, k)
			}
		case g != w:
			tallies++
			if tallies <= 3 {
				t.Errorf("%s vs %s (sup=%v): itemset %q tally %v != %v", refName, name, sup, k, g, w)
			}
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			extra++
			if extra <= 3 {
				t.Errorf("%s vs %s (sup=%v): %s mined extra itemset %q", refName, name, sup, name, k)
			}
		}
	}
	t.Errorf("%s vs %s (sup=%v): %d missing, %d extra, %d tally mismatches (|ref|=%d, |got|=%d)",
		refName, name, sup, missing, extra, tallies, len(want), len(got))
}

// assertPatternInvariants spot-checks the reference miner's own output:
// every reported tally matches a direct scan, meets the threshold, and
// no itemset repeats an attribute.
func assertPatternInvariants(t *testing.T, db *TxDB, ps []FrequentPattern, minCount int64, name string, sup float64) {
	t.Helper()
	// Direct scans are quadratic; checking a spread of patterns keeps the
	// suite fast while still catching systematic tally corruption.
	step := len(ps)/25 + 1
	for i := 0; i < len(ps); i += step {
		p := ps[i]
		if got := p.Tally.Total(); got < minCount {
			t.Errorf("%s(sup=%v): itemset %q support %d below threshold %d", name, sup, p.Items.Key(), got, minCount)
		}
		if want := db.TallyOf(p.Items); want != p.Tally {
			t.Errorf("%s(sup=%v): itemset %q tally %v, direct scan %v", name, sup, p.Items.Key(), p.Tally, want)
		}
		seen := make(map[int]bool)
		for _, it := range p.Items {
			a := db.Catalog.Attr(it)
			if seen[a] {
				t.Errorf("%s(sup=%v): itemset %q repeats attribute %d", name, sup, p.Items.Key(), a)
			}
			seen[a] = true
		}
	}
}

func TestRandomGeneratorDeterministic(t *testing.T) {
	cfg := datagen.RandomConfig{Rows: 100, Attrs: 4, MaxCard: 5}
	a, err := datagen.Random(9, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := datagen.Random(9, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Data.NumRows() != b.Data.NumRows() || a.Data.NumAttrs() != b.Data.NumAttrs() {
		t.Fatal("same seed produced different shapes")
	}
	for r := range a.Data.Rows {
		for c := 0; c < a.Data.NumAttrs(); c++ {
			if a.Data.Value(r, c) != b.Data.Value(r, c) {
				t.Fatalf("same seed diverged at row %d col %d", r, c)
			}
		}
		if a.Truth[r] != b.Truth[r] || a.Pred[r] != b.Pred[r] {
			t.Fatalf("same seed diverged in labels at row %d", r)
		}
	}
	c, err := datagen.Random(10, cfg)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for r := 0; r < a.Data.NumRows() && same; r++ {
		for col := 0; col < a.Data.NumAttrs(); col++ {
			if a.Data.Value(r, col) != c.Data.Value(r, col) {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("different seeds produced identical data")
	}
	if _, err := datagen.Random(1, datagen.RandomConfig{Rows: 0, Attrs: 1, MaxCard: 2}); err == nil {
		t.Error("zero rows accepted")
	}
}
