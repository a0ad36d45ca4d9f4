package fpm

import (
	"context"
	"fmt"
	"slices"
)

// BruteForce enumerates frequent itemsets by depth-first search over
// attributes with anti-monotone support pruning, computing every tally by
// an explicit row scan over the current cover. It is deliberately simple:
// the reference implementation against which Apriori and FP-growth are
// checked for soundness and completeness (Theorem 5.1). Use only on small
// inputs.
type BruteForce struct{}

// Name implements Miner.
func (BruteForce) Name() string { return "brute" }

// Mine implements Miner. The context is checked once, at entry: the
// oracle runs only on inputs small enough to finish promptly.
func (BruteForce) Mine(ctx context.Context, db *TxDB, minCount int64) ([]FrequentPattern, error) {
	if minCount < 1 {
		return nil, fmt.Errorf("fpm: minCount %d < 1", minCount)
	}
	if err := ctx.Err(); err != nil {
		return nil, mineCanceled{err}
	}
	cat := db.Catalog
	var out []FrequentPattern

	all := make([]int, db.NumRows())
	for i := range all {
		all[i] = i
	}

	// Recursively extend the current itemset with items of attributes
	// strictly after fromAttr; cover is the current support-set.
	var walk func(items Itemset, cover []int, fromAttr int)
	walk = func(items Itemset, cover []int, fromAttr int) {
		for a := fromAttr; a < cat.NumAttrs(); a++ {
			for v := 0; v < cat.Cardinality(a); v++ {
				it := cat.ItemFor(a, int32(v))
				var sub []int
				var tally Tally
				for _, r := range cover {
					if db.Row(r)[a] == int32(v) {
						sub = append(sub, r)
						tally[db.Classes[r]]++
					}
				}
				if tally.Total() < minCount {
					continue
				}
				next := append(items.Clone(), it)
				out = append(out, FrequentPattern{Items: next, Tally: tally})
				walk(next, sub, a+1)
			}
		}
	}
	walk(nil, all, 0)

	slices.SortFunc(out, comparePatterns)
	return out, nil
}
