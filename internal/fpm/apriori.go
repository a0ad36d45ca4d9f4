package fpm

import (
	"context"
	"fmt"
)

// Apriori mines frequent itemsets level-wise (Agrawal & Srikant, VLDB'94)
// over the vertical bitset layout of layout.go: every itemset carries
// the bitset of rows it covers, and one AND-and-popcount of two covers
// (Layout.AndTally) gives a candidate's cover and its outcome tally.
// This is the Apriori-based variant of Algorithm 1.
type Apriori struct{}

// Name implements Miner.
func (Apriori) Name() string { return "apriori" }

// levelEntry is one frequent itemset of the current level with its cover.
type levelEntry struct {
	items Itemset
	cover []uint64
}

// Mine implements Miner. The context is checked once per level, so a
// canceled mine stops before the next level's candidate join.
func (Apriori) Mine(ctx context.Context, db *TxDB, minCount int64) ([]FrequentPattern, error) {
	if minCount < 1 {
		return nil, fmt.Errorf("fpm: minCount %d < 1", minCount)
	}
	if err := ctx.Err(); err != nil {
		return nil, mineCanceled{err}
	}
	cat := db.Catalog

	// Level 1: the frequent items' covers, straight from the layout.
	var lay Layout
	lay.Count(db)
	w := lay.Words()
	items := lay.Frequent(minCount, nil)
	covers := make([]uint64, len(items)*w)
	lay.Pack(db, items, covers)
	var out []FrequentPattern
	var level []levelEntry
	for e, it := range items {
		is := Itemset{it}
		out = append(out, FrequentPattern{Items: is, Tally: lay.counts[it]})
		level = append(level, levelEntry{items: is, cover: covers[e*w : (e+1)*w]})
	}

	// Levels k >= 2: join entries sharing a (k-1)-prefix; prune candidates
	// with an infrequent subset; verify support by cover intersection.
	for len(level) >= 2 {
		if err := ctx.Err(); err != nil {
			return nil, mineCanceled{err}
		}
		frequentKeys := make(map[string]bool, len(level))
		for _, e := range level {
			frequentKeys[e.items.Key()] = true
		}
		var next []levelEntry
		k := len(level[0].items)
		for i := 0; i < len(level); i++ {
			for j := i + 1; j < len(level); j++ {
				a, b := level[i], level[j]
				if !samePrefix(a.items, b.items, k-1) {
					break // level is sorted lexicographically; prefixes diverge
				}
				lastA, lastB := a.items[k-1], b.items[k-1]
				// Items of the same attribute cannot co-occur in an itemset.
				if cat.Attr(lastA) == cat.Attr(lastB) {
					continue
				}
				cand := append(a.items.Clone(), lastB)
				if !allSubsetsFrequent(cand, frequentKeys) {
					continue
				}
				cover := make([]uint64, w)
				tally := lay.AndTally(cover, a.cover, b.cover)
				if tally.Total() < minCount {
					continue
				}
				out = append(out, FrequentPattern{Items: cand, Tally: tally})
				next = append(next, levelEntry{items: cand, cover: cover})
			}
		}
		level = next
	}
	return pack(out), nil
}

// samePrefix reports whether the first p items of a and b coincide.
func samePrefix(a, b Itemset, p int) bool {
	for i := 0; i < p; i++ {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// allSubsetsFrequent applies the Apriori pruning rule: every (k-1)-subset
// of a k-candidate must itself be frequent. Only the subsets dropping one
// of the first k-2 items need checking; the two generators are frequent
// by construction.
func allSubsetsFrequent(cand Itemset, frequent map[string]bool) bool {
	k := len(cand)
	buf := make(Itemset, 0, k-1)
	for drop := 0; drop < k-2; drop++ {
		buf = buf[:0]
		for i, it := range cand {
			if i != drop {
				buf = append(buf, it)
			}
		}
		if !frequent[buf.Key()] {
			return false
		}
	}
	return true
}
