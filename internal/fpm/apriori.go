package fpm

import (
	"context"
	"fmt"
)

// Apriori mines frequent itemsets level-wise (Agrawal & Srikant, VLDB'94)
// over a vertical bitset layout: every itemset carries the bitset of rows
// it covers, candidate covers are bitwise intersections, and outcome
// tallies are masked popcounts against per-class row bitsets. This is the
// Apriori-based variant of Algorithm 1.
type Apriori struct{}

// Name implements Miner.
func (Apriori) Name() string { return "apriori" }

// levelEntry is one frequent itemset of the current level with its cover.
type levelEntry struct {
	items Itemset
	cover bitset
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
	n := db.NumRows()
	cat := db.Catalog

	// Per-class row bitsets, used to split covers into tallies.
	classBits := make([]bitset, db.K)
	for c := range classBits {
		classBits[c] = newBitset(n)
	}
	for r, c := range db.Classes {
		classBits[c].set(r)
	}
	tallyOf := func(cover bitset) Tally {
		var t Tally
		for c := 0; c < db.K; c++ {
			t[c] = countAnd(cover, classBits[c])
		}
		return t
	}

	// Level 1: item covers.
	itemCover := make([]bitset, cat.NumItems())
	for i := range itemCover {
		itemCover[i] = newBitset(n)
	}
	for r, row := range db.Data.Rows {
		for a, v := range row {
			itemCover[cat.ItemFor(a, v)].set(r)
		}
	}
	var out []FrequentPattern
	var level []levelEntry
	for i := 0; i < cat.NumItems(); i++ {
		cover := itemCover[i]
		if cover.count() < minCount {
			continue
		}
		items := Itemset{Item(i)}
		out = append(out, FrequentPattern{Items: items, Tally: tallyOf(cover)})
		level = append(level, levelEntry{items: items, cover: cover})
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
				cover := newBitset(n)
				intersect(cover, a.cover, b.cover)
				tally := tallyOf(cover)
				if tally.Total() < minCount {
					continue
				}
				out = append(out, FrequentPattern{Items: cand, Tally: tally})
				next = append(next, levelEntry{items: cand, cover: cover})
			}
		}
		level = next
	}
	return out, nil
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
