package fpm

import "math/bits"

// The cover layout (DESIGN.md §18): every reader of item bitsets — the
// kernel, Apriori, the cover index and lattice navigation — builds its
// item covers here, one way. Rows are laid out by outcome class: class
// c's rows fill the words [lo[c], lo[c+1]) of every cover, in dataset
// order and padded to a word boundary, and a class with no rows owns no
// words. A cover's tally is then K popcount sums over fixed word
// ranges, so one AND-and-popcount pass over two covers (AndTally) gives
// both the joint cover and its whole Tally.
//
// A layout is built in two passes over the rows. Count tallies every
// item and sets each class's word range; Pack then writes the covers of
// an item list the caller chooses into a buffer the caller owns. A
// cover takes ⌈n/64⌉ words whatever the item's count, so no reader
// packs every item.

// Layout is one TxDB's class-sorted cover geometry and item tallies.
// Reusing a Layout across Count calls over databases of one catalog
// allocates nothing.
type Layout struct {
	words  int                 // words per cover
	lo     [MaxClasses + 1]int // class c owns words [lo[c], lo[c+1])
	total  Tally               // rows per class: the empty itemset's tally
	counts []Tally             // per-item tallies
	pos    []int32             // item -> its entry in the last pack, -1 when left out
}

// Count is the first pass: it tallies every item of db and sets each
// class's word range.
func (l *Layout) Count(db *TxDB) {
	if n := db.Catalog.NumItems(); len(l.counts) != n {
		l.counts = make([]Tally, n)
		l.pos = make([]int32, n)
	}
	clear(l.counts)
	l.total = Tally{}
	counts, base := l.counts, db.Catalog.base
	for r, c := range db.Classes {
		l.total[c]++
		for a, v := range db.Row(r) {
			counts[base[a]+v][c]++
		}
	}
	for c, n := range l.total {
		l.lo[c+1] = l.lo[c] + int((n+63)/64)
	}
	l.words = l.lo[MaxClasses]
}

// Words returns the number of words in one cover.
func (l *Layout) Words() int { return l.words }

// Frequent appends to dst, in ascending id order, the items whose
// support count reaches minCount.
//
// lint:ignore hotalloc dst is the caller's buffer; a warm kernel passes its top-level list reset to length 0
func (l *Layout) Frequent(minCount int64, dst []Item) []Item {
	for it, t := range l.counts {
		if t.Total() >= minCount {
			dst = append(dst, Item(it))
		}
	}
	return dst
}

// Pack is the second pass: items[e]'s cover goes to covers[e*w:(e+1)*w],
// with w = Words(). The items must be distinct, and db must be the
// database Count last read.
func (l *Layout) Pack(db *TxDB, items []Item, covers []uint64) {
	for it := range l.pos {
		l.pos[it] = -1
	}
	for e, it := range items {
		l.pos[it] = int32(e)
	}
	l.scatter(db, covers[:len(items)*l.words])
}

// packUsed packs the covers of the distinct items that itemsets use, by
// order of first use, into a new buffer with spare words after them.
func (l *Layout) packUsed(db *TxDB, itemsets []Itemset, spare int) []uint64 {
	for it := range l.pos {
		l.pos[it] = -1
	}
	n := int32(0)
	for _, is := range itemsets {
		for _, it := range is {
			if l.pos[it] < 0 {
				l.pos[it], n = n, n+1
			}
		}
	}
	covers := make([]uint64, int(n)*l.words+spare)
	l.scatter(db, covers[:int(n)*l.words])
	return covers
}

// scatter clears covers, then sets each row's bit in the covers of its
// items that pos maps to an entry.
func (l *Layout) scatter(db *TxDB, covers []uint64) {
	clear(covers)
	w := l.words
	var next [MaxClasses]int // next bit within each class's range
	pos, base := l.pos, db.Catalog.base
	for r, c := range db.Classes {
		bit := 64*l.lo[c] + next[c]
		next[c]++
		word, mask := bit/64, uint64(1)<<(bit%64)
		for a, v := range db.Row(r) {
			if e := pos[base[a]+v]; e >= 0 {
				covers[int(e)*w+word] |= mask
			}
		}
	}
}

// Full writes the cover of every row, the empty itemset's, into dst and
// returns its tally.
func (l *Layout) Full(dst []uint64) Tally {
	for c, n := range l.total {
		w := l.lo[c]
		for ; n >= 64; n -= 64 {
			dst[w] = ^uint64(0)
			w++
		}
		if n > 0 {
			dst[w] = 1<<n - 1
		}
	}
	return l.total
}

// AndTally stores a AND b into dst and returns its tally: the popcount
// of each class's word range. It is the one routine that intersects two
// covers; dst may alias a or b.
func (l *Layout) AndTally(dst, a, b []uint64) Tally {
	a, b = a[:len(dst)], b[:len(dst)]
	var t Tally
	for c := 0; c < MaxClasses; c++ {
		n := 0
		for w := l.lo[c]; w < l.lo[c+1]; w++ {
			x := a[w] & b[w]
			dst[w] = x
			n += bits.OnesCount64(x)
		}
		t[c] = int64(n)
	}
	return t
}
