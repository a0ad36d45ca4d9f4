package fpm

import (
	"encoding/binary"
	"math/bits"
)

// The tally re-fold seam for permutation testing (DESIGN.md §15).
//
// Itemset covers — which rows an itemset matches — depend only on the
// attribute values, never on the outcome labels, so re-counting an
// itemset under permuted labels is a fold over its stored cover instead
// of a re-mine. Each cover is stored in the smaller of two forms: a row
// bitset of W = ⌈n/64⌉ words, or an ascending int32 row list. A cover
// of at least 2W rows is a bitset, since a row list that long takes at
// least the bitset's bytes. Only this file knows either form.

// CoverIndex holds the support sets of a fixed list of itemsets over one
// transaction database. The index is immutable after construction and
// safe for concurrent readers.
type CoverIndex struct {
	covers []cover  // one per itemset, in input order
	words  []uint64 // bitset covers, w words each
	rows   []int32  // row-list covers, each ascending
	w      int      // words per bitset: ⌈numRows/64⌉
}

// cover locates one itemset's cover: count rows, stored at off in words
// when the count is at least 2w and at off in rows otherwise.
type cover struct {
	off, count int
}

// isBitset reports the form of a cover of count rows.
func (c *CoverIndex) isBitset(count int) bool { return count >= 2*c.w }

// BuildCoverIndex computes the cover of every itemset as the AND of its
// items' layout covers, then stores it in the smaller form, extracting a
// row list from the bitset when that is the smaller. The fold reads no
// per-class tally and every permutation relabels the rows, so the index
// lays the rows out as one class, in dataset order: class ranges would
// only pad each cover by up to K−1 words. Construction is a cold path:
// the layout's two passes pack the covers of the items the itemsets
// use, then each itemset costs one AndTally per item.
func BuildCoverIndex(db *TxDB, itemsets []Itemset) *CoverIndex {
	flat := TxDB{Catalog: db.Catalog, Data: db.Data, Classes: make([]uint8, db.NumRows()), K: 1}
	var lay Layout
	lay.Count(&flat)
	w := lay.Words()
	c := &CoverIndex{covers: make([]cover, len(itemsets)), w: w}
	itemCovers := lay.packUsed(&flat, itemsets, w) // then the accumulator
	acc := itemCovers[len(itemCovers)-w:]
	for i, is := range itemsets {
		t := lay.Full(acc) // the empty itemset covers every row
		for _, it := range is {
			t = lay.AndTally(acc, acc, itemCovers[int(lay.pos[it])*w:][:w])
		}
		count := int(t.Total())
		if c.isBitset(count) {
			c.covers[i] = cover{off: len(c.words), count: count}
			c.words = append(c.words, acc...)
			continue
		}
		c.covers[i] = cover{off: len(c.rows), count: count}
		for j, x := range acc {
			for ; x != 0; x &= x - 1 {
				c.rows = append(c.rows, int32(64*j+bits.TrailingZeros64(x)))
			}
		}
	}
	return c
}

// Len returns the number of indexed itemsets.
func (c *CoverIndex) Len() int { return len(c.covers) }

// Fold returns how many of itemset i's covered rows lie in the split's
// positive row set and how many in its negative one — the two counts a
// metric's rate needs. A bitset cover is two AND-and-popcount passes
// over W words, a row list one code byte per covered row. Under a split
// of the database's own classes the counts equal TallyOf masked by the
// split's class masks.
//
// lint:hot
func (c *CoverIndex) Fold(i int, s *Split) (pos, neg int64) {
	cv := c.covers[i]
	if c.isBitset(cv.count) {
		words := c.words[cv.off : cv.off+c.w]
		p, q := s.pos[:len(words)], s.neg[:len(words)]
		for j, x := range words {
			pos += int64(bits.OnesCount64(x & p[j]))
			neg += int64(bits.OnesCount64(x & q[j]))
		}
		return pos, neg
	}
	// A row list sums its rows' codes, 1 for a positive row and 2 for a
	// negative one, to pos + 2·neg, and counts the odd codes for pos;
	// four rows a step keep the gathers independent of each other.
	var sum, odd int64
	code, rows := s.code, c.rows[cv.off:cv.off+cv.count]
	for ; len(rows) >= 4; rows = rows[4:] {
		a, b, x, y := int64(code[rows[0]]), int64(code[rows[1]]), int64(code[rows[2]]), int64(code[rows[3]])
		sum += a + b + x + y
		odd += a&1 + b&1 + x&1 + y&1
	}
	for _, r := range rows {
		x := int64(code[r])
		sum += x
		odd += x & 1
	}
	return odd, (sum - odd) >> 1
}

// Split is a labelling of an index's rows into two disjoint sets — a
// metric's positive rows and its negative rows — held in both forms
// Fold reads: one row bitset per set, for bitset covers, and one code
// byte per row, for row lists (bit 0 set when the row is positive, bit
// 1 when it is negative). A Split is written in place by Fill, so one
// split serves any number of labellings without allocating.
type Split struct {
	pos, neg []uint64
	code     []uint8
}

// NewSplit returns a split sized for the index's rows, with both sets
// empty until Fill writes it. The code bytes run to the end of the last
// bitset word; Fill never writes the padding, so it stays zero.
func (c *CoverIndex) NewSplit() *Split {
	return &Split{
		pos:  make([]uint64, c.w),
		neg:  make([]uint64, c.w),
		code: make([]uint8, 64*c.w),
	}
}

// Fill writes the split of one per-row class labelling under two
// disjoint class masks: row r is positive when bit classes[r] of pos is
// set and negative when that bit of neg is. classes must hold one class
// in [0, MaxClasses) per row of the index.
//
// lint:hot
func (s *Split) Fill(classes []uint8, pos, neg uint16) {
	var codeOf [MaxClasses]uint8
	for c := range codeOf {
		codeOf[c] = uint8(pos>>c&1 | (neg>>c&1)<<1)
	}
	for r, c := range classes {
		s.code[r] = codeOf[c&(MaxClasses-1)] // the mask only drops the bounds check
	}
	// Word j of each bitset packs one code bit of rows 64j..64j+63,
	// eight rows a step.
	for j := range s.pos {
		var p, q uint64
		for k := 0; k < 64; k += 8 {
			x := binary.LittleEndian.Uint64(s.code[64*j+k:])
			p |= packBytes(x&lowBits) << k
			q |= packBytes(x>>1&lowBits) << k
		}
		s.pos[j], s.neg[j] = p, q
	}
}

// lowBits selects bit 0 of each byte of a word.
const lowBits = 0x0101010101010101

// packBytes gathers eight bytes that are each 0 or 1 into one byte, byte
// i of x becoming bit i: the multiply adds byte i's bit at bit 56+i and
// every other product below bit 56 or above bit 63, with no carries.
func packBytes(x uint64) uint64 { return x * 0x0102040810204080 >> 56 }
