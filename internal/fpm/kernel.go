package fpm

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"time"
)

// The serving miner's kernel: a depth-first search over per-item row
// bitsets (DESIGN.md §6), read from the class-sorted cover layout of
// layout.go. Each depth keeps the list of the current node's frequent
// extensions with their covers; the children of P∪{i} are the later
// entries j of P's list whose cover still meets the threshold with i's.
// An item that shares an attribute with P has an empty cover with P, so
// it never enters P's list and no attribute mask is needed.
//
// The batch order (Parallel.Mine) lists items by ascending id at every
// level, so the depth-first pre-order is the canonical comparePatterns
// order. The stream order (MineVisit) lists top-level items least
// frequent first and visits them from the end: subtree i then holds
// exactly the patterns whose least frequent item is i, subtrees run most
// frequent first, and each starts with its singleton.

// level is one depth's list of frequent extensions: entry e has item
// items[e], tally tally[e] and cover covers[e*words:(e+1)*words].
type level struct {
	items  []Item
	tally  []Tally
	covers []uint64
}

// kernel is one worker's warm state: its layout, depth lists, prefix
// and pattern arena. Reusing a kernel makes a whole mine
// allocation-free once its buffers reach their high-water marks.
type kernel struct {
	ctx      context.Context // nil on the stream, whose budget stops it
	done     <-chan struct{} // ctx.Done() of a batch mine, polled at every node without taking ctx's lock
	minCount int64
	lay      Layout            // the mine's layout, shared by its workers
	levels   []level           // levels[0] is the top-level list, shared by a mine's workers
	prefix   Itemset           // the current node's items, in visit order
	patArena []Item            // append-only backing of collected pattern items
	out      []FrequentPattern // collected patterns when visit is nil

	// Stream state: the visitor, its budget and the patterns charged.
	visit   Visitor
	budget  AnytimeBudget
	count   int64
	reason  CompletionReason
	scratch Itemset
}

// newKernel sizes a kernel's depth lists for a catalog: a pattern holds
// at most one item per attribute, so the search is at most NumAttrs deep.
//
// lint:ignore hotalloc kernel construction is per-mine (or per-worker) setup, amortized over the whole mine
func newKernel(cat *Catalog) *kernel {
	return &kernel{
		levels: make([]level, cat.NumAttrs()+1),
		prefix: make(Itemset, 0, cat.NumAttrs()),
	}
}

// prepare lays db out and fills the top-level list with its frequent
// items and their covers. stream selects the stream's item order over
// the batch's.
func (k *kernel) prepare(db *TxDB, minCount int64, stream bool) {
	k.lay.Count(db)
	k.minCount = minCount
	k.prefix, k.patArena, k.out = k.prefix[:0], k.patArena[:0], k.out[:0]

	top := &k.levels[0]
	top.items = k.lay.Frequent(minCount, top.items[:0])
	if stream {
		sortItemsByCount(top.items, k.lay.counts)
		slices.Reverse(top.items)
	}
	top.tally = top.tally[:0]
	for _, it := range top.items {
		top.tally = append(top.tally, k.lay.counts[it])
	}
	top.covers = growWords(top.covers, len(top.items)*k.lay.words)
	k.lay.Pack(db, top.items, top.covers)
}

// share points a worker kernel at another kernel's context and
// read-only layout.
func (k *kernel) share(src *kernel) *kernel {
	k.ctx, k.done, k.minCount, k.lay = src.ctx, src.done, src.minCount, src.lay
	k.levels[0] = src.levels[0]
	return k
}

// sub visits entry e of level d: it emits the prefix extended by e's
// item, lists e's frequent extensions as level d+1 and visits them.
func (k *kernel) sub(d, e int) error {
	select {
	case <-k.done:
		return mineCanceled{k.ctx.Err()}
	default:
	}
	lv := &k.levels[d]
	k.prefix = append(k.prefix, lv.items[e])
	err := k.emit(lv.tally[e])
	if n := len(lv.items) - e - 1; err == nil && n > 0 {
		w := k.lay.words
		next := &k.levels[d+1]
		next.items, next.tally = next.items[:0], next.tally[:0]
		next.covers = growWords(next.covers, n*w)
		cover := lv.covers[e*w : (e+1)*w]
		for j := e + 1; j < len(lv.items); j++ {
			m := len(next.items)
			t := k.lay.AndTally(next.covers[m*w:(m+1)*w], cover, lv.covers[j*w:(j+1)*w])
			if t.Total() >= k.minCount {
				next.items = append(next.items, lv.items[j])
				next.tally = append(next.tally, t)
			}
		}
		for j := 0; err == nil && j < len(next.items); j++ {
			err = k.sub(d+1, j)
		}
	}
	k.prefix = k.prefix[:len(k.prefix)-1]
	return err
}

// emit hands the current node's pattern to the visitor, charging the
// stream's budget first, or collects it when there is no visitor.
func (k *kernel) emit(t Tally) error {
	if k.visit == nil {
		k.collect(t)
		return nil
	}
	if k.budget.MaxPatterns > 0 && k.count >= k.budget.MaxPatterns {
		k.reason = ReasonBudget
		return errAnytimeStop
	}
	if k.count%deadlineCheckEvery == 0 {
		if !k.budget.Deadline.IsZero() && !time.Now().Before(k.budget.Deadline) {
			k.reason = ReasonDeadline
			return errAnytimeStop
		}
		select {
		case <-k.budget.Done:
			return errStreamCanceled
		default:
		}
	}
	k.count++
	k.scratch = append(k.scratch[:0], k.prefix...)
	slices.Sort(k.scratch)
	return k.visit(FrequentPattern{Items: k.scratch, Tally: t})
}

// collect appends the current pattern to the output, carving its items
// out of the append-only pattern arena.
//
// lint:ignore hotalloc the arena and output grow to one mine's size; a warm kernel re-mines into the same capacity
func (k *kernel) collect(t Tally) {
	start := len(k.patArena)
	k.patArena = append(k.patArena, k.prefix...)
	end := len(k.patArena)
	k.out = append(k.out, FrequentPattern{Items: k.patArena[start:end:end], Tally: t})
}

// growWords returns buf resized to n words, reallocating only when its
// capacity falls short.
//
// lint:ignore hotalloc cover buffers grow once per depth high-water mark; every later node at that depth reuses them
func growWords(buf []uint64, n int) []uint64 {
	if cap(buf) < n {
		return make([]uint64, n)
	}
	return buf[:n]
}

// MineVisit calls visit for every frequent pattern, with items sorted
// ascending within each pattern. Subtrees run most frequent item first,
// each starting with its singleton, and the stream stops early when the
// budget runs out; the zero budget streams every pattern. Every emitted
// pattern carries its exact tally: budgets truncate the stream, they
// never distort it. The returned info says whether the stream is
// complete (ReasonExhausted) or why it was cut. A visitor error aborts
// the mine and is returned as-is, and so does a closed budget Done
// channel, with an error of its own.
func MineVisit(db *TxDB, minCount int64, budget AnytimeBudget, visit Visitor) (AnytimeInfo, error) {
	if minCount < 1 {
		return AnytimeInfo{}, fmt.Errorf("fpm: minCount %d < 1", minCount)
	}
	if visit == nil {
		return AnytimeInfo{}, fmt.Errorf("fpm: nil visitor")
	}
	return newKernel(db.Catalog).visitAll(db, minCount, budget, visit)
}

// visitAll is the warm-state core of MineVisit: reusing k across calls
// makes the whole budgeted stream allocation-free (guarded in
// anytime_test.go).
//
// lint:hot
func (k *kernel) visitAll(db *TxDB, minCount int64, budget AnytimeBudget, visit Visitor) (AnytimeInfo, error) {
	k.prepare(db, minCount, true)
	k.visit, k.budget, k.count, k.reason = visit, budget, 0, ReasonExhausted
	var err error
	for e := len(k.levels[0].items) - 1; err == nil && e >= 0; e-- {
		err = k.sub(0, e)
	}
	k.visit = nil // drop the visitor so the warm state does not pin it
	if err != nil && !errors.Is(err, errAnytimeStop) {
		return AnytimeInfo{}, err
	}
	return AnytimeInfo{Reason: k.reason, Patterns: k.count}, nil
}
