package fpm

import (
	"context"
	"fmt"
)

// FPGrowth mines frequent itemsets with the FP-growth algorithm (Han,
// Pei & Yin, SIGMOD'00), generalized so that every tree node carries an
// outcome Tally rather than a scalar count. Conditional pattern bases
// propagate tallies, so each reported pattern comes with the exact class
// counts needed to evaluate divergence metrics — the FP-growth-based
// variant of Algorithm 1. This is the default miner used by the
// experiments, matching the paper's choice.
//
// The implementation is allocation-free in steady state: tree nodes come
// from a mark/release arena, the per-tree header table and item tallies
// live in dense per-item columns owned by reusable per-depth frames, and
// emitted pattern item slices are carved out of an append-only arena.
// The testing.AllocsPerRun guard in fpgrowth_alloc_test.go holds the
// warm-state mine at zero allocations per run.
type FPGrowth struct{}

// Name implements Miner.
func (FPGrowth) Name() string { return "fpgrowth" }

// fpNode is one FP-tree node. Nodes are arena-allocated and live only
// while the conditional tree that owns them is being mined.
type fpNode struct {
	item    Item
	tally   Tally
	parent  *fpNode
	child   *fpNode // first child
	sibling *fpNode // next sibling of parent
	hlink   *fpNode // next node holding the same item
}

// arenaChunkSize is the node count of one arena chunk. Chunks are never
// freed: the arena's high-water mark is the deepest simultaneous set of
// conditional trees, which the mine reuses for every later subproblem.
const arenaChunkSize = 4096

// nodeArena hands out fpNodes from reusable chunks under stack
// discipline: conditional trees are built and torn down LIFO with the
// mine recursion, so releasing back to a mark retires a whole tree at
// once without touching the garbage collector.
type nodeArena struct {
	chunks [][]fpNode
	chunk  int // index of the chunk currently allocated from
	used   int // nodes handed out of that chunk
}

// arenaMark is a rewind point for release.
type arenaMark struct{ chunk, used int }

func (a *nodeArena) mark() arenaMark     { return arenaMark{a.chunk, a.used} }
func (a *nodeArena) release(m arenaMark) { a.chunk, a.used = m.chunk, m.used }
func (a *nodeArena) reset()              { a.chunk, a.used = 0, 0 }

// alloc returns a zeroed node, growing the arena only when every
// existing chunk is exhausted.
func (a *nodeArena) alloc() *fpNode {
	if a.chunk < len(a.chunks) && a.used == len(a.chunks[a.chunk]) {
		a.chunk++
		a.used = 0
	}
	if a.chunk == len(a.chunks) {
		a.grow()
	}
	n := &a.chunks[a.chunk][a.used]
	a.used++
	*n = fpNode{}
	return n
}

// grow appends one chunk to the arena.
//
// lint:ignore hotalloc arena growth runs once per high-water chunk; every later subproblem and mine reuses the capacity
func (a *nodeArena) grow() {
	a.chunks = append(a.chunks, make([]fpNode, arenaChunkSize))
}

// wtx is one weighted transaction of a conditional pattern base: a
// subrange of the owning frame's flat item buffer plus its tally weight.
type wtx struct {
	start, end int32
	w          Tally
}

// mineFrame is the reusable workspace for one FP-tree: dense per-item
// columns (header chains and tallies, reset via the touched list), the
// tree root, and the scratch buffers for building the next conditional
// pattern base. One frame exists per recursion depth and is reused for
// every subproblem that reaches that depth.
type mineFrame struct {
	totals  []Tally   // per-item tally in this tree; nonzero only for touched items
	headers []*fpNode // per-item header chain; non-nil only for inserted items
	touched []Item    // items with nonzero totals, in first-touch order
	items   []Item    // frequent items of this tree, ascending
	flat    []Item    // backing store for the conditional base paths
	base    []wtx     // conditional base transactions over flat
	txBuf   []Item    // one filtered, rank-ordered transaction
	root    fpNode
}

// newMineFrame allocates the dense per-item columns of one frame.
//
// lint:ignore hotalloc frame construction is the pool's cold path: it runs once per recursion-depth high-water mark and the buffers are reused for the rest of the process
func newMineFrame(numItems int) *mineFrame {
	return &mineFrame{
		totals:  make([]Tally, numItems),
		headers: make([]*fpNode, numItems),
	}
}

// clear zeroes the dense columns this frame touched, returning it to
// the all-clean state new frames start in. The scratch slices keep
// their capacity; builds re-cursor them.
func (f *mineFrame) clear() {
	for _, it := range f.touched {
		f.totals[it] = Tally{}
		f.headers[it] = nil
	}
}

// findOrAddChild returns n's child holding it, creating it from the
// arena and linking it into f's header chain when absent.
func (n *fpNode) findOrAddChild(it Item, f *mineFrame, s *mineState) *fpNode {
	for c := n.child; c != nil; c = c.sibling {
		if c.item == it {
			return c
		}
	}
	c := s.arena.alloc()
	c.item = it
	c.parent = n
	c.sibling = n.child
	n.child = c
	c.hlink = f.headers[it]
	f.headers[it] = c
	return c
}

// insert adds one weighted, pre-ordered transaction path to f's tree.
func (f *mineFrame) insert(s *mineState, items []Item, w Tally) {
	n := &f.root
	for _, it := range items {
		n = n.findOrAddChild(it, f, s)
		n.tally.Add(w)
	}
}

// mineState owns every reusable buffer of one mine: the node arena, the
// per-depth frames, the global rank table, the suffix stack, and the
// append-only arena backing emitted pattern item slices. A state serves
// one mine (or one parallel worker) at a time; reusing a warm state
// makes the whole mine allocation-free.
type mineState struct {
	numItems int
	order    []int32 // item -> global insertion rank; -1 when infrequent
	arena    nodeArena
	frames   []*mineFrame
	suffix   []Item // fixed-capacity pattern stack (max depth = NumAttrs+1)
	sufLen   int
	patArena []Item      // append-only backing for emitted pattern slices
	anySink  anytimeSink // reusable budgeted sink; its scratch amortizes like the arenas
}

// newMineState sizes a state for a catalog.
//
// lint:ignore hotalloc state construction is per-mine (or per-worker) setup, amortized over the whole mine
func newMineState(numItems, numAttrs int) *mineState {
	return &mineState{
		numItems: numItems,
		order:    make([]int32, numItems),
		suffix:   make([]Item, numAttrs+1),
	}
}

// frameAt returns the reusable frame for one recursion depth.
//
// lint:ignore hotalloc frame acquisition runs once per recursion-depth high-water mark; every later visit to that depth reuses the frame
func (s *mineState) frameAt(depth int) *mineFrame {
	for len(s.frames) <= depth {
		s.frames = append(s.frames, newMineFrame(s.numItems))
	}
	return s.frames[depth]
}

// patternSink consumes one frequent pattern per call during a mine. The
// items slice aliases the miner's reused suffix stack and is valid only
// for the duration of the call: implementations copy what they retain.
// Returning an error aborts the mine.
type patternSink interface {
	emit(items Itemset, t Tally) error
}

// arenaCollector materializes patterns for the batch API: item slices
// are carved out of the state's append-only pattern arena, so a whole
// mine costs a handful of buffer growths instead of one allocation per
// pattern.
type arenaCollector struct {
	s   *mineState
	out []FrequentPattern
}

// emit implements patternSink.
func (c *arenaCollector) emit(items Itemset, t Tally) error {
	start := len(c.s.patArena)
	c.s.patArena = append(c.s.patArena, items...)
	end := len(c.s.patArena)
	c.out = append(c.out, FrequentPattern{Items: Itemset(c.s.patArena[start:end:end]), Tally: t})
	return nil
}

// mineCanceled reports a mine aborted by context cancellation. It is a
// concrete type rather than fmt.Errorf so the loop-hot recursion does
// not box format arguments on its only error path.
type mineCanceled struct{ err error }

func (e mineCanceled) Error() string { return "fpm: mining canceled: " + e.err.Error() }
func (e mineCanceled) Unwrap() error { return e.err }

// Mine implements Miner. The recursion checks the context at every
// conditional-tree boundary and aborts with an error wrapping ctx.Err()
// once it is canceled.
//
// lint:hot
func (FPGrowth) Mine(ctx context.Context, db *TxDB, minCount int64) ([]FrequentPattern, error) {
	if minCount < 1 {
		return nil, fmt.Errorf("fpm: minCount %d < 1", minCount)
	}
	s := newMineState(db.Catalog.NumItems(), db.Catalog.NumAttrs())
	root := s.buildRoot(db, minCount)
	col := arenaCollector{s: s}
	if err := s.mineAll(ctx, root, 1, minCount, &col); err != nil {
		return nil, err
	}

	// Canonicalize: sort items within each pattern, then sort the output
	// for deterministic downstream consumption.
	out := col.out
	for i := range out {
		sortItems(out[i].Items)
	}
	sortPatterns(out)
	return out, nil
}

// buildRoot rebuilds the initial FP-tree over the database into frame 0:
// global item tallies fix the insertion order (descending support, ties
// by item id), then every row is filtered to frequent items, rank-
// ordered, and inserted. The state's arenas are rewound first, so a warm
// state re-mines without allocating.
func (s *mineState) buildRoot(db *TxDB, minCount int64) *mineFrame {
	f := s.frameAt(0)
	f.clear()
	f.root = fpNode{}
	s.arena.reset()
	s.patArena = s.patArena[:0]
	s.sufLen = 0
	for i := range s.order {
		s.order[i] = -1
	}

	// First pass: global item tallies.
	cat := db.Catalog
	f.touched = f.touched[:0]
	f.items = f.items[:0]
	for r, row := range db.Data.Rows {
		c := db.Classes[r]
		for a, v := range row {
			it := cat.ItemFor(a, v)
			if f.totals[it] == (Tally{}) {
				f.touched = append(f.touched, it)
			}
			f.totals[it][c]++
		}
	}
	for _, it := range f.touched {
		if f.totals[it].Total() >= minCount {
			f.items = append(f.items, it)
		}
	}

	// Global ranks: descending support, ties by item id. Ranks are
	// unique, so the per-transaction order below is total.
	sortItemsByCount(f.items, f.totals)
	for r, it := range f.items {
		s.order[it] = int32(r)
	}
	sortItems(f.items) // ascending iteration order for mining

	// Second pass: insert each row's frequent items in rank order,
	// weighted by a unit tally of the row's class.
	for r, row := range db.Data.Rows {
		f.txBuf = f.txBuf[:0]
		for a, v := range row {
			it := cat.ItemFor(a, v)
			if s.order[it] >= 0 {
				f.txBuf = append(f.txBuf, it)
			}
		}
		if len(f.txBuf) == 0 {
			continue
		}
		sortByOrder(f.txBuf, s.order)
		var w Tally
		w[db.Classes[r]] = 1
		f.insert(s, f.txBuf, w)
	}
	return f
}

// mineAll mines every frequent item of root as an independent
// subproblem, in root.items order: ascending item id as buildRoot
// leaves it, support-descending when MineVisit re-sorts it.
func (s *mineState) mineAll(ctx context.Context, root *mineFrame, frameIdx int, minCount int64, sink patternSink) error {
	for _, it := range root.items {
		if err := s.mineSub(ctx, root, frameIdx, it, minCount, sink); err != nil {
			return err
		}
	}
	return nil
}

// mineSub mines one subproblem: emit the pattern suffix+it with its
// tally in parent, build it's conditional tree in the frameIdx-th frame,
// and recurse over the conditional tree's frequent items. The context
// is checked once per subproblem — i.e. at every conditional-tree
// boundary — so cancellation latency is bounded by one tree build, not
// a whole mine.
func (s *mineState) mineSub(ctx context.Context, parent *mineFrame, frameIdx int, it Item, minCount int64, sink patternSink) error {
	if err := ctx.Err(); err != nil {
		return mineCanceled{err}
	}
	s.suffix[s.sufLen] = it
	s.sufLen++
	if err := sink.emit(s.suffix[:s.sufLen], parent.totals[it]); err != nil {
		s.sufLen--
		return err
	}
	child := s.frameAt(frameIdx)
	m := s.arena.mark()
	child.buildFrom(s, parent, it, minCount)
	for _, ci := range child.items {
		if err := s.mineSub(ctx, child, frameIdx+1, ci, minCount, sink); err != nil {
			child.clear()
			s.arena.release(m)
			s.sufLen--
			return err
		}
	}
	child.clear()
	s.arena.release(m)
	s.sufLen--
	return nil
}

// buildFrom fills f with the conditional tree of item it within parent:
// the prefix path of every node holding it, weighted by that node's
// tally, filtered to items frequent within the base and ordered by
// global rank. f must be clean (as clear leaves it).
func (f *mineFrame) buildFrom(s *mineState, parent *mineFrame, it Item, minCount int64) {
	f.flat = f.flat[:0]
	f.base = f.base[:0]
	f.touched = f.touched[:0]
	f.items = f.items[:0]
	f.root = fpNode{}

	// One pass over the header chain collects the base and the
	// conditional item tallies together.
	for n := parent.headers[it]; n != nil; n = n.hlink {
		start := len(f.flat)
		for p := n.parent; p != nil && p.parent != nil; p = p.parent {
			f.flat = append(f.flat, p.item)
		}
		if len(f.flat) == start {
			continue
		}
		f.base = append(f.base, wtx{start: int32(start), end: int32(len(f.flat)), w: n.tally})
		for _, pi := range f.flat[start:] {
			if f.totals[pi] == (Tally{}) {
				f.touched = append(f.touched, pi)
			}
			f.totals[pi].Add(n.tally)
		}
	}
	for _, ti := range f.touched {
		if f.totals[ti].Total() >= minCount {
			f.items = append(f.items, ti)
		}
	}
	sortItems(f.items)

	// Insert the filtered, rank-ordered paths.
	for _, tx := range f.base {
		f.txBuf = f.txBuf[:0]
		for _, pi := range f.flat[tx.start:tx.end] {
			if f.totals[pi].Total() >= minCount {
				f.txBuf = append(f.txBuf, pi)
			}
		}
		if len(f.txBuf) == 0 {
			continue
		}
		sortByOrder(f.txBuf, s.order)
		f.insert(s, f.txBuf, tx.w)
	}
}

// lessItemsets is the canonical output order: lexicographic by item,
// shorter itemsets first on shared prefixes.
func lessItemsets(a, b Itemset) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

// The sorts below are hand-rolled so the hot path never allocates:
// sort.Slice takes a closure and boxes the slice into an interface,
// both of which are per-call heap traffic.

// sortItems heapsorts items ascending by id. Item ids are distinct
// within every list sorted here, so the order is total and the unstable
// sort is deterministic.
func sortItems(a []Item) {
	n := len(a)
	for i := n/2 - 1; i >= 0; i-- {
		siftItems(a, i, n)
	}
	for i := n - 1; i > 0; i-- {
		a[0], a[i] = a[i], a[0]
		siftItems(a, 0, i)
	}
}

func siftItems(a []Item, i, n int) {
	for {
		c := 2*i + 1
		if c >= n {
			return
		}
		if c+1 < n && a[c+1] > a[c] {
			c++
		}
		if a[i] >= a[c] {
			return
		}
		a[i], a[c] = a[c], a[i]
		i = c
	}
}

// sortItemsByCount heapsorts items by descending total tally, ties by
// ascending id — the global insertion-rank order.
func sortItemsByCount(a []Item, totals []Tally) {
	n := len(a)
	for i := n/2 - 1; i >= 0; i-- {
		siftItemsByCount(a, i, n, totals)
	}
	for i := n - 1; i > 0; i-- {
		a[0], a[i] = a[i], a[0]
		siftItemsByCount(a, 0, i, totals)
	}
}

// siftItemsByCount sifts under the max-heap order of lessByCount.
func siftItemsByCount(a []Item, i, n int, totals []Tally) {
	for {
		c := 2*i + 1
		if c >= n {
			return
		}
		if c+1 < n && lessByCount(a[c], a[c+1], totals) {
			c++
		}
		if !lessByCount(a[i], a[c], totals) {
			return
		}
		a[i], a[c] = a[c], a[i]
		i = c
	}
}

// lessByCount orders by descending support count, ties by ascending id.
func lessByCount(x, y Item, totals []Tally) bool {
	cx, cy := totals[x].Total(), totals[y].Total()
	if cx != cy {
		return cx > cy
	}
	return x < y
}

// sortByOrder insertion-sorts one transaction's items by their global
// rank. Transactions hold at most one item per attribute, so the input
// is short and insertion sort beats heapsort's constant factor.
func sortByOrder(a []Item, order []int32) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && order[a[j]] < order[a[j-1]]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

// sortPatterns heapsorts the mined output into the canonical
// lessItemsets order. Patterns are distinct, so the order is total.
func sortPatterns(ps []FrequentPattern) {
	n := len(ps)
	for i := n/2 - 1; i >= 0; i-- {
		siftPatterns(ps, i, n)
	}
	for i := n - 1; i > 0; i-- {
		ps[0], ps[i] = ps[i], ps[0]
		siftPatterns(ps, 0, i)
	}
}

func siftPatterns(ps []FrequentPattern, i, n int) {
	for {
		c := 2*i + 1
		if c >= n {
			return
		}
		if c+1 < n && lessItemsets(ps[c].Items, ps[c+1].Items) {
			c++
		}
		if !lessItemsets(ps[i].Items, ps[c].Items) {
			return
		}
		ps[i], ps[c] = ps[c], ps[i]
		i = c
	}
}
