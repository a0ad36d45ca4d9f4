package monitor

import (
	"fmt"
	"sort"

	"repro/internal/dataset"
	"repro/internal/fpm"
)

// remineEvery is the backstop re-mine cadence: even when no conditional
// trigger fires, the tracked pattern set is refreshed after this many
// window advances, bounding how stale it can get (a pattern composed of
// already-frequent items that *became* frequent between mines is picked
// up here at the latest).
const remineEvery = 16

// remineLowFactor is the falling-edge hysteresis on tracking: a tracked
// pattern triggers a re-mine only when its window support drops below
// this fraction of the mining threshold, so patterns oscillating around
// the threshold do not force a re-mine per advance.
const remineLowFactor = 0.8

// maxTracked bounds the tracked pattern set per monitor. A window whose
// mine yields more keeps the highest-support patterns and counts the
// truncation, so memory stays bounded under adversarial cardinality.
const maxTracked = 4096

// trackedPattern is one subgroup the window maintains an exact tally
// for: the itemset, its decomposed (attribute, value-code) pairs for the
// allocation-free coverage test, and its current window tally.
type trackedPattern struct {
	items fpm.Itemset
	key   string  // Itemset.Key, the detector identity
	attrs []int32 // parallel to vals: attribute position per item
	vals  []uint8 // value code per item
	tally fpm.Tally
}

// bucketData is one event-time bucket: its start time and the rows that
// landed in it, stored flat (nAttrs value codes per row) so a bucket is
// two slices regardless of row count.
type bucketData struct {
	start   int64
	rows    []uint8
	classes []uint8
}

// window is the incremental tally engine. Events are applied to the
// current bucket and to the window aggregate as they arrive; when a
// bucket expires its rows are re-scanned once to decrement the same
// aggregate, so the cost of an advance is proportional to the expiring
// bucket, never to the window. The aggregate consists of the window
// total, exact per-item (singleton) tallies, and exact tallies for every
// tracked pattern. The tracked set comes from re-mining the window
// through fpm's streaming seam, triggered only when the frequent-pattern
// set may have shifted (needRemine).
//
// The window is not safe for concurrent use; the owning Monitor
// serializes access.
type window struct {
	cfg        WindowConfig
	attrs      []dataset.Attribute
	cat        *fpm.Catalog
	itemBase   []int32 // attribute -> first item id (mirror of the catalog's layout)
	nAttrs     int
	minSupport float64
	maxLen     int

	buckets  []bucketData
	head     int  // slot of the bucket currently filling
	count    int  // filled slots, including the current one
	started  bool // first event seen
	curStart int64
	closed   int // buckets closed since the last tumble reset

	rowsIn  int
	total   fpm.Tally
	items   []fpm.Tally // dense, indexed by catalog item id
	tracked []trackedPattern

	mined      bool
	mineItems  []bool // item was frequent at the last mine
	sinceMine  int
	advances   int64
	remines    int64
	lateDrops  int64
	capped     int64 // tracked-set truncations
	resetJumps int64 // whole-window resets from event-time gaps
}

// evaluator receives one callback per closed bucket, after the aggregate
// reflects exactly the window ending at endMs. The Monitor implements it
// with the detection layer.
type evaluator interface {
	evaluate(endMs int64)
}

// newWindow builds the window for a validated spec.
func newWindow(spec Spec) *window {
	attrs := spec.schema()
	cat := fpm.NewCatalog(&dataset.Dataset{Attrs: attrs})
	base := make([]int32, len(attrs))
	n := int32(0)
	for i := range attrs {
		base[i] = n
		n += int32(attrs[i].Cardinality())
	}
	return &window{
		cfg:        spec.Window,
		attrs:      attrs,
		cat:        cat,
		itemBase:   base,
		nAttrs:     len(attrs),
		minSupport: spec.MinSupport,
		maxLen:     spec.MaxLen,
		buckets:    make([]bucketData, spec.Window.Buckets),
		items:      make([]fpm.Tally, cat.NumItems()),
		mineItems:  make([]bool, cat.NumItems()),
	}
}

// align floors t to its bucket start.
func (w *window) align(t int64) int64 { return t - t%w.cfg.BucketMs }

// ingest routes one event into its bucket, advancing the window first if
// the event's time has moved past the current bucket. Each boundary
// crossed closes a bucket and calls ev.evaluate once.
func (w *window) ingest(e Event, ev evaluator) {
	if !w.started {
		w.started = true
		w.curStart = w.align(e.T)
		w.count = 1
		w.head = 0
		w.buckets[0].start = w.curStart
	}
	n := int64(len(w.buckets))
	if gap := (e.T - w.curStart) / w.cfg.BucketMs; gap >= n {
		// The event-time jump empties the entire window: close the
		// current bucket for a final evaluation, then reset in O(window)
		// once instead of advancing bucket-by-bucket across the gap.
		ev.evaluate(w.curStart + w.cfg.BucketMs)
		w.reset(w.align(e.T))
	} else {
		for e.T >= w.curStart+w.cfg.BucketMs {
			w.closeAdvance(ev)
		}
	}
	// Place the event: the current bucket, or a still-live earlier one.
	delta := (w.curStart - w.align(e.T)) / w.cfg.BucketMs
	if delta >= int64(w.count) {
		w.lateDrops++
		return
	}
	slot := (w.head - int(delta) + len(w.buckets)) % len(w.buckets)
	b := &w.buckets[slot]
	b.rows = append(b.rows, e.Vals...)
	b.classes = append(b.classes, e.Class)
	w.rowsIn++
	w.apply(e.Vals, e.Class, 1)
}

// closeAdvance closes the current bucket (evaluating the window that
// ends with it) and opens the next one, expiring the oldest bucket when
// the ring is full. For a tumbling window the evaluation only happens at
// the tumble boundary, where the whole window then resets.
func (w *window) closeAdvance(ev evaluator) {
	end := w.curStart + w.cfg.BucketMs
	w.closed++
	w.advances++
	w.sinceMine++
	if w.cfg.Tumbling {
		if w.closed >= len(w.buckets) {
			ev.evaluate(end)
			w.reset(end)
			return
		}
	} else {
		ev.evaluate(end)
	}
	next := (w.head + 1) % len(w.buckets)
	if w.count == len(w.buckets) {
		w.foldOut(&w.buckets[next])
	} else {
		w.count++
	}
	w.head = next
	w.curStart = end
	w.buckets[next].start = end
	w.buckets[next].rows = w.buckets[next].rows[:0]
	w.buckets[next].classes = w.buckets[next].classes[:0]
}

// reset empties the window and restarts it at the bucket containing
// startMs. Tracked patterns survive with zeroed tallies so detector
// identities persist across tumbles and gaps.
func (w *window) reset(startMs int64) {
	for i := range w.buckets {
		w.buckets[i].rows = w.buckets[i].rows[:0]
		w.buckets[i].classes = w.buckets[i].classes[:0]
	}
	w.total = fpm.Tally{}
	for i := range w.items {
		w.items[i] = fpm.Tally{}
	}
	for i := range w.tracked {
		w.tracked[i].tally = fpm.Tally{}
	}
	w.rowsIn = 0
	w.head = 0
	w.count = 1
	w.closed = 0
	w.curStart = startMs
	w.buckets[0].start = startMs
	w.resetJumps++
}

// apply folds one row into (sign +1) or out of (sign -1) the window
// aggregate: the window total, the per-item singleton tallies, and every
// tracked pattern covering the row. This is the ingest/advance hot path;
// it must not allocate.
//
// lint:hot
func (w *window) apply(vals []uint8, class uint8, sign int64) {
	w.total[class] += sign
	for a := 0; a < len(vals); a++ {
		w.items[w.itemBase[a]+int32(vals[a])][class] += sign
	}
	for i := range w.tracked {
		t := &w.tracked[i]
		covered := true
		for j := 0; j < len(t.attrs); j++ {
			if vals[t.attrs[j]] != t.vals[j] {
				covered = false
				break
			}
		}
		if covered {
			t.tally[class] += sign
		}
	}
}

// foldOut decrements an expiring bucket's rows from the aggregate and
// recycles its storage — the O(bucket) half of the advance contract.
//
// lint:hot
func (w *window) foldOut(b *bucketData) {
	for r := 0; r < len(b.classes); r++ {
		w.apply(b.rows[r*w.nAttrs:(r+1)*w.nAttrs], b.classes[r], -1)
	}
	w.rowsIn -= len(b.classes)
	b.rows = b.rows[:0]
	b.classes = b.classes[:0]
}

// minCount is the absolute support threshold over the current window.
func (w *window) minCount() int64 {
	return fpm.MinCount(w.rowsIn, w.minSupport)
}

// needRemine decides whether the frequent-pattern set may have shifted
// since the last mine. Triggers:
//
//   - no mine has happened yet;
//   - a tracked pattern's support fell below remineLowFactor of the
//     threshold (the frequent set shrank; the hysteresis band keeps
//     borderline patterns from re-mining every advance);
//   - a singleton item crossed the threshold that was not frequent at
//     the last mine (new patterns over it may now be frequent);
//   - the backstop cadence (remineEvery advances) expired.
func (w *window) needRemine(minCount int64) bool {
	if !w.mined {
		return true
	}
	if w.sinceMine >= remineEvery {
		return true
	}
	low := int64(remineLowFactor * float64(minCount))
	for i := range w.tracked {
		if w.tracked[i].tally.Total() < low {
			return true
		}
	}
	for i := range w.items {
		if !w.mineItems[i] && w.items[i].Total() >= minCount {
			return true
		}
	}
	return false
}

// remine rebuilds the tracked pattern set by mining the window's rows
// through fpm's streaming pattern seam. The visitor's tallies are exact
// over the window, so the aggregate is rebuilt in the same pass. Cost is
// O(window); the conditional triggers keep it off the steady-state path.
func (w *window) remine(minCount int64) error {
	rows := make([][]int32, 0, w.rowsIn)
	classes := make([]uint8, 0, w.rowsIn)
	for i := range w.buckets {
		b := &w.buckets[i]
		for r := 0; r < len(b.classes); r++ {
			row := make([]int32, w.nAttrs)
			for a := 0; a < w.nAttrs; a++ {
				row[a] = int32(b.rows[r*w.nAttrs+a])
			}
			rows = append(rows, row)
			classes = append(classes, b.classes[r])
		}
	}
	db, err := fpm.NewTxDB(&dataset.Dataset{Attrs: w.attrs, Rows: rows}, classes, fpm.MaxClasses)
	if err != nil {
		return fmt.Errorf("monitor: building window transaction db: %w", err)
	}
	tracked := w.tracked[:0]
	_, err = fpm.MineVisit(db, minCount, fpm.AnytimeBudget{}, func(p fpm.FrequentPattern) error {
		if len(p.Items) > w.maxLen {
			return nil
		}
		items := p.Items.Clone()
		attrs := make([]int32, len(items))
		vals := make([]uint8, len(items))
		for j, it := range items {
			attrs[j] = int32(w.cat.Attr(it))
			vals[j] = uint8(w.cat.Value(it))
		}
		tracked = append(tracked, trackedPattern{
			items: items,
			key:   items.Key(),
			attrs: attrs,
			vals:  vals,
			tally: p.Tally,
		})
		return nil
	})
	if err != nil {
		return fmt.Errorf("monitor: re-mining window: %w", err)
	}
	if len(tracked) > maxTracked {
		tracked = keepTopSupport(tracked, maxTracked)
		w.capped++
	}
	w.tracked = tracked
	for i := range w.items {
		w.mineItems[i] = w.items[i].Total() >= minCount
	}
	w.mined = true
	w.sinceMine = 0
	w.remines++
	return nil
}

// keepTopSupport returns the n highest-support patterns of tracked,
// ties by ascending key. The order is total, so the kept set and its
// order do not depend on the order the miner emitted the patterns in.
func keepTopSupport(tracked []trackedPattern, n int) []trackedPattern {
	sort.Slice(tracked, func(i, j int) bool {
		ti, tj := tracked[i].tally.Total(), tracked[j].tally.Total()
		if ti != tj {
			return ti > tj
		}
		return tracked[i].key < tracked[j].key
	})
	return tracked[:n]
}

// names renders an itemset as "attr=value" strings via the catalog.
func (w *window) names(is fpm.Itemset) []string {
	out := make([]string, len(is))
	for i, it := range is {
		out[i] = w.cat.Name(it)
	}
	return out
}

// rate computes a metric's positive rate over a tally; ok is false when
// the metric's observation count is zero.
func rate(pos, neg uint16, t fpm.Tally) (float64, bool) {
	kPos, kNeg := t.Masked(pos), t.Masked(neg)
	if kPos+kNeg == 0 {
		return 0, false
	}
	return float64(kPos) / float64(kPos+kNeg), true
}
