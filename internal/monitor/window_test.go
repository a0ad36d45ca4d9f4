package monitor

import (
	"math/rand"
	"testing"

	"repro/internal/fpm"
)

// nopEval ignores bucket closes.
type nopEval struct{}

func (nopEval) evaluate(int64) {}

// miningEval mirrors the monitor's evaluation: re-mine whenever the
// window says the frequent set may have shifted, so the tracked pattern
// set stays live during the property test.
type miningEval struct {
	w *window
	t *testing.T
}

func (e *miningEval) evaluate(int64) {
	if e.w.rowsIn == 0 {
		return
	}
	if mc := e.w.minCount(); e.w.needRemine(mc) {
		if err := e.w.remine(mc); err != nil {
			e.t.Fatalf("remine: %v", err)
		}
	}
}

// recount recomputes the window aggregate from the raw bucket rows — the
// from-scratch truth the incremental tallies must match.
func recount(w *window) (total fpm.Tally, tracked []fpm.Tally, rows int) {
	tracked = make([]fpm.Tally, len(w.tracked))
	for i := range w.buckets {
		b := &w.buckets[i]
		for r := 0; r < len(b.classes); r++ {
			vals := b.rows[r*w.nAttrs : (r+1)*w.nAttrs]
			total[b.classes[r]]++
			rows++
			for ti := range w.tracked {
				t := &w.tracked[ti]
				covered := true
				for j := range t.attrs {
					if vals[t.attrs[j]] != t.vals[j] {
						covered = false
						break
					}
				}
				if covered {
					tracked[ti][b.classes[r]]++
				}
			}
		}
	}
	return total, tracked, rows
}

func checkAggregate(t *testing.T, w *window, at string) {
	t.Helper()
	total, tracked, rows := recount(w)
	if w.total != total {
		t.Fatalf("%s: incremental total %v != recount %v", at, w.total, total)
	}
	if w.rowsIn != rows {
		t.Fatalf("%s: rowsIn %d != recount %d", at, w.rowsIn, rows)
	}
	for i := range w.tracked {
		if w.tracked[i].tally != tracked[i] {
			t.Fatalf("%s: tracked[%d] (%s) incremental %v != recount %v",
				at, i, w.cat.Format(w.tracked[i].items), w.tracked[i].tally, tracked[i])
		}
	}
}

// randomEvent draws a valid event for the validSpec schema.
func randomEvent(rng *rand.Rand, tms int64) Event {
	return Event{
		T:     tms,
		Vals:  []uint8{uint8(rng.Intn(3)), uint8(rng.Intn(2)), uint8(rng.Intn(3))},
		Class: uint8(rng.Intn(4)),
	}
}

// TestWindowIncrementalTalliesExact drives thousands of events through
// a sliding window — fold-ins, fold-outs, late events, re-mines — and
// checks after every bucket's worth that the incremental aggregate
// equals a from-scratch recount.
func TestWindowIncrementalTalliesExact(t *testing.T) {
	spec, err := validSpec().Validate()
	if err != nil {
		t.Fatal(err)
	}
	w := newWindow(spec)
	ev := &miningEval{w: w, t: t}
	rng := rand.New(rand.NewSource(7))
	tms := int64(0)
	for i := 0; i < 5000; i++ {
		// Mostly forward motion, occasionally a late or repeated time.
		switch rng.Intn(10) {
		case 0:
			tms -= int64(rng.Intn(300)) // late event (possibly beyond the window)
			if tms < 0 {
				tms = 0
			}
		case 1: // stall
		default:
			tms += int64(rng.Intn(40))
		}
		w.ingest(randomEvent(rng, tms), ev)
		if i%97 == 0 {
			checkAggregate(t, w, "mid-stream")
		}
	}
	checkAggregate(t, w, "final")
	if w.remines == 0 {
		t.Fatal("property test never re-mined; tracked set was never exercised")
	}
	if len(w.tracked) == 0 {
		t.Fatal("no tracked patterns after 5000 events at 5% support")
	}
}

func TestWindowAdvanceExpiresOldBuckets(t *testing.T) {
	spec, err := validSpec().Validate()
	if err != nil {
		t.Fatal(err)
	}
	w := newWindow(spec)
	// One event per bucket for 3 windows' worth: rowsIn must plateau at
	// the window length.
	for i := 0; i < 3*spec.Window.Buckets; i++ {
		w.ingest(Event{T: int64(i) * spec.Window.BucketMs, Vals: []uint8{0, 0, 0}, Class: 0}, nopEval{})
	}
	if w.rowsIn != spec.Window.Buckets {
		t.Fatalf("rowsIn = %d, want the window length %d", w.rowsIn, spec.Window.Buckets)
	}
	checkAggregate(t, w, "after expiry")
}

func TestWindowGapResets(t *testing.T) {
	spec, err := validSpec().Validate()
	if err != nil {
		t.Fatal(err)
	}
	w := newWindow(spec)
	evals := 0
	countEval := evalFunc(func(int64) { evals++ })
	for i := 0; i < 10; i++ {
		w.ingest(Event{T: int64(i) * 10, Vals: []uint8{0, 0, 0}, Class: 0}, countEval)
	}
	// Jump far past the window: one evaluation, one reset — not one
	// advance per skipped bucket.
	w.ingest(Event{T: 1e9, Vals: []uint8{1, 1, 1}, Class: 1}, countEval)
	if w.resetJumps != 1 {
		t.Fatalf("resetJumps = %d, want 1", w.resetJumps)
	}
	if evals != 1 {
		t.Fatalf("gap crossing evaluated %d times, want exactly 1", evals)
	}
	if w.rowsIn != 1 {
		t.Fatalf("rowsIn after reset = %d, want 1", w.rowsIn)
	}
	checkAggregate(t, w, "after gap reset")
}

func TestWindowLateDrops(t *testing.T) {
	spec, err := validSpec().Validate()
	if err != nil {
		t.Fatal(err)
	}
	w := newWindow(spec)
	// Open three buckets: 10000, 10100, 10200.
	w.ingest(Event{T: 10_000, Vals: []uint8{0, 0, 0}, Class: 0}, nopEval{})
	w.ingest(Event{T: 10_200, Vals: []uint8{0, 0, 0}, Class: 0}, nopEval{})
	// Late but within a filled bucket: accepted.
	w.ingest(Event{T: 10_050, Vals: []uint8{0, 0, 0}, Class: 0}, nopEval{})
	if w.lateDrops != 0 || w.rowsIn != 3 {
		t.Fatalf("in-window late event dropped (drops %d, rows %d)", w.lateDrops, w.rowsIn)
	}
	// Before the earliest filled bucket: dropped and counted.
	w.ingest(Event{T: 9_900, Vals: []uint8{0, 0, 0}, Class: 0}, nopEval{})
	if w.lateDrops != 1 || w.rowsIn != 3 {
		t.Fatalf("too-late event not dropped (drops %d, rows %d)", w.lateDrops, w.rowsIn)
	}
}

func TestTumblingWindowEvaluatesOncePerTumble(t *testing.T) {
	spec := validSpec()
	spec.Window.Tumbling = true
	spec.Window.Buckets = 4
	vs, err := spec.Validate()
	if err != nil {
		t.Fatal(err)
	}
	w := newWindow(vs)
	evals := 0
	rowsAtEval := 0
	countEval := evalFunc(func(int64) { evals++; rowsAtEval = w.rowsIn })
	// One event per bucket, no event-time gaps wide enough to reset:
	// tumbles complete as events cross t=400, 800 and 1200.
	for i := 0; i < 14; i++ {
		w.ingest(Event{T: int64(i) * vs.Window.BucketMs, Vals: []uint8{0, 0, 0}, Class: 0}, countEval)
	}
	if evals != 3 {
		t.Fatalf("evals = %d, want 3", evals)
	}
	if rowsAtEval != 4 {
		t.Fatalf("evaluation saw %d rows, want the full tumble of 4", rowsAtEval)
	}
	if w.rowsIn != 2 {
		t.Fatalf("rows after the last tumble = %d, want 2", w.rowsIn)
	}
}

// evalFunc adapts a function to the evaluator interface.
type evalFunc func(int64)

func (f evalFunc) evaluate(endMs int64) { f(endMs) }

func TestRemineHysteresis(t *testing.T) {
	spec, err := validSpec().Validate()
	if err != nil {
		t.Fatal(err)
	}
	w := newWindow(spec)
	rng := rand.New(rand.NewSource(3))
	ev := &miningEval{w: w, t: t}
	for i := 0; i < 2000; i++ {
		w.ingest(randomEvent(rng, int64(i)*5), ev)
	}
	// With a stationary distribution the backstop should dominate: far
	// fewer re-mines than advances.
	if w.remines == 0 {
		t.Fatal("never re-mined")
	}
	if w.advances > 0 && w.remines*2 > w.advances {
		t.Fatalf("re-mined %d times in %d advances; conditional triggers are not suppressing re-mines", w.remines, w.advances)
	}
}

// TestKeepTopSupportIndependentOfOrder: when a re-mine overflows the
// cap, the kept patterns and their order depend only on the patterns,
// not on the order the miner emitted them in — ties in support at the
// cut are settled by key.
func TestKeepTopSupportIndependentOfOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	mined := make([]trackedPattern, maxTracked+1000)
	for i := range mined {
		items := fpm.Itemset{fpm.Item(i)}
		var tally fpm.Tally
		tally[0] = int64(1 + rng.Intn(4)) // four support levels: ties everywhere, also at the cut
		mined[i] = trackedPattern{items: items, key: items.Key(), tally: tally}
	}
	keys := func(order []int) []string {
		in := make([]trackedPattern, len(mined))
		for i, j := range order {
			in[i] = mined[j]
		}
		kept := keepTopSupport(in, maxTracked)
		out := make([]string, len(kept))
		for i := range kept {
			out[i] = kept[i].key
			if i > 0 {
				prev, cur := kept[i-1].tally.Total(), kept[i].tally.Total()
				if cur > prev || (cur == prev && kept[i].key <= kept[i-1].key) {
					t.Fatalf("kept[%d] out of order: support %d after %d", i, cur, prev)
				}
			}
		}
		return out
	}
	a := keys(rng.Perm(len(mined)))
	b := keys(rng.Perm(len(mined)))
	if len(a) != maxTracked {
		t.Fatalf("kept %d patterns, want %d", len(a), maxTracked)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("position %d: permutations keep %x and %x", i, a[i], b[i])
		}
	}
}
