package fpm

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"
)

// collectAnytime runs a budgeted mine and materializes the stream.
func collectAnytime(t *testing.T, db *TxDB, minCount int64, budget AnytimeBudget) ([]FrequentPattern, AnytimeInfo) {
	t.Helper()
	var out []FrequentPattern
	info, err := MineVisit(db, minCount, budget, func(p FrequentPattern) error {
		out = append(out, FrequentPattern{Items: p.Items.Clone(), Tally: p.Tally})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out, info
}

// TestAnytimeUnlimitedMatchesExhaustive: with no budget the anytime mine
// is MineVisit with a different emission order — the same itemset→tally
// map, ReasonExhausted, and a pattern count matching the batch miner.
func TestAnytimeUnlimitedMatchesExhaustive(t *testing.T) {
	for _, sh := range diffShapes(testing.Short()) {
		for _, seed := range []int64{3, 11} {
			t.Run(fmt.Sprintf("rows=%d/attrs=%d/seed=%d", sh.rows, sh.attrs, seed), func(t *testing.T) {
				db := randomLabeledTxDB(t, seed, sh)
				for _, sup := range []float64{0.02, 0.1, 0.4} {
					minCount := MinCount(db.NumRows(), sup)
					want, err := FPGrowth{}.Mine(context.Background(), db, minCount)
					if err != nil {
						t.Fatal(err)
					}
					got, info := collectAnytime(t, db, minCount, AnytimeBudget{})
					if info.Reason != ReasonExhausted {
						t.Fatalf("sup=%v: reason = %s, want exhausted", sup, info.Reason)
					}
					if info.Patterns != int64(len(want)) || len(got) != len(want) {
						t.Fatalf("sup=%v: %d patterns emitted, exhaustive mined %d", sup, len(got), len(want))
					}
					diffPatternMaps(t, patternsByKey(want), patternsByKey(got), "exhaustive", "anytime", sup)
				}
			})
		}
	}
}

// TestAnytimePatternBudget: a budget of b emits exactly min(b, total)
// patterns, each with its exact tally, and reports the right reason.
func TestAnytimePatternBudget(t *testing.T) {
	db := randomLabeledTxDB(t, 5, diffShape{rows: 200, attrs: 5, maxCard: 4})
	minCount := MinCount(db.NumRows(), 0.05)
	full, info := collectAnytime(t, db, minCount, AnytimeBudget{})
	total := int64(len(full))
	if total < 20 {
		t.Fatalf("fixture too small: %d patterns", total)
	}
	for _, b := range []int64{1, 7, total / 2, total, total + 100} {
		got, info := collectAnytime(t, db, minCount, AnytimeBudget{MaxPatterns: b})
		wantN := b
		wantReason := ReasonBudget
		if b >= total {
			wantN, wantReason = total, ReasonExhausted
		}
		if int64(len(got)) != wantN || info.Patterns != wantN {
			t.Errorf("budget %d: emitted %d (info %d), want %d", b, len(got), info.Patterns, wantN)
		}
		if info.Reason != wantReason {
			t.Errorf("budget %d: reason = %s, want %s", b, info.Reason, wantReason)
		}
		for _, p := range got {
			if want := db.TallyOf(p.Items); want != p.Tally {
				t.Errorf("budget %d: itemset %q tally %v, direct scan %v", b, p.Items.Key(), p.Tally, want)
			}
		}
	}
	_ = info
}

// TestAnytimeDeadline: an already-expired deadline stops the mine before
// the first pattern; a generous one lets it run to exhaustion.
func TestAnytimeDeadline(t *testing.T) {
	db := randomLabeledTxDB(t, 5, diffShape{rows: 200, attrs: 5, maxCard: 4})
	minCount := MinCount(db.NumRows(), 0.05)

	got, info := collectAnytime(t, db, minCount, AnytimeBudget{Deadline: time.Now().Add(-time.Second)})
	if len(got) != 0 || info.Reason != ReasonDeadline {
		t.Errorf("expired deadline: %d patterns, reason %s; want 0, deadline", len(got), info.Reason)
	}

	_, info = collectAnytime(t, db, minCount, AnytimeBudget{Deadline: time.Now().Add(time.Hour)})
	if info.Reason != ReasonExhausted {
		t.Errorf("generous deadline: reason %s, want exhausted", info.Reason)
	}
}

// TestAnytimeSupportDescendingOrder: the first emission of each
// top-level subproblem is that item's singleton, and subproblems run
// most-frequent-first — so the subsequence of singleton emissions has
// non-increasing support.
func TestAnytimeSupportDescendingOrder(t *testing.T) {
	db := randomLabeledTxDB(t, 9, diffShape{rows: 400, attrs: 6, maxCard: 5})
	minCount := MinCount(db.NumRows(), 0.02)
	ps, _ := collectAnytime(t, db, minCount, AnytimeBudget{})
	if len(ps) == 0 {
		t.Fatal("no patterns mined")
	}
	if len(ps[0].Items) != 1 {
		t.Fatalf("first emission %q is not a singleton", ps[0].Items.Key())
	}
	last := int64(-1)
	for _, p := range ps {
		if len(p.Items) != 1 {
			continue
		}
		sup := p.Tally.Total()
		if last >= 0 && sup > last {
			t.Fatalf("singleton %q (support %d) emitted after a singleton with support %d",
				p.Items.Key(), sup, last)
		}
		last = sup
	}
}

// TestAnytimeWarmStateReusable: an aborted budgeted mine leaves the warm
// state consistent — the next unlimited mine on the same state is exact.
func TestAnytimeWarmStateReusable(t *testing.T) {
	db := randomLabeledTxDB(t, 5, diffShape{rows: 200, attrs: 5, maxCard: 4})
	minCount := MinCount(db.NumRows(), 0.05)
	want, err := FPGrowth{}.Mine(context.Background(), db, minCount)
	if err != nil {
		t.Fatal(err)
	}
	s := newKernel(db.Catalog)
	count := func(b AnytimeBudget) (int64, []FrequentPattern) {
		var out []FrequentPattern
		info, err := s.visitAll(db, minCount, b, func(p FrequentPattern) error {
			out = append(out, FrequentPattern{Items: p.Items.Clone(), Tally: p.Tally})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return info.Patterns, out
	}
	if n, _ := count(AnytimeBudget{MaxPatterns: 3}); n != 3 {
		t.Fatalf("budgeted warm mine emitted %d, want 3", n)
	}
	n, got := count(AnytimeBudget{})
	if n != int64(len(want)) {
		t.Fatalf("post-abort unlimited mine emitted %d, want %d", n, len(want))
	}
	diffPatternMaps(t, patternsByKey(want), patternsByKey(got), "exhaustive", "anytime-warm", 0.05)
}

func TestSampleRows(t *testing.T) {
	db := randomLabeledTxDB(t, 21, diffShape{rows: 300, attrs: 4, maxCard: 4})

	// n >= rows or n <= 0: the original database comes back untouched.
	if got := SampleRows(db, 300, 1); got != db {
		t.Error("full-size sample did not return the original db")
	}
	if got := SampleRows(db, 0, 1); got != db {
		t.Error("n=0 did not return the original db")
	}

	s1 := SampleRows(db, 120, 7)
	s2 := SampleRows(db, 120, 7)
	if s1.NumRows() != 120 || len(s1.Classes) != 120 {
		t.Fatalf("sample has %d rows, %d classes", s1.NumRows(), len(s1.Classes))
	}
	if s1.Catalog != db.Catalog {
		t.Error("sample does not share the catalog")
	}
	for r := range s1.Data.Rows {
		if &s1.Data.Rows[r][0] != &s2.Data.Rows[r][0] || s1.Classes[r] != s2.Classes[r] {
			t.Fatal("same seed produced different samples")
		}
	}
	s3 := SampleRows(db, 120, 8)
	same := true
	for r := range s1.Data.Rows {
		if &s1.Data.Rows[r][0] != &s3.Data.Rows[r][0] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical samples")
	}

	// The sample's total tally is dominated by the full database's.
	full, sub := db.TotalTally(), s1.TotalTally()
	for c := range full {
		if sub[c] > full[c] {
			t.Errorf("class %d: sample count %d exceeds full count %d", c, sub[c], full[c])
		}
	}
	if sub.Total() != 120 {
		t.Errorf("sample tally total = %d, want 120", sub.Total())
	}
}

// TestAnytimeSteadyStateAllocFree extends the zero-allocation contract
// to the streaming path: a warm kernel streaming to a visitor emits every
// pattern without allocating, both on a complete (zero-budget) stream
// and with budget checks and deadline polls active.
func TestAnytimeSteadyStateAllocFree(t *testing.T) {
	db := smallTxDB(t)
	for _, budget := range []AnytimeBudget{
		{},
		{Deadline: time.Now().Add(time.Hour), MaxPatterns: 1 << 40},
	} {
		s := newKernel(db.Catalog)
		var n int64
		visit := func(FrequentPattern) error { n++; return nil }
		runOnce := func() {
			n = 0
			info, err := s.visitAll(db, 1, budget, visit)
			if err != nil {
				t.Fatal(err)
			}
			if info.Reason != ReasonExhausted {
				t.Fatalf("reason = %s, want exhausted", info.Reason)
			}
		}

		runOnce()
		want := n
		if want == 0 {
			t.Fatal("warm-up anytime mine produced no patterns; fixture db is unusable")
		}
		runOnce()
		if n != want {
			t.Fatalf("re-mine produced %d patterns, want %d", n, want)
		}

		if allocs := testing.AllocsPerRun(10, runOnce); allocs != 0 {
			t.Errorf("budget %+v: steady-state mine allocates %v allocs/run, want 0", budget, allocs)
		}
	}
}

func TestMineVisitAbortsOnError(t *testing.T) {
	db := smallTxDB(t)
	sentinel := errors.New("stop")
	count := 0
	_, err := MineVisit(db, 1, AnytimeBudget{}, func(FrequentPattern) error {
		count++
		if count == 3 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want sentinel", err)
	}
	if count != 3 {
		t.Fatalf("visited %d patterns after abort, want 3", count)
	}
	// A closed budget Done channel aborts the mine at its first poll.
	done := make(chan struct{})
	close(done)
	count = 0
	if _, err := MineVisit(db, 1, AnytimeBudget{Done: done}, func(FrequentPattern) error {
		count++
		return nil
	}); !errors.Is(err, errStreamCanceled) || count != 0 {
		t.Fatalf("canceled mine: err %v after %d patterns, want errStreamCanceled before any", err, count)
	}
}

func TestMineVisitValidation(t *testing.T) {
	db := smallTxDB(t)
	if _, err := MineVisit(db, 0, AnytimeBudget{}, func(FrequentPattern) error { return nil }); err == nil {
		t.Error("minCount=0 accepted")
	}
	if _, err := MineVisit(db, 1, AnytimeBudget{}, nil); err == nil {
		t.Error("nil visitor accepted")
	}
}

// Streaming with a threshold above every support yields nothing and no
// error.
func TestMineVisitEmpty(t *testing.T) {
	db := smallTxDB(t)
	visited := 0
	info, err := MineVisit(db, int64(db.NumRows()+1), AnytimeBudget{}, func(FrequentPattern) error {
		visited++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if visited != 0 || info.Patterns != 0 || info.Reason != ReasonExhausted {
		t.Errorf("visited %d patterns above max support (info %+v)", visited, info)
	}
}
