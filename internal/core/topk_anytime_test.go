package core

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/datagen"
	"repro/internal/fpm"
)

// datagenDB draws a seeded random labelled dataset (the same generator
// the fpm differential suite uses) and wraps it as a confusion-class
// transaction database.
func datagenDB(t testing.TB, seed int64, rows, attrs, maxCard int) *fpm.TxDB {
	t.Helper()
	g, err := datagen.Random(seed, datagen.RandomConfig{Rows: rows, Attrs: attrs, MaxCard: maxCard})
	if err != nil {
		t.Fatal(err)
	}
	classes, err := ConfusionClasses(g.Truth, g.Pred)
	if err != nil {
		t.Fatal(err)
	}
	db, err := fpm.NewTxDB(g.Data, classes, NumConfusionClasses)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// TestAnytimeTopKByteIdenticalToExhaustive is the anytime arm of the
// differential harness: at unlimited budget the streamed top-K must be
// byte-identical — itemsets, tallies, and every float — to the
// exhaustive Result.TopK, across dataset shapes, supports, orders and
// k. The shared total order makes the top-k set unique, so the
// support-descending visit order cannot leak into the answer.
func TestAnytimeTopKByteIdenticalToExhaustive(t *testing.T) {
	shapes := []struct{ rows, attrs, maxCard int }{
		{60, 3, 3},
		{200, 4, 4},
		{400, 5, 3},
	}
	if !testing.Short() {
		shapes = append(shapes, struct{ rows, attrs, maxCard int }{800, 6, 4})
	}
	for _, sh := range shapes {
		for _, seed := range []int64{2, 19} {
			db := datagenDB(t, seed, sh.rows, sh.attrs, sh.maxCard)
			for _, sup := range []float64{0.02, 0.1, 0.3} {
				fullAtSup := explore(t, db, sup)
				for _, order := range []RankOrder{ByDivergence, ByAbsDivergence, ByNegDivergence} {
					for _, k := range []int{1, 5, 25} {
						want := fullAtSup.TopK(ErrorRate, k, order)
						got, err := ExploreTopKAnytime(db, sup, ErrorRate, k, order, AnytimeOptions{})
						if err != nil {
							t.Fatal(err)
						}
						label := fmt.Sprintf("seed=%d rows=%d sup=%v order=%v k=%d", seed, sh.rows, sup, order, k)
						if got.Reason != fpm.ReasonExhausted || got.Partial() {
							t.Fatalf("%s: unbudgeted run reported reason %s", label, got.Reason)
						}
						if len(got.Top) != len(want) {
							t.Fatalf("%s: %d patterns, want %d", label, len(got.Top), len(want))
						}
						for i := range want {
							if !reflect.DeepEqual(got.Top[i].Ranked, want[i]) {
								t.Fatalf("%s: rank %d differs\n got %+v\nwant %+v",
									label, i, got.Top[i].Ranked, want[i])
							}
							e := got.Top[i]
							if e.SupportLo != e.Support || e.SupportHi != e.Support ||
								e.RateLo != e.Rate || e.RateHi != e.Rate ||
								e.DivergenceLo != e.Divergence || e.DivergenceHi != e.Divergence {
								t.Fatalf("%s: exact run has non-degenerate bounds: %+v", label, e)
							}
						}
					}
				}
			}
		}
	}
}

// TestAnytimeTopKBudgetSubset: under any pattern budget the reported
// patterns must be a truthful subset — each one frequent in the full
// result, with support, rate, divergence and t exactly as the
// exhaustive exploration computes them. Budgets may hide patterns; they
// must never distort one.
func TestAnytimeTopKBudgetSubset(t *testing.T) {
	db := datagenDB(t, 13, 300, 5, 4)
	const sup = 0.05
	full := explore(t, db, sup)
	unlimited, err := ExploreTopKAnytime(db, sup, ErrorRate, 10, ByAbsDivergence, AnytimeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range []int64{1, 3, 10, 50, 1 << 30} {
		got, err := ExploreTopKAnytime(db, sup, ErrorRate, 10, ByAbsDivergence,
			AnytimeOptions{Budget: fpm.AnytimeBudget{MaxPatterns: b}})
		if err != nil {
			t.Fatal(err)
		}
		if b < unlimited.Visited {
			if got.Reason != fpm.ReasonBudget || got.Visited != b {
				t.Errorf("budget %d: reason %s after %d patterns, want budget after %d",
					b, got.Reason, got.Visited, b)
			}
		} else if got.Reason != fpm.ReasonExhausted {
			t.Errorf("budget %d ≥ total %d: reason %s, want exhausted", b, unlimited.Visited, got.Reason)
		}
		if len(got.Top) == 0 || len(got.Top) > 10 {
			t.Errorf("budget %d: %d patterns reported", b, len(got.Top))
		}
		for _, e := range got.Top {
			want, err := full.Describe(e.Items, ErrorRate)
			if err != nil {
				t.Errorf("budget %d: reported pattern %v is not in the exhaustive result: %v", b, e.Items, err)
				continue
			}
			if !reflect.DeepEqual(e.Ranked, want) {
				t.Errorf("budget %d: pattern %v stats\n got %+v\nwant %+v", b, e.Items, e.Ranked, want)
			}
		}
	}
}

// TestAnytimeTopKDeadline: an expired deadline yields an empty partial
// answer; a generous one runs to exhaustion.
func TestAnytimeTopKDeadline(t *testing.T) {
	db := datagenDB(t, 13, 300, 5, 4)
	got, err := ExploreTopKAnytime(db, 0.05, ErrorRate, 10, ByAbsDivergence,
		AnytimeOptions{Budget: fpm.AnytimeBudget{Deadline: time.Now().Add(-time.Second)}})
	if err != nil {
		t.Fatal(err)
	}
	if got.Reason != fpm.ReasonDeadline || !got.Partial() || len(got.Top) != 0 {
		t.Fatalf("expired deadline: reason %s, %d patterns", got.Reason, len(got.Top))
	}
	got, err = ExploreTopKAnytime(db, 0.05, ErrorRate, 10, ByAbsDivergence,
		AnytimeOptions{Budget: fpm.AnytimeBudget{Deadline: time.Now().Add(time.Hour)}})
	if err != nil {
		t.Fatal(err)
	}
	if got.Reason != fpm.ReasonExhausted || got.Partial() {
		t.Fatalf("generous deadline: reason %s", got.Reason)
	}
}

// TestAnytimeTopKOnUpdate: the streaming hook fires on its cadence with
// monotone visited counts and snapshots already in rank order.
func TestAnytimeTopKOnUpdate(t *testing.T) {
	db := datagenDB(t, 13, 300, 5, 4)
	var counts []int64
	var snaps [][]RankedEstimate
	got, err := ExploreTopKAnytime(db, 0.02, ErrorRate, 5, ByAbsDivergence, AnytimeOptions{
		UpdateEvery: 16,
		OnUpdate: func(top []RankedEstimate, visited int64) {
			counts = append(counts, visited)
			snaps = append(snaps, top)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(counts) == 0 {
		t.Fatalf("no updates streamed over %d visited patterns", got.Visited)
	}
	for i, c := range counts {
		if c%16 != 0 || (i > 0 && c <= counts[i-1]) {
			t.Fatalf("update %d at visited=%d: cadence or monotonicity broken (%v)", i, c, counts)
		}
	}
	for _, snap := range snaps {
		if len(snap) > 5 {
			t.Fatalf("snapshot holds %d patterns, k=5", len(snap))
		}
		for i := 1; i < len(snap); i++ {
			if rankedBetter(&snap[i].Ranked, &snap[i-1].Ranked, ByAbsDivergence) {
				t.Fatal("snapshot not in descending rank order")
			}
		}
	}
	// The final answer must dominate (or equal) the last snapshot.
	if last := snaps[len(snaps)-1]; len(last) > 0 && len(got.Top) > 0 {
		if rankedBetter(&last[0].Ranked, &got.Top[0].Ranked, ByAbsDivergence) {
			t.Fatal("final top-1 is worse than a mid-stream snapshot's")
		}
	}
}

// TestAnytimeTopKSampled: structural checks on a sampled run — the
// flags, the shared Hoeffding half-width, and interval consistency
// (estimate inside its own interval; divergence interval = rate
// interval shifted by the exact global rate).
func TestAnytimeTopKSampled(t *testing.T) {
	db := datagenDB(t, 29, 500, 4, 3)
	got, err := ExploreTopKAnytime(db, 0.05, ErrorRate, 15, ByAbsDivergence,
		AnytimeOptions{SampleRows: 200, SampleSeed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !got.Sampled || got.SampleSize != 200 || got.Confidence != DefaultConfidence {
		t.Fatalf("sampled run metadata: %+v", got)
	}
	if got.SupportEps <= 0 || got.SupportEps > 0.5 {
		t.Fatalf("SupportEps = %v", got.SupportEps)
	}
	globalRate := ErrorRate.Rate(db.TotalTally())
	for _, e := range got.Top {
		if e.SupportLo > e.Support || e.Support > e.SupportHi {
			t.Errorf("support %v outside [%v, %v]", e.Support, e.SupportLo, e.SupportHi)
		}
		if e.RateLo > e.Rate || e.Rate > e.RateHi {
			t.Errorf("rate %v outside [%v, %v]", e.Rate, e.RateLo, e.RateHi)
		}
		if !almost(e.DivergenceLo, e.RateLo-globalRate, 1e-12) ||
			!almost(e.DivergenceHi, e.RateHi-globalRate, 1e-12) {
			t.Errorf("divergence interval [%v, %v] is not the rate interval shifted by %v",
				e.DivergenceLo, e.DivergenceHi, globalRate)
		}
	}
	// Identical seed, identical answer.
	again, err := ExploreTopKAnytime(db, 0.05, ErrorRate, 15, ByAbsDivergence,
		AnytimeOptions{SampleRows: 200, SampleSeed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Top, again.Top) {
		t.Fatal("same sample seed produced a different answer")
	}
}

// TestAnytimeSamplingCoverage is the statistical property pin for the
// sampling tier: across ≥50 seeded datasets, the reported 95% intervals
// must cover the true (full-dataset) support and rate at no less than
// 93% empirical frequency. Hoeffding supports are simultaneous and
// conservative, so they are held to a stricter bar. Failing seeds are
// printed for reproduction.
func TestAnytimeSamplingCoverage(t *testing.T) {
	const (
		seeds      = 50
		fullRows   = 400
		sampleRows = 150
	)
	type tally struct{ covered, total int }
	var supCov, rateCov tally
	perSeed := make(map[int64]float64, seeds)
	for seed := int64(1); seed <= seeds; seed++ {
		db := datagenDB(t, seed, fullRows, 4, 3)
		got, err := ExploreTopKAnytime(db, 0.05, ErrorRate, 40, ByAbsDivergence,
			AnytimeOptions{SampleRows: sampleRows, SampleSeed: seed * 101, Confidence: 0.95})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		seedCovered, seedTotal := 0, 0
		for _, e := range got.Top {
			trueTally := db.TallyOf(e.Items)
			trueSup := float64(trueTally.Total()) / float64(fullRows)
			supCov.total++
			if e.SupportLo <= trueSup && trueSup <= e.SupportHi {
				supCov.covered++
			}
			kp, kn := ErrorRate.Counts(trueTally)
			if kp+kn > 0 {
				trueRate := float64(kp) / float64(kp+kn)
				rateCov.total++
				seedTotal++
				if e.RateLo <= trueRate && trueRate <= e.RateHi {
					rateCov.covered++
					seedCovered++
				}
			}
		}
		if seedTotal > 0 {
			perSeed[seed] = float64(seedCovered) / float64(seedTotal)
		}
	}
	if supCov.total < 500 || rateCov.total < 500 {
		t.Fatalf("too few patterns to measure coverage: %d support, %d rate", supCov.total, rateCov.total)
	}
	// Hoeffding intervals hold simultaneously for all patterns of a
	// sample; empirically they should essentially never miss.
	if cov := float64(supCov.covered) / float64(supCov.total); cov < 0.93 {
		t.Errorf("Hoeffding 95%% support intervals covered %.1f%% of true supports (want ≥93%%); per-seed rate coverage: %v",
			100*cov, perSeed)
	}
	if cov := float64(rateCov.covered) / float64(rateCov.total); cov < 0.93 {
		t.Errorf("Wilson 95%% rate intervals covered %.1f%% of true rates (want ≥93%%); per-seed coverage: %v",
			100*cov, perSeed)
	}
}

func TestAnytimeTopKValidation(t *testing.T) {
	db := fixtureDB(t)
	if _, err := ExploreTopKAnytime(db, -1, FPR, 5, ByDivergence, AnytimeOptions{}); err == nil {
		t.Error("negative support accepted")
	}
	if _, err := ExploreTopKAnytime(db, 0.1, FPR, 0, ByDivergence, AnytimeOptions{}); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := ExploreTopKAnytime(db, 0.1, Metric{}, 5, ByDivergence, AnytimeOptions{}); err == nil {
		t.Error("invalid metric accepted")
	}
	if _, err := ExploreTopKAnytime(db, 0.1, FPR, 5, ByDivergence, AnytimeOptions{Confidence: 1.5}); err == nil {
		t.Error("confidence 1.5 accepted")
	}
}

func BenchmarkAnytimeTopK(b *testing.B) {
	db := datagenDB(b, 7, 2000, 8, 4)
	b.Run("exhaustive", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := ExploreTopKAnytime(db, 0.01, ErrorRate, 20, ByAbsDivergence, AnytimeOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("budget1k", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := ExploreTopKAnytime(db, 0.01, ErrorRate, 20, ByAbsDivergence,
				AnytimeOptions{Budget: fpm.AnytimeBudget{MaxPatterns: 1000}}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("sampled500", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := ExploreTopKAnytime(db, 0.01, ErrorRate, 20, ByAbsDivergence,
				AnytimeOptions{SampleRows: 500, SampleSeed: 1}); err != nil {
				b.Fatal(err)
			}
		}
	})
}
