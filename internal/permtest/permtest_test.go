package permtest

import (
	"context"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/dataset"
	"repro/internal/fpm"
)

var update = flag.Bool("update", false, "rewrite golden files")

// buildDB assembles a TxDB with two outcome classes (0 and 1) from
// explicit attribute rows and binary labels.
func buildDB(t testing.TB, names []string, rows [][]string, labels []bool) *fpm.TxDB {
	t.Helper()
	b := dataset.NewBuilder(names...)
	for _, r := range rows {
		if err := b.Add(r...); err != nil {
			t.Fatal(err)
		}
	}
	b.SortDomains()
	d, err := b.Dataset()
	if err != nil {
		t.Fatal(err)
	}
	classes := make([]uint8, len(labels))
	for i, l := range labels {
		if l {
			classes[i] = 1
		}
	}
	db, err := fpm.NewTxDB(d, classes, 2)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// nullDB draws attributes and labels independently — the complete null:
// no pattern's outcome rate differs from the global one except by
// chance.
func nullDB(t testing.TB, seed int64, n, attrs, card int) *fpm.TxDB {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	names := make([]string, attrs)
	for i := range names {
		names[i] = fmt.Sprintf("a%d", i)
	}
	rows := make([][]string, n)
	labels := make([]bool, n)
	for r := range rows {
		rows[r] = make([]string, attrs)
		for a := range rows[r] {
			rows[r][a] = fmt.Sprintf("v%d", rng.Intn(card))
		}
		labels[r] = rng.Float64() < 0.3
	}
	return buildDB(t, names, rows, labels)
}

// mine returns the frequent itemsets of db at minCount.
func mine(t testing.TB, db *fpm.TxDB, minCount int64) []fpm.Itemset {
	t.Helper()
	mined, err := fpm.FPGrowth{}.Mine(context.Background(), db, minCount)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]fpm.Itemset, len(mined))
	for i, p := range mined {
		out[i] = p.Items
	}
	return out
}

const posMask, negMask = uint16(1 << 1), uint16(1 << 0)

func newEngine(t testing.TB, db *fpm.TxDB, itemsets []fpm.Itemset) *Engine {
	t.Helper()
	e, err := New(db, itemsets, posMask, negMask)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func run(t testing.TB, e *Engine, cfg Config) *Result {
	t.Helper()
	res, err := e.Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestNewRejectsBadInputs(t *testing.T) {
	db := nullDB(t, 1, 40, 3, 2)
	itemsets := mine(t, db, 2)
	cases := []struct {
		name     string
		pos, neg uint16
	}{
		{"empty pos", 0, 1},
		{"empty neg", 1, 0},
		{"overlapping", 3, 1},
	}
	for _, c := range cases {
		if _, err := New(db, itemsets, c.pos, c.neg); err == nil {
			t.Errorf("%s: no error", c.name)
		}
	}
	// Masks selecting only classes absent from the data leave the metric
	// undefined globally.
	if _, err := New(db, itemsets, 1<<5, 1<<6); err == nil {
		t.Error("undefined metric: no error")
	}
}

func TestRunDefaultsAndShape(t *testing.T) {
	db := nullDB(t, 2, 50, 3, 2)
	itemsets := mine(t, db, 3)
	e := newEngine(t, db, itemsets)
	res := run(t, e, Config{Permutations: 200, Seed: 9})
	if res.Permutations != 200 || res.Exhaustive {
		t.Fatalf("run shape: %+v", res)
	}
	if len(res.T) != len(itemsets) || len(res.RawP) != len(itemsets) || len(res.AdjP) != len(itemsets) {
		t.Fatalf("misaligned result slices")
	}
	lo, hi := 1.0/201, 1.0
	for i := range itemsets {
		if res.RawP[i] < lo || res.RawP[i] > hi {
			t.Errorf("raw p %v outside [%v, 1]", res.RawP[i], lo)
		}
		if res.AdjP[i] < res.RawP[i]-1e-15 {
			t.Errorf("hypothesis %d: adjusted p %v below raw %v", i, res.AdjP[i], res.RawP[i])
		}
	}
	// Monotonicity along the observed-statistic ranking: a weaker
	// hypothesis never carries a smaller adjusted p-value.
	for j := 1; j < e.m; j++ {
		if res.AdjP[e.order[j]] < res.AdjP[e.order[j-1]] {
			t.Fatalf("adjusted p not monotone at rank %d", j)
		}
	}
}

func TestRunCanceled(t *testing.T) {
	db := nullDB(t, 3, 50, 3, 2)
	e := newEngine(t, db, mine(t, db, 3))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.Run(ctx, Config{Permutations: 1000}); err == nil {
		t.Fatal("canceled run returned no error")
	}
}

func TestRunNoHypotheses(t *testing.T) {
	db := nullDB(t, 4, 30, 3, 2)
	e := newEngine(t, db, nil)
	res := run(t, e, Config{Permutations: 50})
	if len(res.AdjP) != 0 || res.Permutations != 50 {
		t.Fatalf("empty engine run: %+v", res)
	}
}

// TestDeterminismAcrossWorkers is the parallel-determinism regression:
// the same seed must give byte-identical p-values regardless of worker
// count, because permutation b's shuffle depends only on (seed, b) and
// integer counts merge by addition.
func TestDeterminismAcrossWorkers(t *testing.T) {
	db := nullDB(t, 5, 80, 4, 3)
	e := newEngine(t, db, mine(t, db, 4))
	base := run(t, e, Config{Permutations: 300, Seed: 42, Workers: 1})
	for _, workers := range []int{2, 3, 7} {
		got := run(t, e, Config{Permutations: 300, Seed: 42, Workers: workers})
		for i := range base.AdjP {
			if math.Float64bits(got.AdjP[i]) != math.Float64bits(base.AdjP[i]) ||
				math.Float64bits(got.RawP[i]) != math.Float64bits(base.RawP[i]) {
				t.Fatalf("workers=%d: hypothesis %d diverged: adj %v vs %v, raw %v vs %v",
					workers, i, got.AdjP[i], base.AdjP[i], got.RawP[i], base.RawP[i])
			}
		}
	}
	// A different seed must actually change the draw (sanity that the
	// determinism above is not vacuous).
	other := run(t, e, Config{Permutations: 300, Seed: 43})
	same := true
	for i := range base.RawP {
		// lint:ignore floatcmp exact comparison is the point: different seeds should differ somewhere
		if base.RawP[i] != other.RawP[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("seeds 42 and 43 produced identical raw p-values everywhere")
	}
}

// TestGoldenAdjustedPValues pins one fixed spec's full output so any
// change to the shuffle stream, the statistic, or the step-down fold
// shows up as a diff. Regenerate with -update.
func TestGoldenAdjustedPValues(t *testing.T) {
	db := nullDB(t, 11, 60, 4, 3)
	itemsets := mine(t, db, 3)
	e := newEngine(t, db, itemsets)
	res := run(t, e, Config{Permutations: 500, Seed: 7})

	var sb strings.Builder
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	for i, is := range itemsets {
		fmt.Fprintf(&sb, "%s\t%s\t%s\t%s\n",
			db.Catalog.Format(is), f(res.T[i]), f(res.RawP[i]), f(res.AdjP[i]))
	}
	golden := filepath.Join("testdata", "wy_golden.tsv")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if sb.String() != string(want) {
		t.Errorf("golden mismatch (run with -update to regenerate):\ngot:\n%s\nwant:\n%s", sb.String(), want)
	}
}

func TestWYAdjustMonotoneEnforcement(t *testing.T) {
	// Counts that would produce a non-monotone raw sequence: the
	// enforcement must carry the running maximum forward.
	adj := wyAdjust([]int64{10, 5, 20, 15}, 1, 101)
	want := []float64{11.0 / 101, 11.0 / 101, 21.0 / 101, 21.0 / 101}
	for i := range adj {
		if math.Abs(adj[i]-want[i]) > 1e-15 {
			t.Fatalf("rank %d: adj %v want %v", i, adj[i], want[i])
		}
	}
}

func TestFactorials(t *testing.T) {
	f := factorials(10)
	if f[0] != 1 || f[1] != 1 || f[5] != 120 || f[10] != 3628800 {
		t.Fatalf("factorials: %v", f)
	}
}

// TestExhaustiveDecodeEnumeratesAllArrangements checks the Lehmer
// decoding visits each of the n! arrangements exactly once, and that
// index 0 is the identity arrangement (the property making count/B an
// exact p-value).
func TestExhaustiveDecodeEnumeratesAllArrangements(t *testing.T) {
	labels := []bool{true, false, true, false}
	names := []string{"x"}
	rows := [][]string{{"u"}, {"u"}, {"u"}, {"u"}}
	db := buildDB(t, names, rows, labels)
	e := newEngine(t, db, []fpm.Itemset{{0}})
	w := newPermWorker(e, 0, factorials(4))

	seen := make(map[string]int)
	for b := 0; b < 24; b++ {
		w.decode(uint64(b))
		seen[string(w.labels)]++
	}
	// 4 labels with two duplicated values: 24 arrangements collapse to
	// C(4,2)=6 distinct label vectors, each hit 2!·2! = 4 times.
	if len(seen) != 6 {
		t.Fatalf("distinct label vectors: %d want 6", len(seen))
	}
	for v, c := range seen {
		if c != 4 {
			t.Fatalf("vector %q visited %d times, want 4", v, c)
		}
	}
	w.decode(0)
	for i := range w.labels {
		if w.labels[i] != e.base[i] {
			t.Fatal("index 0 is not the identity arrangement")
		}
	}
}

func TestExhaustiveRejectsLargeN(t *testing.T) {
	db := nullDB(t, 6, MaxExhaustiveRows+1, 2, 2)
	e := newEngine(t, db, mine(t, db, 2))
	if _, err := e.Run(context.Background(), Config{Exhaustive: true}); err == nil {
		t.Fatal("exhaustive run over the row cap returned no error")
	}
}

func TestProgressReachesTotal(t *testing.T) {
	db := nullDB(t, 7, 40, 3, 2)
	e := newEngine(t, db, mine(t, db, 2))
	// Progress runs concurrently on the workers and its calls can land
	// out of order, so keep the maximum seen rather than the last value.
	var highest atomic.Int64
	res, err := e.Run(context.Background(), Config{
		Permutations: 64,
		Workers:      3,
		Progress: func(done, total int) {
			if total != 64 {
				t.Errorf("progress total %d want 64", total)
			}
			for {
				cur := highest.Load()
				if int64(done) <= cur || highest.CompareAndSwap(cur, int64(done)) {
					break
				}
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Permutations != 64 || highest.Load() != 64 {
		t.Fatalf("final progress %d want 64", highest.Load())
	}
}
