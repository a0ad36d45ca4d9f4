package monitor

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/fpm"
)

// staticTable is one dataset for the window-versus-analysis oracle:
// categorical attributes and, per row, a value of each plus its labels.
type staticTable struct {
	attrs       []string
	rows        [][]string
	truth, pred []bool
}

// add appends n copies of one row.
func (tb *staticTable) add(n int, truth, pred bool, vals ...string) {
	for i := 0; i < n; i++ {
		tb.rows = append(tb.rows, vals)
		tb.truth = append(tb.truth, truth)
		tb.pred = append(tb.pred, pred)
	}
}

// analyze mines the table as /analyze does and ranks its top k by |Δ|.
func (tb *staticTable) analyze(t *testing.T, support float64, k int) ([]core.Ranked, *fpm.Catalog) {
	t.Helper()
	b := dataset.NewBuilder(tb.attrs...)
	for _, r := range tb.rows {
		if err := b.Add(r...); err != nil {
			t.Fatal(err)
		}
	}
	b.SortDomains()
	d, err := b.Dataset()
	if err != nil {
		t.Fatal(err)
	}
	classes, err := core.ConfusionClasses(tb.truth, tb.pred)
	if err != nil {
		t.Fatal(err)
	}
	db, err := fpm.NewTxDB(d, classes, core.NumConfusionClasses)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Explore(db, support, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return res.TopK(core.FPR, k, core.ByAbsDivergence), db.Catalog
}

// monitorSnapshot streams the table through a tumbling monitor twice,
// one tumble each, and snapshots it before the second tumble closes:
// the window then holds exactly the table, and its tracked subgroups
// are the ones the first tumble's close mined from the same rows.
func (tb *staticTable) monitorSnapshot(t *testing.T, support float64) []SubgroupStatus {
	t.Helper()
	spec := Spec{
		Name:       "oracle",
		Metric:     "FPR",
		MaxLen:     len(tb.attrs),
		MinSupport: support,
		Window:     WindowConfig{BucketMs: 1000, Buckets: 2, Tumbling: true},
	}
	for a, name := range tb.attrs {
		seen := map[string]bool{}
		var vals []string
		for _, r := range tb.rows {
			if !seen[r[a]] {
				seen[r[a]] = true
				vals = append(vals, r[a])
			}
		}
		sort.Strings(vals) // the catalog order /analyze's sorted domains give
		spec.Attributes = append(spec.Attributes, AttrSpec{Name: name, Values: vals})
	}
	mgr := NewManager(Config{})
	t.Cleanup(mgr.Close)
	m, err := mgr.Create(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, start := range []int64{0, 2000} {
		var body []byte
		for i, r := range tb.rows {
			attrs := map[string]string{}
			for a, name := range tb.attrs {
				attrs[name] = r[a]
			}
			line, err := json.Marshal(map[string]any{"t": start, "attrs": attrs, "truth": tb.truth[i], "pred": tb.pred[i]})
			if err != nil {
				t.Fatal(err)
			}
			body = append(append(body, line...), '\n')
		}
		if res, err := m.Ingest(body); err != nil || res.Invalid != 0 {
			t.Fatalf("Ingest: %+v, %v", res, err)
		}
	}
	awaitEvents(t, m, int64(2*len(tb.rows)))
	snap := m.Snapshot()
	if snap.WindowRows != len(tb.rows) {
		t.Fatalf("window holds %d rows, want %d", snap.WindowRows, len(tb.rows))
	}
	return snap.Top
}

// checkOracle requires the snapshot to list the same itemsets, with the
// same support, rate and divergence, in the same order, as TopK.
func checkOracle(t *testing.T, tb *staticTable, support float64) []SubgroupStatus {
	t.Helper()
	got := tb.monitorSnapshot(t, support)
	want, cat := tb.analyze(t, support, 10)
	if len(got) != len(want) || len(want) == 0 {
		t.Fatalf("snapshot lists %d subgroups, TopK %d", len(got), len(want))
	}
	for i, rk := range want {
		g := got[i]
		if fmt.Sprint(g.Itemset) != fmt.Sprint(cat.Names(rk.Items)) ||
			g.Support != rk.Support || g.Rate != rk.Rate || g.Divergence != rk.Divergence {
			t.Errorf("rank %d: snapshot %v support %v rate %v divergence %v; TopK %v support %v rate %v divergence %v",
				i, g.Itemset, g.Support, g.Rate, g.Divergence, cat.Names(rk.Items), rk.Support, rk.Rate, rk.Divergence)
		}
	}
	return got
}

// TestSnapshotMatchesAnalyze is the oracle between the live and the
// batch path: a tumbling window that holds exactly one static dataset
// ranks its subgroups as Result.TopK ranks them on that dataset. The
// first table plants an exact |Δ| tie among subgroups of different
// size, which only the shared order (Welch t, then support) breaks the
// way /analyze does; a name order would list x=q before y=u.
func TestSnapshotMatchesAnalyze(t *testing.T) {
	tied := &staticTable{attrs: []string{"x", "y"}}
	tied.add(4, false, true, "p", "u")
	tied.add(4, false, false, "p", "u")
	tied.add(1, false, true, "p", "v")
	tied.add(9, false, false, "p", "v")
	tied.add(2, true, true, "p", "v")
	tied.add(2, false, true, "q", "u")
	tied.add(2, false, false, "q", "u")
	tied.add(1, false, true, "q", "v")
	tied.add(1, false, false, "q", "v")
	top := checkOracle(t, tied, 0.05)
	planted := false
	for i := 1; i < len(top); i++ {
		a, b := top[i-1], top[i]
		// The planted tie is exact: equal counts give bit-equal rates.
		if math.Abs(a.Divergence) == math.Abs(b.Divergence) && a.Support != b.Support {
			planted = true
		}
	}
	if !planted {
		t.Fatalf("no |Δ| tie between subgroups of different size in %+v", top)
	}

	rng := rand.New(rand.NewSource(5))
	random := &staticTable{attrs: []string{"a", "b", "c"}}
	for i := 0; i < 600; i++ {
		truth := rng.Intn(2) == 0
		random.add(1, truth, truth != (rng.Intn(4) == 0),
			fmt.Sprint("v", rng.Intn(3)), fmt.Sprint("v", rng.Intn(3)), fmt.Sprint("v", rng.Intn(2)))
	}
	checkOracle(t, random, 0.05)
}
