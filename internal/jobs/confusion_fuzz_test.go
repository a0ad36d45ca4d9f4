package jobs

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/fpm"
)

// copyConfusionDB is the confusion database as it was built before
// confusionDB wrote the kept columns straight into flat codes: the labels
// read, the kept columns copied into their own dataset by DropAttrs, and
// that dataset handed to fpm.NewTxDB, each failure wrapped as
// confusionDB wraps it.
func copyConfusionDB(d *dataset.Dataset, truthCol, predCol string) (*fpm.TxDB, error) {
	truth, pred, err := extractLabels(d, truthCol, predCol)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadInput, err)
	}
	rest, err := d.DropAttrs(truthCol, predCol)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadInput, err)
	}
	classes, err := core.ConfusionClasses(truth, pred)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadInput, err)
	}
	db, err := fpm.NewTxDB(rest, classes, core.NumConfusionClasses)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadInput, err)
	}
	return db, nil
}

// checkConfusionDB holds confusionDB to copyConfusionDB on one table:
// both fail with the same text, or both give the same catalog, classes
// and row codes, and the serving miner finds the same patterns and
// tallies in both.
func checkConfusionDB(t *testing.T, d *dataset.Dataset, truthCol, predCol string, support float64) {
	t.Helper()
	got, gotErr := confusionDB(d, truthCol, predCol)
	want, wantErr := copyConfusionDB(d, truthCol, predCol)
	if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
		t.Fatalf("confusionDB error %v, the copying path's %v", gotErr, wantErr)
	}
	if gotErr != nil {
		return
	}
	if got.K != want.K || !slices.Equal(got.Classes, want.Classes) || got.NumRows() != want.NumRows() {
		t.Fatalf("K %d, %d rows, classes %v; want K %d, %d rows, classes %v",
			got.K, got.NumRows(), got.Classes, want.K, want.NumRows(), want.Classes)
	}
	gc, wc := got.Catalog, want.Catalog
	if gc.NumAttrs() != wc.NumAttrs() || gc.NumItems() != wc.NumItems() {
		t.Fatalf("catalog of %d attributes and %d items, want %d and %d", gc.NumAttrs(), gc.NumItems(), wc.NumAttrs(), wc.NumItems())
	}
	for it := fpm.Item(0); int(it) < gc.NumItems(); it++ {
		if gc.Name(it) != wc.Name(it) {
			t.Fatalf("item %d is %q, want %q", it, gc.Name(it), wc.Name(it))
		}
	}
	for r := 0; r < got.NumRows(); r++ {
		if !slices.Equal(got.Row(r), want.Row(r)) {
			t.Fatalf("row %d codes %v, want %v", r, got.Row(r), want.Row(r))
		}
	}
	ctx := context.Background()
	rg, err := core.ExploreContext(ctx, got, support, core.Options{Miner: fpm.Parallel{}})
	if err != nil {
		t.Fatal(err)
	}
	rw, err := core.ExploreContext(ctx, want, support, core.Options{Miner: fpm.Parallel{}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rg.Patterns) != len(rw.Patterns) {
		t.Fatalf("%d patterns, want %d", len(rg.Patterns), len(rw.Patterns))
	}
	for i := range rg.Patterns {
		if p, q := rg.Patterns[i], rw.Patterns[i]; !p.Items.Equal(q.Items) || p.Tally != q.Tally {
			t.Fatalf("pattern %d is %v %v, want %v %v", i, p.Items, p.Tally, q.Items, q.Tally)
		}
	}
}

// fuzzVocab is every column's value vocabulary: a column's domain is a
// run of consecutive words, so a label column may hold values that are
// not Boolean.
var fuzzVocab = []string{"0", "1", "yes", "n", "maybe", "TRUE"}

// fuzzLabeledTable decodes fuzz bytes into a table of 2–6 columns and at
// most 200 rows with its truth and pred column names and a support. The
// header is the column count, the truth and pred columns (the same
// column when they coincide), the support, then per column its
// cardinality (1–4) and the first vocabulary word of its domain; every
// later group of one byte per column is a row.
func fuzzLabeledTable(data []byte) (d *dataset.Dataset, truthCol, predCol string, support float64, ok bool) {
	if len(data) < 4 {
		return nil, "", "", 0, false
	}
	cols := 2 + int(data[0])%5
	if len(data) < 4+2*cols {
		return nil, "", "", 0, false
	}
	truthCol, predCol = fmt.Sprintf("c%d", int(data[1])%cols), fmt.Sprintf("c%d", int(data[2])%cols)
	support = float64(data[3]) / 255
	d = &dataset.Dataset{Attrs: make([]dataset.Attribute, cols)}
	for c := range d.Attrs {
		card, first := 1+int(data[4+2*c])%4, int(data[5+2*c])
		d.Attrs[c].Name = fmt.Sprintf("c%d", c)
		for v := 0; v < card; v++ {
			d.Attrs[c].Values = append(d.Attrs[c].Values, fuzzVocab[(first+v)%len(fuzzVocab)])
		}
	}
	for rest := data[4+2*cols:]; len(rest) >= cols && len(d.Rows) < 200; rest = rest[cols:] {
		row := make([]int32, cols)
		for c := range row {
			row[c] = int32(int(rest[c]) % d.Attrs[c].Cardinality())
		}
		d.Rows = append(d.Rows, row)
	}
	return d, truthCol, predCol, support, true
}

// encodeLabeledTable is fuzzLabeledTable's inverse for the seeds: the
// first 200 rows of a table whose columns hold at most four values, with
// its label columns at truth and pred and vocabulary offset 0 (so codes
// 0 and 1 read "0" and "1").
func encodeLabeledTable(d *dataset.Dataset, truth, pred int, support byte) []byte {
	cols := d.NumAttrs()
	out := []byte{byte(cols - 2), byte(truth), byte(pred), support}
	for c := 0; c < cols; c++ {
		out = append(out, byte(d.Attrs[c].Cardinality()-1), 0)
	}
	for r := 0; r < d.NumRows() && r < 200; r++ {
		for _, v := range d.Rows[r] {
			out = append(out, byte(v))
		}
	}
	return out
}

// labeledTable is a datagen.Random table with its truth and pred columns
// appended as "0"/"1" values, as the server's tests and the end-to-end
// benchmark upload it.
func labeledTable(t testing.TB, seed int64, rows, attrs, maxCard int) *dataset.Dataset {
	t.Helper()
	g, err := datagen.Random(seed, datagen.RandomConfig{Rows: rows, Attrs: attrs, MaxCard: maxCard})
	if err != nil {
		t.Fatal(err)
	}
	b := dataset.NewBuilder(append(attrNames(g.Data), "truth", "pred")...)
	for r := 0; r < g.Data.NumRows(); r++ {
		rec := make([]string, 0, g.Data.NumAttrs()+2)
		for a := 0; a < g.Data.NumAttrs(); a++ {
			rec = append(rec, g.Data.Value(r, a))
		}
		rec = append(rec, b01(g.Truth[r]), b01(g.Pred[r]))
		if err := b.Add(rec...); err != nil {
			t.Fatal(err)
		}
	}
	b.SortDomains()
	d, err := b.Dataset()
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// crossPathTable is the table the server's TestCrossPathIdentical serves
// on every path: seed 41, 600 rows of five attributes of cardinality up
// to 3.
func crossPathTable(t testing.TB) *dataset.Dataset { return labeledTable(t, 41, 600, 5, 3) }

func attrNames(d *dataset.Dataset) []string {
	out := make([]string, d.NumAttrs())
	for i := range d.Attrs {
		out[i] = d.Attrs[i].Name
	}
	return out
}

func b01(v bool) string {
	if v {
		return "1"
	}
	return "0"
}

// TestConfusionDBMatchesCopy runs the oracle on the whole cross-path
// table, at the supports its paths ask, with the label columns where
// the table has them and under every swap and duplication.
func TestConfusionDBMatchesCopy(t *testing.T) {
	d := crossPathTable(t)
	for _, labels := range [][2]string{{"truth", "pred"}, {"pred", "truth"}, {"truth", "truth"}, {"attr0", "pred"}, {"truth", "nope"}} {
		for _, s := range []float64{0.05, 0.1} {
			checkConfusionDB(t, d, labels[0], labels[1], s)
		}
	}
}

// FuzzConfusionDB holds confusionDB, which writes the kept columns into
// flat codes in one pass, to the DropAttrs copy it replaced, on tables
// whose label columns sit anywhere (first, last, adjacent or one
// column) and may hold values that are not Boolean. The seeds are the
// cross-path table (its first 200 rows over four of its attributes)
// with its labels last, first, apart and shared, and a two-column table.
func FuzzConfusionDB(f *testing.F) {
	d := crossPathTable(f)
	keep, err := d.DropAttrs("attr4")
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range [][3]int{{4, 5, 13}, {5, 4, 26}, {0, 5, 13}, {4, 4, 51}} {
		f.Add(encodeLabeledTable(keep, seed[0], seed[1], byte(seed[2])))
	}
	f.Add([]byte{0, 0, 1, 40, 1, 0, 1, 0, 0, 1, 1, 0, 1, 1, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		d, truthCol, predCol, support, ok := fuzzLabeledTable(data)
		if !ok {
			return
		}
		checkConfusionDB(t, d, truthCol, predCol, support)
	})
}
