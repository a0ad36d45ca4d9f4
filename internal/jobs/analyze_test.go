package jobs

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"repro/internal/dataset"
)

// TestExtractLabelsByCode pins the label split: every spelling of a
// Boolean is read through its domain value, the kept columns keep
// their codes in the confusion database, and the first non-Boolean row
// is reported by index and value, as before the split read codes.
func TestExtractLabelsByCode(t *testing.T) {
	d, err := dataset.ReadCSV(strings.NewReader(
		"g,truth,pred\na,Yes,0\nb,f,TRUE\na,1,n\nb,N,y\n"), dataset.CSVOptions{})
	if err != nil {
		t.Fatal(err)
	}
	truth, pred, err := extractLabels(d, "truth", "pred")
	if err != nil {
		t.Fatal(err)
	}
	if want := []bool{true, false, true, false}; !reflect.DeepEqual(truth, want) {
		t.Errorf("truth = %v, want %v", truth, want)
	}
	if want := []bool{false, true, false, true}; !reflect.DeepEqual(pred, want) {
		t.Errorf("pred = %v, want %v", pred, want)
	}
	db, err := confusionDB(d, "truth", "pred")
	if err != nil {
		t.Fatal(err)
	}
	var kept []string
	for r := 0; r < db.NumRows(); r++ {
		kept = append(kept, db.Catalog.Name(db.Catalog.ItemFor(0, db.Row(r)[0])))
	}
	if db.Catalog.NumAttrs() != 1 || !reflect.DeepEqual(kept, []string{"g=a", "g=b", "g=a", "g=b"}) {
		t.Errorf("kept columns = %d attributes, rows %v", db.Catalog.NumAttrs(), kept)
	}

	bad, err := dataset.ReadCSV(strings.NewReader(
		"g,truth,pred\na,1,0\nb,maybe,1\na,perhaps,0\n"), dataset.CSVOptions{})
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = extractLabels(bad, "truth", "pred")
	if want := `row 1: column "truth" value "maybe" is not Boolean`; err == nil || err.Error() != want {
		t.Errorf("err = %v, want %q", err, want)
	}
}

// BenchmarkRunAnalysis is one audit-cold analysis as the server runs it:
// RunAnalysis with no tracker on a datagen.Random table of 5,000 rows
// and ten attributes of cardinality up to 4, truth and pred last, at
// s = 0.05 — label split, confusion database, mine and Result index.
func BenchmarkRunAnalysis(b *testing.B) {
	d := labeledTable(b, 1, 5000, 10, 4)
	spec := Spec{TruthCol: "truth", PredCol: "pred", Support: 0.05}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunAnalysis(ctx, d, spec, nil); err != nil {
			b.Fatal(err)
		}
	}
}
