package jobs

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/dataset"
)

// TestExtractLabelsByCode pins the label split: every spelling of a
// Boolean is read through its domain value, the kept columns keep
// their codes, and the first non-Boolean row is reported by index and
// value, as before the split read codes.
func TestExtractLabelsByCode(t *testing.T) {
	d, err := dataset.ReadCSV(strings.NewReader(
		"g,truth,pred\na,Yes,0\nb,f,TRUE\na,1,n\nb,N,y\n"), dataset.CSVOptions{})
	if err != nil {
		t.Fatal(err)
	}
	truth, pred, rest, err := extractLabels(d, "truth", "pred")
	if err != nil {
		t.Fatal(err)
	}
	if want := []bool{true, false, true, false}; !reflect.DeepEqual(truth, want) {
		t.Errorf("truth = %v, want %v", truth, want)
	}
	if want := []bool{false, true, false, true}; !reflect.DeepEqual(pred, want) {
		t.Errorf("pred = %v, want %v", pred, want)
	}
	if rest.NumAttrs() != 1 || rest.Attrs[0].Name != "g" || !reflect.DeepEqual(rest.Column(0), []string{"a", "b", "a", "b"}) {
		t.Errorf("kept columns = %v", rest)
	}

	bad, err := dataset.ReadCSV(strings.NewReader(
		"g,truth,pred\na,1,0\nb,maybe,1\na,perhaps,0\n"), dataset.CSVOptions{})
	if err != nil {
		t.Fatal(err)
	}
	_, _, _, err = extractLabels(bad, "truth", "pred")
	if want := `row 1: column "truth" value "maybe" is not Boolean`; err == nil || err.Error() != want {
		t.Errorf("err = %v, want %q", err, want)
	}
}
