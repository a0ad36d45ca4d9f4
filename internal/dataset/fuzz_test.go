package dataset_test

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/registry"
)

// FuzzParseCSV drives the dataset loader with arbitrary bytes and checks
// the pipeline invariants the server relies on:
//
//   - parsing never panics, on raw or canonicalized input;
//   - dataset.Canonicalize is idempotent, and content hashes are
//     line-ending independent (the content-addressing contract);
//   - raw bytes parse exactly as their canonical form does — accepted
//     or rejected alike, to the same dataset — so bytes that share a
//     content address share a dataset;
//   - every accepted dataset validates;
//   - parse → write → parse is a fixpoint: the written form re-parses to
//     the same shape and re-writes byte-identically, so a stored dataset
//     never drifts across round trips.
func FuzzParseCSV(f *testing.F) {
	f.Add("a,b\nx,1\ny,2\n")
	f.Add("a\n\"quoted,comma\"\n")
	f.Add("")
	f.Add("a,b\nx\n")
	f.Add("h1,h2,h3\n,,\n")
	f.Add("a,b\r\nx,1\r\n")
	f.Add("a,b\rx,1\r")
	f.Add("col\n\"embedded\nnewline\"\n")
	f.Add("a,b\n x , 1 \n")
	f.Fuzz(func(t *testing.T, input string) {
		canon := dataset.Canonicalize([]byte(input))
		if again := dataset.Canonicalize(canon); !bytes.Equal(again, canon) {
			t.Fatalf("Canonicalize not idempotent:\n%q\n%q", canon, again)
		}
		if registry.HashBytes([]byte(input)) != registry.HashBytes(canon) {
			t.Fatal("content hash differs between raw and canonical bytes")
		}
		raw, rawErr := dataset.ReadCSV(strings.NewReader(input), dataset.CSVOptions{TrimSpace: true})
		d, err := dataset.ReadCSV(bytes.NewReader(canon), dataset.CSVOptions{TrimSpace: true})
		if (rawErr == nil) != (err == nil) || (err == nil && !reflect.DeepEqual(raw, d)) {
			t.Fatalf("raw and canonical bytes parse differently:\nraw:   %v, %v\ncanon: %v, %v", raw, rawErr, d, err)
		}
		if err != nil {
			return // rejection is fine; panics are not
		}
		if err := d.Validate(); err != nil {
			t.Fatalf("accepted dataset fails validation: %v", err)
		}
		var w1 bytes.Buffer
		if err := dataset.WriteCSV(&w1, d); err != nil {
			t.Fatalf("write-back failed: %v", err)
		}
		d2, err := dataset.ReadCSV(bytes.NewReader(w1.Bytes()), dataset.CSVOptions{TrimSpace: true})
		if err != nil {
			t.Fatalf("round trip unreadable: %v", err)
		}
		if d2.NumRows() != d.NumRows() || d2.NumAttrs() != d.NumAttrs() {
			t.Fatalf("round trip changed shape: %dx%d vs %dx%d",
				d2.NumRows(), d2.NumAttrs(), d.NumRows(), d.NumAttrs())
		}
		for r := range d.Rows {
			for c := 0; c < d.NumAttrs(); c++ {
				if d.Value(r, c) != d2.Value(r, c) {
					t.Fatalf("round trip changed cell (%d,%d): %q vs %q",
						r, c, d.Value(r, c), d2.Value(r, c))
				}
			}
		}
		var w2 bytes.Buffer
		if err := dataset.WriteCSV(&w2, d2); err != nil {
			t.Fatalf("second write-back failed: %v", err)
		}
		if !bytes.Equal(w1.Bytes(), w2.Bytes()) {
			t.Fatalf("write form is not a fixpoint:\n%q\n%q", w1.Bytes(), w2.Bytes())
		}
	})
}
