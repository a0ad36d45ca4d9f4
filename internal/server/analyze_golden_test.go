package server

import (
	"bytes"
	"flag"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files under testdata: the /analyze bodies and the /statsz key paths")

// analyzeGoldenCases are the seeded datasets whose /analyze answers are
// pinned byte for byte. The queries set eps and alpha so the pruned and
// BH-significant sections render too, and ask for several metrics so
// the per-metric ranking, item divergence and corrective sections each
// appear more than once.
var analyzeGoldenCases = []struct {
	name                 string
	seed                 int64
	rows, attrs, maxCard int
	query                string
}{
	{"random7", 7, 3000, 6, 4, "support=0.03&eps=0.01&alpha=0.1&metric=FPR,FNR,ER"},
	{"random19", 19, 4000, 7, 3, "support=0.06&eps=0.005&alpha=0.05&topk=15&metric=FNR,PPV"},
	{"random31", 31, 2000, 5, 5, "support=0.02&eps=0.02&alpha=0.2&topk=7&metric=ACC,FPR,TNR"},
}

// TestAnalyzeGolden pins the JSON and CSV /analyze bodies of seeded
// datasets to checked-in goldens, so ranking rewrites in package core
// must keep every byte. Regenerate with `go test ./internal/server -run
// TestAnalyzeGolden -update` only for an intended output change.
func TestAnalyzeGolden(t *testing.T) {
	for _, c := range analyzeGoldenCases {
		body := datagenCSV(t, c.seed, c.rows, c.attrs, c.maxCard)
		for _, format := range []string{"json", "csv"} {
			name := fmt.Sprintf("%s.%s", c.name, format)
			t.Run(name, func(t *testing.T) {
				w := doRequest(t, "/analyze?format="+format+"&"+c.query, body)
				if w.Code != http.StatusOK {
					t.Fatalf("analyze = %d: %s", w.Code, w.Body.String())
				}
				path := filepath.Join("testdata", "analyze", name)
				if *updateGolden {
					if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
						t.Fatal(err)
					}
					if err := os.WriteFile(path, w.Body.Bytes(), 0o644); err != nil {
						t.Fatal(err)
					}
					return
				}
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("%v (regenerate with -update)", err)
				}
				if got := w.Body.Bytes(); !bytes.Equal(got, want) {
					t.Fatalf("/analyze %s body differs from %s (%d vs %d bytes; first difference at byte %d)",
						format, path, len(got), len(want), firstDiff(got, want))
				}
			})
		}
	}
}

// firstDiff returns the offset of the first differing byte of a and b.
func firstDiff(a, b []byte) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}
