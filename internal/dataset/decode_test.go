package dataset_test

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/dataset"
)

// oracleReadCSV is the encoding/csv record loop ReadCSV ran before
// Decode replaced it, kept as the reference Decode must match on the
// canonical form of every input.
func oracleReadCSV(r io.Reader, opts dataset.CSVOptions) (*dataset.Dataset, error) {
	cr := csv.NewReader(r)
	if opts.Comma != 0 {
		cr.Comma = opts.Comma
	}
	cr.FieldsPerRecord = 0 // require rectangular input

	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("dataset: reading CSV header: %w", err)
	}
	if opts.TrimSpace {
		for i := range header {
			header[i] = strings.TrimSpace(header[i])
		}
	}
	missing := make(map[string]bool, len(opts.MissingValues))
	for _, m := range opts.MissingValues {
		missing[m] = true
	}

	b := dataset.NewBuilder(header...)
	line := 1
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("dataset: reading CSV: %w", err)
		}
		line++
		if opts.TrimSpace {
			for i := range rec {
				rec[i] = strings.TrimSpace(rec[i])
			}
		}
		skip := false
		for i, v := range rec {
			if missing[v] {
				if opts.DropMissing {
					skip = true
					break
				}
				return nil, fmt.Errorf("dataset: line %d: missing value in column %q", line, header[i])
			}
		}
		if skip {
			continue
		}
		if err := b.Add(rec...); err != nil {
			return nil, fmt.Errorf("dataset: line %d: %w", line, err)
		}
	}
	b.SortDomains()
	return b.Dataset()
}

// fuzzOptions derives CSV options from one fuzz byte: TrimSpace, a
// missing-value token with DropMissing on or off, and one of four
// delimiters, a multi-byte rune among them.
func fuzzOptions(sel byte) dataset.CSVOptions {
	opts := dataset.CSVOptions{
		TrimSpace: sel&1 != 0,
		Comma:     []rune{0, ';', '\t', '§'}[sel>>1&3],
	}
	switch sel >> 3 & 3 {
	case 1:
		opts.MissingValues = []string{"?"}
	case 2:
		opts.MissingValues, opts.DropMissing = []string{"?"}, true
	case 3:
		opts.MissingValues, opts.DropMissing = []string{"", "?"}, true
	}
	return opts
}

// checkDecodeMatchesOracle asserts Decode and the encoding/csv oracle
// agree on accept/reject, error text and the decoded dataset.
func checkDecodeMatchesOracle(t *testing.T, input []byte, opts dataset.CSVOptions) {
	t.Helper()
	want, wantErr := oracleReadCSV(bytes.NewReader(dataset.Canonicalize(input)), opts)
	got, gotErr := dataset.Decode(input, opts)
	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("accept/reject differ on %q (%+v):\noracle: %v\ndecode: %v", input, opts, wantErr, gotErr)
	}
	if wantErr != nil {
		if wantErr.Error() != gotErr.Error() {
			t.Fatalf("error text differs on %q (%+v):\noracle: %v\ndecode: %v", input, opts, wantErr, gotErr)
		}
		return
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("datasets differ on %q (%+v):\noracle: %+v\ndecode: %+v", input, opts, want, got)
	}
}

// decodeSeeds are inputs that reach each branch of the record loop.
var decodeSeeds = []string{
	// FuzzParseCSV's corpus.
	"a,b\nx,1\ny,2\n",
	"a\n\"quoted,comma\"\n",
	"",
	"a,b\nx\n",
	"h1,h2,h3\n,,\n",
	"a,b\r\nx,1\r\n",
	"a,b\rx,1\r",
	"col\n\"embedded\nnewline\"\n",
	"a,b\n x , 1 \n",
	// Quoting and layout edges.
	"a,b\n\"say \"\"hi\"\"\",2\n",
	"a,b\nx\"y,2\n",
	"a,b\n\"x\"y,2\n",
	"a,b\n\nx,1\n\n\ny,2\n",
	"a,b,\nx,1,\n",
	"a,b\n  ,1\n",
	"a,b\n\"multi\nline\ncell\",2\n",
	"a,b\n\"open,1\n",
	"a;b\nx;?\ny;2\n",
	"a\tb\nx\t1\n",
	"a§b\n\"x\"§1\n",
}

// FuzzDecodeCSV differentially tests Decode against the encoding/csv
// record loop it replaced, run on the canonical form of the input. The
// first fuzz byte picks the options (trimming, a missing-value token
// with or without DropMissing, and the delimiter); the decoders must
// agree on accept/reject, error text and the dataset itself.
func FuzzDecodeCSV(f *testing.F) {
	for i, s := range decodeSeeds {
		f.Add(byte(i), s)
	}
	f.Fuzz(func(t *testing.T, sel byte, input string) {
		checkDecodeMatchesOracle(t, []byte(input), fuzzOptions(sel))
	})
}

// TestDecodeMatchesOracleOnSeeds runs every seed under every option
// combination the fuzz target can draw, so the differential check runs
// in the ordinary test tier too.
func TestDecodeMatchesOracleOnSeeds(t *testing.T) {
	for _, s := range decodeSeeds {
		for sel := 0; sel < 32; sel++ {
			checkDecodeMatchesOracle(t, []byte(s), fuzzOptions(byte(sel)))
		}
	}
}

// TestDecodeInvalidDelimiter pins the error for an unusable Comma.
func TestDecodeInvalidDelimiter(t *testing.T) {
	for _, comma := range []rune{'"', '\n', '\r', 0xD800} {
		opts := dataset.CSVOptions{Comma: comma}
		_, want := oracleReadCSV(strings.NewReader("a\nx\n"), opts)
		_, got := dataset.Decode([]byte("a\nx\n"), opts)
		if want == nil || got == nil || want.Error() != got.Error() {
			t.Errorf("comma %q: oracle %v, decode %v", comma, want, got)
		}
	}
}

// TestDecodeRowsShareOneArena checks the layout promise: rows are
// capacity-bounded windows of one code array, so appending to a row
// reallocates it instead of overwriting the next.
func TestDecodeRowsShareOneArena(t *testing.T) {
	d, err := dataset.Decode([]byte("a,b\nx,1\ny,2\nz,3\n"), dataset.CSVOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for r, row := range d.Rows {
		if cap(row) != len(row) {
			t.Fatalf("row %d: cap %d, want %d", r, cap(row), len(row))
		}
	}
	want := d.Rows[1][0]
	_ = append(d.Rows[0], 99)
	if d.Rows[1][0] != want {
		t.Fatal("appending to a row overwrote the next")
	}
}

// TestCanonicalizeNoCopy pins the no-copy path: canonical bytes come
// back as the same slice; anything else is a fresh copy.
func TestCanonicalizeNoCopy(t *testing.T) {
	canon := []byte("a,b\nx,1\n")
	if got := dataset.Canonicalize(canon); &got[0] != &canon[0] {
		t.Error("canonical input was copied")
	}
	for _, raw := range []string{"a,b\r\nx,1\r\n", "a,b\nx,1", "a\rb\n"} {
		in := []byte(raw)
		if got := dataset.Canonicalize(in); &got[0] == &in[0] {
			t.Errorf("%q: non-canonical input returned in place", raw)
		}
	}
}

// TestDecodeAllocations bounds the decoder's allocations: none per
// cell or per row, only per column and per distinct value.
func TestDecodeAllocations(t *testing.T) {
	var b strings.Builder
	b.WriteString("a,b,c\n")
	for i := 0; i < 2000; i++ {
		fmt.Fprintf(&b, "v%d,w%d,x%d\n", i%3, i%5, i%40)
	}
	input := []byte(b.String())
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := dataset.Decode(input, dataset.CSVOptions{}); err != nil {
			t.Fatal(err)
		}
	})
	// 48 first-seen strings and two maps' worth of growth for the
	// 40-value column, a few per column for sorting and Validate, and
	// the dataset's own slices: well under one per row.
	if allocs > 150 {
		t.Errorf("Decode allocates %.0f times for 2,000 rows", allocs)
	}
}

// TestDecodeHoldsOnlyDecodedRows pins that what a decoded dataset
// keeps is proportional to the rows it holds, not to the input bytes
// that bound its arena: blank lines and a quoted cell spanning many
// lines inflate that bound but decode to one row each.
func TestDecodeHoldsOnlyDecodedRows(t *testing.T) {
	const n = 1 << 20
	cell := strings.Repeat("a\n", n/2)
	for _, c := range []struct {
		name, input string
		kept        int // bytes the one row legitimately holds: its cell
	}{
		{"blank lines", "h\nx\n" + strings.Repeat("\n", n), 0},
		{"spanning cell", "h\n\"" + cell + "\"\n", len(cell)},
	} {
		input := []byte(c.input)
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		d, err := dataset.Decode(input, dataset.CSVOptions{})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		if len(d.Rows) != 1 || cap(d.Rows) != 1 {
			t.Errorf("%s: %d rows, cap %d, want 1 and 1", c.name, len(d.Rows), cap(d.Rows))
		}
		// A row header and arena sized from the input's line count would
		// hold about 28 bytes per line.
		if held := int64(after.HeapAlloc) - int64(before.HeapAlloc); held > int64(c.kept)+64<<10 {
			t.Errorf("%s: the dataset holds %d bytes for one row", c.name, held)
		}
		runtime.KeepAlive(d)
		runtime.KeepAlive(input)
	}
}

// TestDropAttrsArena checks that DropAttrs keeps each row's codes in
// order, as capacity-bounded windows of one arena.
func TestDropAttrsArena(t *testing.T) {
	d, err := dataset.Decode([]byte("a,b,c\nx,1,q\ny,2,p\n"), dataset.CSVOptions{})
	if err != nil {
		t.Fatal(err)
	}
	out, err := d.DropAttrs("b")
	if err != nil {
		t.Fatal(err)
	}
	if want := [][]int32{{0, 1}, {1, 0}}; !reflect.DeepEqual(out.Rows, want) {
		t.Fatalf("rows = %v, want %v", out.Rows, want)
	}
	for r, row := range out.Rows {
		if cap(row) != len(row) {
			t.Errorf("row %d: cap %d, want %d", r, cap(row), len(row))
		}
	}
}
