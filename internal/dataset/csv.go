package dataset

import (
	"bytes"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"unicode/utf8"
)

// CSVOptions controls CSV parsing for ReadCSV and Decode.
type CSVOptions struct {
	// Comma is the field delimiter; ',' when zero.
	Comma rune
	// MissingValues lists cell contents treated as missing (e.g. "?", "").
	MissingValues []string
	// DropMissing, when true, silently skips records containing missing
	// values (the paper's standard preprocessing). When false a missing
	// value is an error.
	DropMissing bool
	// TrimSpace trims surrounding whitespace from every cell.
	TrimSpace bool
}

// ReadCSV reads a headered CSV stream into a Dataset. Every column is
// treated as categorical; continuous columns should be discretized
// afterwards (or pre-discretized in the file). It reads the stream to
// its end and decodes the bytes with Decode.
func ReadCSV(r io.Reader, opts CSVOptions) (*Dataset, error) {
	b, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("dataset: reading CSV: %w", err)
	}
	return Decode(b, opts)
}

// Canonicalize returns the canonical form of CSV bytes: CRLF and lone
// CR line breaks become LF, and a missing final LF is added. It is the
// form registry content addresses hash and the form Decode parses, so
// a lone CR is a line break wherever an upload is read — encoding/csv
// alone would keep it inside a cell. Bytes that are already canonical
// (no CR, and empty or ending in LF) are returned as they are, without
// a copy; anything else is copied into a new slice.
func Canonicalize(csv []byte) []byte {
	if bytes.IndexByte(csv, '\r') < 0 && (len(csv) == 0 || csv[len(csv)-1] == '\n') {
		return csv
	}
	out := make([]byte, 0, len(csv)+1)
	for i := 0; i < len(csv); i++ {
		c := csv[i]
		if c == '\r' {
			if i+1 < len(csv) && csv[i+1] == '\n' {
				i++
			}
			c = '\n'
		}
		out = append(out, c)
	}
	if len(out) > 0 && out[len(out)-1] != '\n' {
		out = append(out, '\n')
	}
	return out
}

// errInvalidDelim is encoding/csv's rejection of an unusable delimiter,
// reproduced so a bad Comma reads as it always has.
var errInvalidDelim = errors.New("csv: invalid field or comment delimiter")

// linearMax is the domain size up to which a column finds a cell's code
// by comparing it against each known value rather than hashing it: for
// the short values of categorical columns a handful of comparisons beat
// one map hash, and every domain of at most this size never builds a
// map at all. Past it, lookups go through a map.
const linearMax = 16

// Decode parses headered CSV bytes into a Dataset; ReadCSV, registry
// registration and spill promotion all decode through it. It reads
// Canonicalize(csv), with no copy when csv is already canonical, and
// accepts, rejects and decodes exactly as encoding/csv's record loop
// would on those bytes: double-quoted cells with "" escapes and line
// breaks, blank lines skipped, the header fixing the field count, and
// the same *csv.ParseError positions and messages. Cells map straight
// to value codes — a string is made only for a value's first
// occurrence, not per cell — and every row is a window of one code
// arena. Domains are sorted, as after Builder.SortDomains.
func Decode(csv []byte, opts CSVOptions) (*Dataset, error) {
	comma := opts.Comma
	if comma == 0 {
		comma = ','
	}
	if !validDelim(comma) {
		return nil, fmt.Errorf("dataset: reading CSV header: %w", errInvalidDelim)
	}
	buf := Canonicalize(csv)
	s := scanner{buf: buf, eol: bytes.IndexByte(buf, '\n'), line: 1, comma: utf8.AppendRune(nil, comma), trim: opts.TrimSpace}
	ok, err := s.record()
	if err == nil && !ok {
		err = io.EOF
	}
	if err != nil {
		return nil, fmt.Errorf("dataset: reading CSV header: %w", err)
	}
	d := &Dataset{Attrs: make([]Attribute, len(s.fields))}
	for j := range d.Attrs {
		d.Attrs[j].Name = string(s.fields[j])
	}
	if err := decodeRows(&s, d, opts.MissingValues, opts.DropMissing); err != nil {
		return nil, err
	}
	sortDomains(d)
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return d, nil
}

// validDelim is encoding/csv's test for a usable field delimiter.
func validDelim(r rune) bool {
	return r != 0 && r != '"' && r != '\r' && r != '\n' && utf8.ValidRune(r) && r != utf8.RuneError
}

// decodeRows decodes every data record left in s into d.Rows, coding
// cells in first-seen order (sortDomains sorts them after). Records
// with a missing value are skipped or rejected as opts say, before any
// of their cells enter a domain. Codes go into one arena sized from the
// input: a record spans at least one LF and, with nf fields, at least
// max(nf, 2) bytes (nf−1 delimiters and its LF, or a non-empty lone
// cell and its LF), so the smaller bound is never exceeded and the
// arena is allocated once. Blank lines, line breaks inside quoted cells
// and skipped records make that bound loose; an arena left more than a
// quarter empty is copied to its exact size, so what the dataset keeps
// is proportional to the rows it holds. Rows are made last, each a
// capacity-bounded window of the arena.
//
// lint:hot
func decodeRows(s *scanner, d *Dataset, missing []string, dropMissing bool) error {
	nf := len(d.Attrs)
	rest := s.buf[s.pos:]
	arena := make([]int32, 0, nf*min(bytes.Count(rest, lf), len(rest)/max(nf, 2)))
	cols := make([]column, nf)
	line := 1 // records read, header included: the "line %d" of errors
	for {
		ok, err := s.record()
		if err == nil && ok && len(s.fields) != nf {
			err = s.errAt(s.recLine, 1, csv.ErrFieldCount)
		}
		if err != nil {
			return rowErr(err)
		}
		if !ok {
			break
		}
		line++
		if j := s.missingAt(missing); j >= 0 {
			if dropMissing {
				continue
			}
			return missingErr(line, d.Attrs[j].Name)
		}
		for j, v := range s.fields {
			arena = append(arena, cols[j].code(v))
		}
	}
	if cap(arena)-len(arena) > len(arena)/4 {
		arena = append([]int32(nil), arena...)
	}
	d.Rows = make([][]int32, len(arena)/nf)
	for r := range d.Rows {
		d.Rows[r] = arena[r*nf : (r+1)*nf : (r+1)*nf]
	}
	for j := range cols {
		d.Attrs[j].Values = cols[j].values
	}
	return nil
}

// rowErr and missingErr format the error that ends a decode.
//
// lint:ignore hotalloc once per call, never per cell
func rowErr(err error) error { return fmt.Errorf("dataset: reading CSV: %w", err) }

// lint:ignore hotalloc once per call, never per cell
func missingErr(line int, col string) error {
	return fmt.Errorf("dataset: line %d: missing value in column %q", line, col)
}

// column interns one attribute's values in first-seen order.
type column struct {
	values []string
	// index maps value → code once the domain outgrows linearMax; nil
	// before that.
	index map[string]int32
}

// code returns the code of cell v, interning v on its first occurrence.
// Neither the comparison nor the map probe allocates for string(v).
func (c *column) code(v []byte) int32 {
	if c.index == nil {
		for k, w := range c.values {
			// Values of one column often share a length and a prefix
			// ("a3_v0", "a3_v1"): the last byte rules most of them out
			// before a full comparison.
			if len(w) == len(v) && (len(v) == 0 || w[len(w)-1] == v[len(v)-1]) && w == string(v) {
				return int32(k)
			}
		}
	} else if k, ok := c.index[string(v)]; ok {
		return k
	}
	return c.add(v)
}

// add interns a value seen for the first time.
//
// lint:ignore hotalloc one string per distinct value — the decoded domain itself — and one map when the domain outgrows linearMax
func (c *column) add(v []byte) int32 {
	k := int32(len(c.values))
	w := string(v)
	c.values = append(c.values, w)
	if c.index != nil {
		c.index[w] = k
	} else if len(c.values) > linearMax {
		c.index = make(map[string]int32, 2*len(c.values))
		for i, x := range c.values {
			c.index[x] = int32(i)
		}
	}
	return k
}

// scanner splits canonical CSV bytes into records, following
// encoding/csv's reader (Comment unset, LazyQuotes and
// TrimLeadingSpace off) and tracking the physical line so errors carry
// its positions. Columns are 1-based byte offsets within the line.
type scanner struct {
	buf     []byte // canonical: empty, or LF-terminated with no CR
	pos     int    // next unread byte
	eol     int    // offset of the LF ending pos's line
	line    int    // physical line holding pos, 1-based
	lineBeg int    // offset of that line's first byte
	comma   []byte // the delimiter's UTF-8 encoding
	trim    bool

	// recLine is the line the last record started on; fields are its
	// cells, trimmed if asked: windows of buf, or of unq for quoted
	// cells (copied there with their "" escapes undone). A quoted cell
	// keeps its window even if a later one in the record moves unq,
	// since the old array is never written again.
	recLine int
	fields  [][]byte
	unq     []byte
}

// lf is the line terminator of canonical bytes.
var lf = []byte{'\n'}

// cell returns v, trimmed if asked. Cells that start and end in
// printable ASCII have nothing to trim.
func (s *scanner) cell(v []byte) []byte {
	if s.trim && len(v) > 0 && !(isPrint(v[0]) && isPrint(v[len(v)-1])) {
		return bytes.TrimSpace(v)
	}
	return v
}

// isPrint reports whether b is printable ASCII, which is never space.
func isPrint(b byte) bool { return b > ' ' && b < utf8.RuneSelf }

// missingAt returns the first cell of the current record whose
// contents are one of the missing tokens, or -1.
func (s *scanner) missingAt(missing []string) int {
	if len(missing) == 0 {
		return -1
	}
	for j, v := range s.fields {
		for _, m := range missing {
			if m == string(v) {
				return j
			}
		}
	}
	return -1
}

// nextLine moves to the line that starts at p.
func (s *scanner) nextLine(p int) {
	s.pos, s.line, s.lineBeg = p, s.line+1, p
	if p < len(s.buf) {
		s.eol = p + bytes.IndexByte(s.buf[p:], '\n')
	}
}

// record reads the next record into s.fields, skipping blank lines. It
// reports false at the end of the input.
func (s *scanner) record() (bool, error) {
	s.fields, s.unq = s.fields[:0], s.unq[:0]
	for s.pos < len(s.buf) && s.buf[s.pos] == '\n' {
		s.nextLine(s.pos + 1)
	}
	if s.pos == len(s.buf) {
		return false, nil
	}
	s.recLine = s.line
	for {
		var f []byte
		var done bool
		var err error
		if s.buf[s.pos] == '"' {
			f, done, err = s.quoted()
		} else {
			f, done, err = s.unquoted()
		}
		if err != nil {
			return false, err
		}
		s.fields = append(s.fields, s.cell(f))
		if done {
			return true, nil
		}
	}
}

// unquoted reads a plain cell, reporting whether it ended the record.
// A one-byte delimiter is found by a byte loop that also watches for a
// quote, which beats two library searches on the short cells of
// categorical data.
func (s *scanner) unquoted() ([]byte, bool, error) {
	f := s.buf[s.pos:s.eol]
	end, q := len(f), -1 // the cell's end, and its first quote
	if len(s.comma) == 1 {
		for k, b := range f {
			if b == '"' {
				q = k
				break
			}
			if b == s.comma[0] {
				end = k
				break
			}
		}
	} else {
		if k := bytes.Index(f, s.comma); k >= 0 {
			end = k
		}
		q = bytes.IndexByte(f[:end], '"')
	}
	if q >= 0 {
		return nil, false, s.errAt(s.line, s.pos+q-s.lineBeg+1, csv.ErrBareQuote)
	}
	if end == len(f) {
		s.nextLine(s.eol + 1)
		return f, true, nil
	}
	s.pos += end + len(s.comma)
	return f[:end], false, nil
}

// quoted reads a double-quoted cell into unq, reporting whether it
// ended the record. The cell may run on over line breaks.
//
// lint:ignore hotalloc unq is reset per record and grows only to the largest record's quoted text, then is reused
func (s *scanner) quoted() ([]byte, bool, error) {
	lo, p := len(s.unq), s.pos+1
	for {
		i := bytes.IndexByte(s.buf[p:], '"')
		if i < 0 {
			// Unterminated at the end of the input: encoding/csv points
			// just past the last line's LF.
			last := len(s.buf) - 1
			line := s.line + bytes.Count(s.buf[s.eol:last], lf)
			beg := bytes.LastIndexByte(s.buf[:last], '\n') + 1
			return nil, false, s.errAt(line, len(s.buf)-beg+1, csv.ErrQuote)
		}
		end := p + i
		s.unq = append(s.unq, s.buf[p:end]...)
		if end > s.eol {
			s.line += bytes.Count(s.buf[s.eol:end], lf)
			s.lineBeg = bytes.LastIndexByte(s.buf[:end], '\n') + 1
			s.eol = end + bytes.IndexByte(s.buf[end:], '\n')
		}
		// The input ends in LF, so a byte follows every quote.
		p = end + 1
		switch {
		case s.buf[p] == '"': // "" is an escaped quote
			s.unq = append(s.unq, '"')
			p++
		case s.buf[p] == '\n':
			s.nextLine(p + 1)
			return s.unq[lo:], true, nil
		case bytes.HasPrefix(s.buf[p:], s.comma):
			s.pos = p + len(s.comma)
			return s.unq[lo:], false, nil
		default:
			return nil, false, s.errAt(s.line, end-s.lineBeg+1, csv.ErrQuote)
		}
	}
}

// errAt builds the *csv.ParseError encoding/csv reports for a fault in
// the current record.
//
// lint:ignore hotalloc the error ends the decode: once per call, never per cell
func (s *scanner) errAt(line, col int, err error) error {
	return &csv.ParseError{StartLine: s.recLine, Line: line, Column: col, Err: err}
}

// WriteCSV writes the dataset as headered CSV.
func WriteCSV(w io.Writer, d *Dataset) error {
	cw := csv.NewWriter(w)
	header := make([]string, len(d.Attrs))
	for i := range d.Attrs {
		header[i] = d.Attrs[i].Name
	}
	if err := cw.Write(header); err != nil {
		return fmt.Errorf("dataset: writing CSV header: %w", err)
	}
	rec := make([]string, len(d.Attrs))
	for r := range d.Rows {
		for j := range d.Attrs {
			rec[j] = d.Value(r, j)
		}
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("dataset: writing CSV row %d: %w", r, err)
		}
	}
	cw.Flush()
	return cw.Error()
}
