package monitor

import (
	"bytes"
	"errors"
	"fmt"
	"math/bits"
	"strconv"
	"unicode/utf16"
	"unicode/utf8"

	"repro/internal/core"
)

// Event is one validated classifier decision, compiled to the monitor's
// schema: an event-time millisecond timestamp, one value code per
// declared attribute, and the confusion cell of the decision.
type Event struct {
	T     int64
	Vals  []uint8
	Class uint8
}

// Parser validates and compiles JSON-line events against one monitor
// spec. An event line is one JSON object:
//
//	{"t": 1723000000000, "attrs": {"sex": "male", "age": 34.5},
//	 "truth": true, "pred": false}
//
// Attribute values are strings for categorical attributes and numbers
// for numeric ones (discretized by the spec's cuts). truth and pred
// accept booleans or the numbers 0/1. A Parser is immutable after
// construction and safe for concurrent use.
type Parser struct {
	spec Spec
	// minLine is a lower bound on the length of a valid event line. The
	// shortest is {"attrs":{…},"truth":0,"pred":0}, t left out: 31 bytes
	// around the attributes, and for each of n attributes at least
	// `"x":0` (a name is never empty), with commas between them, so
	// 30 + 6n. Escapes and case-folded keys only lengthen a key, and the
	// one byte that unescapes to a longer name (invalid UTF-8, read as
	// U+FFFD) is still a byte.
	minLine int
	// names lists the attribute names, sorted, for the missing-attribute
	// error.
	names string
}

// NewParser compiles a validated spec into an event parser.
func NewParser(spec Spec) *Parser {
	return &Parser{spec: spec, minLine: 30 + 6*len(spec.Attributes), names: fmt.Sprint(spec.sortedAttrNames())}
}

// Parse decodes one JSON-line event. Every declared attribute must be
// present with a value in its domain; attributes the spec does not
// declare are ignored (schema-evolution tolerance). Timestamps must be
// non-negative, numeric values finite. The event owns its Vals.
func (p *Parser) Parse(line []byte) (Event, error) {
	d := lineDecoder{p: p}
	t, class, err := d.decode(line)
	if err != nil {
		return Event{}, err
	}
	return Event{T: t, Vals: append([]uint8(nil), d.codes[:len(p.spec.Attributes)]...), Class: class}, nil
}

// Batch is the result of parsing one ingest body: the valid events plus
// per-line rejection bookkeeping.
type Batch struct {
	Events  []Event
	Invalid int
	// FirstErr samples the first rejection so clients can see why lines
	// were dropped without the server echoing every bad line.
	FirstErr error
}

// ParseBatch splits body into JSON lines and decodes each as Parse
// does. Blank lines are skipped. Invalid lines are counted, never
// fatal: a stream ingests what it can and reports the rest. Only the
// first rejection is formatted (FirstErr), so a rejected line after it
// costs no allocation.
//
// The accepted events cost two allocations, whatever their number: the
// []Event and one arena of value codes, of which each event's Vals is a
// capacity-bounded window. Both are sized from the lines long enough to
// hold a valid event (Parser.minLine), which bounds the events accepted,
// so blank and short lines reserve nothing; where long invalid lines
// leave them more than a quarter empty they are copied to their exact
// size, so what a batch keeps is proportional to the events it
// accepted.
//
// lint:hot
func (p *Parser) ParseBatch(body []byte) Batch {
	n := len(p.spec.Attributes)
	room := p.room(body)
	events := make([]Event, 0, room)
	arena := make([]uint8, 0, room*n)
	var b Batch
	d := lineDecoder{p: p}
	for len(body) > 0 {
		line := body
		if i := bytes.IndexByte(body, '\n'); i >= 0 {
			line, body = body[:i], body[i+1:]
		} else {
			body = nil
		}
		line = bytes.TrimSpace(line)
		if len(line) == 0 {
			continue
		}
		t, class, err := d.decode(line)
		if err != nil {
			b.Invalid++
			if !d.quiet {
				// Only the first rejection's text is kept, so the rest
				// are not formatted.
				b.FirstErr, d.quiet = err, true
			}
			continue
		}
		arena = append(arena, d.codes[:n]...)
		events = append(events, Event{T: t, Class: class})
	}
	if cap(events)-len(events) > len(events)/4 {
		events, arena = append([]Event(nil), events...), append([]uint8(nil), arena...)
	}
	for i := range events {
		events[i].Vals = arena[i*n : (i+1)*n : (i+1)*n]
	}
	b.Events = events
	return b
}

// room counts the lines of body at least minLine bytes long, before
// trimming: an upper bound on the events the body holds.
func (p *Parser) room(body []byte) int {
	n := 0
	for len(body) >= p.minLine {
		i := bytes.IndexByte(body, '\n')
		if i < 0 {
			return n + 1
		}
		if i >= p.minLine {
			n++
		}
		body = body[i+1:]
	}
	return n
}

// maxDepth is encoding/json's nesting limit, which the decoder keeps:
// a line whose objects and arrays nest deeper is rejected.
const maxDepth = 10000

// span is the extent buf[lo:hi] of one JSON value of a line. esc marks
// a string whose bytes are not its value: it holds escapes, or bytes
// that are not valid UTF-8, and must be unescaped before comparison. A
// zero span (hi == 0) is a field the line did not give.
type span struct {
	lo, hi int
	esc    bool
}

// lineDecoder decodes one event line in a single pass, with no
// reflection and no allocation. It scans the object once, recording the
// span of the last value given for each field, and validates those
// spans once the object has closed. One lineDecoder serves every line
// of a batch, so its unescape scratch is reused.
//
// The grammar is JSON's, as encoding/json reads a line into a struct
// of an int64 t, an attrs map of raw values and raw truth and pred (the
// reference parser in fuzz_test.go):
//
//   - keys in any order, any JSON whitespace, string escapes including
//     \u surrogate pairs; invalid UTF-8 reads as U+FFFD and control
//     characters are rejected; keys are unescaped before they match;
//   - the top-level keys t, attrs, truth and pred match exactly or else
//     case-insensitively, as struct fields do; attribute names inside
//     attrs match exactly, as map keys do; other keys are skipped with
//     their values, nested ones included, without recursion;
//   - the last occurrence of a key wins, and two attrs objects merge;
//   - t is an int64 literal: no fraction, no exponent, in range;
//   - nesting deeper than maxDepth is rejected.
//
// Two inputs encoding/json accepts are rejected: a null value for any
// occurrence of a declared field (t, attrs, truth, pred, or a declared
// attribute), which it reads as false, 0 or "", and any byte after the
// object other than whitespace, which it drops.
type lineDecoder struct {
	p   *Parser
	buf []byte
	pos int

	t           int64
	truth, pred span
	vals        [MaxAttrs]span // by declared position; valid where found has the bit
	found       uint64

	codes   [MaxAttrs]uint8 // the validated line's value codes
	scratch []byte          // the last unescaped string
	arrays  [maxDepth/64 + 1]uint64

	// quiet rejects with errQuiet instead of a formatted error.
	quiet bool
}

// Fields of the event object.
const (
	fieldOther = iota
	fieldT
	fieldAttrs
	fieldTruth
	fieldPred
)

// fieldNames are the event object's keys, indexed by field.
var fieldNames = [...][]byte{fieldT: []byte("t"), fieldAttrs: []byte("attrs"), fieldTruth: []byte("truth"), fieldPred: []byte("pred")}

// decode decodes and validates one line, leaving its value codes in
// d.codes.
func (d *lineDecoder) decode(line []byte) (int64, uint8, error) {
	d.buf, d.pos = line, 0
	d.t, d.truth, d.pred, d.found = 0, span{}, span{}, 0
	if err := d.object(); err != nil {
		return 0, 0, err
	}
	return d.validate()
}

// object scans the event object and the whitespace after it. A null
// line gives no fields, as encoding/json leaves a struct it decodes
// null into untouched, so it fails validation for a missing field.
func (d *lineDecoder) object() error {
	d.ws()
	switch d.peek() {
	case 'n':
		if err := d.literal("null"); err != nil {
			return err
		}
		return d.end()
	case '{':
	default:
		return d.unexpected()
	}
	d.pos++
	d.ws()
	if d.peek() != '}' {
		for {
			key, err := d.key()
			if err != nil {
				return err
			}
			switch field(key) {
			case fieldT:
				err = d.time()
			case fieldAttrs:
				err = d.attrs()
			case fieldTruth:
				d.truth, err = d.declared(1, "truth")
			case fieldPred:
				d.pred, err = d.declared(1, "pred")
			default:
				_, err = d.value(1)
			}
			if err != nil {
				return err
			}
			if !d.more() {
				break
			}
		}
	}
	if d.peek() != '}' {
		return d.unexpected()
	}
	d.pos++
	return d.end()
}

// end checks that only whitespace follows the event.
func (d *lineDecoder) end() error {
	d.ws()
	if d.pos < len(d.buf) {
		if d.quiet {
			return errQuiet
		}
		return decodeErr("data after the event object at offset %d", d.pos)
	}
	return nil
}

// field matches an unescaped top-level key as encoding/json matches a
// struct field: exactly, or else under Unicode case folding.
func field(key []byte) int {
	for f := fieldT; f <= fieldPred; f++ {
		if string(key) == string(fieldNames[f]) {
			return f
		}
	}
	for f := fieldT; f <= fieldPred; f++ {
		if bytes.EqualFold(key, fieldNames[f]) {
			return f
		}
	}
	return fieldOther
}

// more consumes the separator after an object member or array element:
// true at a comma (whitespace after it skipped), false otherwise, with
// the byte that ends the container, or does not, left in place.
func (d *lineDecoder) more() bool {
	d.ws()
	if d.peek() != ',' {
		return false
	}
	d.pos++
	d.ws()
	return true
}

// time reads a value of t: an int64 literal.
func (d *lineDecoder) time() error {
	s, err := d.declared(1, "t")
	if err != nil {
		return err
	}
	t, ok := parseInt(d.buf[s.lo:s.hi])
	if !ok {
		return d.fault(decodePrefix, "t", " wants an integer, got ", d.buf[s.lo:s.hi])
	}
	d.t = t
	return nil
}

// parseInt parses a JSON value as an int64 literal, as encoding/json
// reads one into an int64 field: digits after an optional minus, in
// range. ok is false for any other value.
func parseInt(lit []byte) (int64, bool) {
	neg := lit[0] == '-'
	if neg {
		lit = lit[1:]
	}
	var u uint64
	for _, c := range lit {
		if !isDigit(c) || u > (1<<63)/10 {
			return 0, false
		}
		u = u*10 + uint64(c-'0')
	}
	switch {
	case neg && u <= 1<<63:
		return -int64(u), true
	case !neg && u < 1<<63:
		return int64(u), true
	}
	return 0, false
}

// attrs reads a value of attrs: an object whose members are attribute
// values, recorded by declared position.
func (d *lineDecoder) attrs() error {
	if d.peek() != '{' {
		s, err := d.declared(1, "attrs")
		if err != nil {
			return err
		}
		return d.fault(decodePrefix, "attrs", " wants an object, got ", d.buf[s.lo:s.hi])
	}
	d.pos++
	d.ws()
	if d.peek() != '}' {
		for {
			key, err := d.key()
			if err != nil {
				return err
			}
			i := d.p.attrAt(key)
			if i < 0 {
				if _, err := d.value(2); err != nil {
					return err
				}
			} else {
				s, err := d.declared(2, d.p.spec.Attributes[i].Name)
				if err != nil {
					return err
				}
				d.vals[i], d.found = s, d.found|1<<i
			}
			if !d.more() {
				break
			}
		}
	}
	if d.peek() != '}' {
		return d.unexpected()
	}
	d.pos++
	return nil
}

// attrAt returns the position of the declared attribute named key, or
// -1.
func (p *Parser) attrAt(key []byte) int {
	for i := range p.spec.Attributes {
		if p.spec.Attributes[i].Name == string(key) {
			return i
		}
	}
	return -1
}

// declared scans the value of a declared field, which may not be null.
func (d *lineDecoder) declared(depth int, name string) (span, error) {
	if d.peek() == 'n' {
		if err := d.literal("null"); err != nil {
			return span{}, err
		}
		return span{}, d.fault(decodePrefix, name, " is null", nil)
	}
	return d.value(depth)
}

// key reads an object key, the colon after it and the whitespace
// around that, returning the unescaped key. An escaped key lives in the
// scratch until the next unescape.
func (d *lineDecoder) key() ([]byte, error) {
	if d.peek() != '"' {
		return nil, d.unexpected()
	}
	lo := d.pos
	esc, err := d.str()
	if err != nil {
		return nil, err
	}
	key := d.buf[lo+1 : d.pos-1]
	if esc {
		key = d.unquote(key)
	}
	d.ws()
	if d.peek() != ':' {
		return nil, d.unexpected()
	}
	d.pos++
	d.ws()
	return key, nil
}

// value scans one JSON value of any kind that depth containers enclose
// and returns its span.
func (d *lineDecoder) value(depth int) (span, error) {
	lo := d.pos
	var esc bool
	var err error
	switch c := d.peek(); c {
	case '"':
		esc, err = d.str()
	case '{', '[':
		err = d.container(depth)
	default:
		err = d.scalar(c)
	}
	return span{lo: lo, hi: d.pos, esc: esc}, err
}

// scalar scans the number or literal that starts with c at pos.
func (d *lineDecoder) scalar(c byte) error {
	switch {
	case c == '-' || isDigit(c):
		return d.number()
	case c == 't':
		return d.literal("true")
	case c == 'f':
		return d.literal("false")
	case c == 'n':
		return d.literal("null")
	}
	return d.unexpected()
}

// container scans the object or array at pos, which depth containers
// enclose. Nesting is walked with a bit stack (set: array) instead of
// recursion.
func (d *lineDecoder) container(depth int) error {
	base := depth
	for {
		var err error
		switch c := d.peek(); c {
		case '{', '[':
			if depth++; depth > maxDepth {
				return errDepth
			}
			w, bit := depth/64, uint64(1)<<(depth%64)
			if c == '[' {
				d.arrays[w] |= bit
			} else {
				d.arrays[w] &^= bit
			}
			d.pos++
			d.ws()
			if d.peek() != c+2 { // ']' and '}' follow '[' and '{' by two
				if c == '{' {
					if _, err := d.key(); err != nil {
						return err
					}
				}
				continue
			}
			d.pos++
			depth--
		case '"':
			_, err = d.str()
		default:
			err = d.scalar(c)
		}
		if err != nil {
			return err
		}
		// A value ended: close the containers it ends, down to base or
		// to one that continues with another element.
		for depth > base {
			closer := byte('}')
			array := d.arrays[depth/64]&(1<<(depth%64)) != 0
			if array {
				closer = ']'
			}
			if d.more() {
				if !array {
					if _, err := d.key(); err != nil {
						return err
					}
				}
				break
			}
			if d.peek() != closer {
				return d.unexpected()
			}
			d.pos++
			depth--
		}
		if depth == base {
			return nil
		}
	}
}

// str scans the string at pos, quotes included, and reports whether it
// holds an escape or bytes that are not valid UTF-8: whether it must be
// unescaped to read its value.
func (d *lineDecoder) str() (esc bool, err error) {
	b := d.buf
	lo, i := d.pos, d.pos+1
	wide := false
	for {
		for i < len(b) && plainByte[b[i]] {
			i++
		}
		if i == len(b) {
			return false, errEnd
		}
		switch c := b[i]; {
		case c == '"':
			if wide && !esc && !utf8.Valid(b[lo+1:i]) {
				esc = true
			}
			d.pos = i + 1
			return esc, nil
		case c == '\\':
			esc = true
			if i+1 == len(b) {
				return false, errEnd
			}
			switch b[i+1] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				i += 2
			case 'u':
				if i+6 > len(b) {
					return false, errEnd
				}
				for k := i + 2; k < i+6; k++ {
					if hexVal(b[k]) < 0 {
						return false, d.unexpectedAt(k)
					}
				}
				i += 6
			default:
				return false, d.unexpectedAt(i + 1)
			}
		case c < ' ':
			return false, d.unexpectedAt(i)
		default:
			wide = true
			i++
		}
	}
}

// plainByte marks the bytes a string holds as they are: printable
// ASCII other than the quote and the backslash.
var plainByte = func() (t [256]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// unquote unescapes the contents of a scanned string into the scratch
// as encoding/json unquotes it: escapes decoded, a \u surrogate pair
// combined, and a lone surrogate or a byte that is not valid UTF-8
// replaced by U+FFFD.
func (d *lineDecoder) unquote(s []byte) []byte {
	d.scratch = d.scratch[:0]
	for i := 0; i < len(s); {
		switch c := s[i]; {
		case c == '\\':
			switch e := s[i+1]; e {
			case 'b':
				d.scratch = append(d.scratch, '\b')
			case 'f':
				d.scratch = append(d.scratch, '\f')
			case 'n':
				d.scratch = append(d.scratch, '\n')
			case 'r':
				d.scratch = append(d.scratch, '\r')
			case 't':
				d.scratch = append(d.scratch, '\t')
			case 'u':
				r := hex4(s[i+2:])
				i += 6
				if utf16.IsSurrogate(r) {
					if i+6 <= len(s) && s[i] == '\\' && s[i+1] == 'u' {
						if pair := utf16.DecodeRune(r, hex4(s[i+2:])); pair != utf8.RuneError {
							r = pair
							i += 6
						}
					}
					if utf16.IsSurrogate(r) {
						r = utf8.RuneError
					}
				}
				d.scratch = utf8.AppendRune(d.scratch, r)
				continue
			default: // '"', '\\' and '/' stand for themselves
				d.scratch = append(d.scratch, e)
			}
			i += 2
		case c < utf8.RuneSelf:
			d.scratch = append(d.scratch, c)
			i++
		default:
			r, n := utf8.DecodeRune(s[i:])
			d.scratch = utf8.AppendRune(d.scratch, r)
			i += n
		}
	}
	return d.scratch
}

// hex4 reads the four hex digits str validated at the front of s.
func hex4(s []byte) rune {
	var r rune
	for _, c := range s[:4] {
		r = r<<4 | rune(hexVal(c))
	}
	return r
}

// hexVal is the value of a hex digit, or -1.
func hexVal(c byte) int {
	switch {
	case '0' <= c && c <= '9':
		return int(c - '0')
	case 'a' <= c && c <= 'f':
		return int(c - 'a' + 10)
	case 'A' <= c && c <= 'F':
		return int(c - 'A' + 10)
	}
	return -1
}

// number scans a JSON number at pos. The grammar is checked here:
// strconv would also take 0x1p4, inf, +1 and 1_0.
func (d *lineDecoder) number() error {
	b, i := d.buf, d.pos
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = digits(b, i+1)
	default:
		return d.unexpectedAt(i)
	}
	if i < len(b) && b[i] == '.' {
		if i++; i == len(b) || !isDigit(b[i]) {
			return d.unexpectedAt(i)
		}
		i = digits(b, i)
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		if i++; i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if i == len(b) || !isDigit(b[i]) {
			return d.unexpectedAt(i)
		}
		i = digits(b, i)
	}
	d.pos = i
	return nil
}

// digits returns the offset of the first non-digit at or after i.
func digits(b []byte, i int) int {
	for i < len(b) && isDigit(b[i]) {
		i++
	}
	return i
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// literal scans the literal lit (true, false or null) at pos.
func (d *lineDecoder) literal(lit string) error {
	if end := d.pos + len(lit); end <= len(d.buf) && string(d.buf[d.pos:end]) == lit {
		d.pos = end
		return nil
	}
	k := 0
	for d.pos+k < len(d.buf) && d.buf[d.pos+k] == lit[k] {
		k++
	}
	return d.unexpectedAt(d.pos + k)
}

// ws skips JSON whitespace.
func (d *lineDecoder) ws() {
	for d.pos < len(d.buf) && d.buf[d.pos] <= ' ' {
		switch d.buf[d.pos] {
		case ' ', '\t', '\n', '\r':
			d.pos++
		default:
			return
		}
	}
}

// peek returns the byte at pos, or 0 at the end of the line (0 is no
// valid JSON token either way).
func (d *lineDecoder) peek() byte {
	if d.pos < len(d.buf) {
		return d.buf[d.pos]
	}
	return 0
}

// validate checks the decoded fields in a fixed order — the time, truth,
// pred, each declared attribute in declared order, then the missing
// count — and leaves the value codes in d.codes.
func (d *lineDecoder) validate() (int64, uint8, error) {
	if d.t < 0 {
		if d.quiet {
			return 0, 0, errQuiet
		}
		return 0, 0, rejectErr("event time %d is negative", d.t)
	}
	truth, err := d.outcome(d.truth, "truth")
	if err != nil {
		return 0, 0, err
	}
	pred, err := d.outcome(d.pred, "pred")
	if err != nil {
		return 0, 0, err
	}
	attrs := d.p.spec.Attributes
	for i := range attrs {
		if d.found&(1<<i) == 0 {
			continue
		}
		if d.codes[i], err = d.code(&attrs[i], d.vals[i]); err != nil {
			return 0, 0, err
		}
	}
	if missing := len(attrs) - bits.OnesCount64(d.found); missing > 0 {
		if d.quiet {
			return 0, 0, errQuiet
		}
		return 0, 0, rejectErr("event is missing %d of the declared attributes (%s)", missing, d.p.names)
	}
	return d.t, confusionCell(truth, pred), nil
}

// outcome reads a truth or pred value: a boolean, or a number that
// strconv.ParseFloat reads as 0 or 1 (so -0, 1.0 and 1e0 count).
func (d *lineDecoder) outcome(s span, field string) (bool, error) {
	if s.hi == 0 {
		return false, d.fault("monitor: event is missing ", field, "", nil)
	}
	raw := d.buf[s.lo:s.hi]
	switch c := raw[0]; {
	case c == 't':
		return true, nil
	case c == 'f':
		return false, nil
	case c == '-' || isDigit(c):
		// lint:ignore hotalloc string(raw) does not escape ParseFloat, so a literal of up to 32 bytes converts on the stack; only a longer one, with more digits than a float64 holds, allocates
		v, err := strconv.ParseFloat(string(raw), 64)
		if err != nil {
			break
		}
		switch v {
		case 0:
			return false, nil
		case 1:
			return true, nil
		}
	}
	return false, d.fault("monitor: ", field, " wants a boolean or 0/1, got ", raw)
}

// code validates one attribute value against its declaration and
// returns its domain code. A numeric value goes through
// strconv.ParseFloat, so a literal out of float64 range wants a number;
// a categorical one is compared byte for byte with the domain, and only
// an escaped string is unescaped first.
func (d *lineDecoder) code(a *AttrSpec, s span) (uint8, error) {
	raw := d.buf[s.lo:s.hi]
	if a.numeric() {
		if c := raw[0]; c == '-' || isDigit(c) {
			// lint:ignore hotalloc string(raw) does not escape ParseFloat, so a literal of up to 32 bytes converts on the stack; only a longer one, with more digits than a float64 holds, allocates
			if v, err := strconv.ParseFloat(string(raw), 64); err == nil {
				return a.bin(v), nil
			}
		}
		return 0, d.fault("monitor: attribute ", a.Name, " wants a number, got ", raw)
	}
	if raw[0] != '"' {
		return 0, d.fault("monitor: attribute ", a.Name, " wants a string, got ", raw)
	}
	v := raw[1 : len(raw)-1]
	if s.esc {
		v = d.unquote(v)
	}
	for k, w := range a.Values {
		if w == string(v) {
			return uint8(k), nil
		}
	}
	if d.quiet {
		return 0, errQuiet
	}
	return 0, rejectErr("attribute %q has no value %q", a.Name, v)
}

// confusionCell maps a (truth, pred) pair to its confusion class.
func confusionCell(truth, pred bool) uint8 {
	switch {
	case pred && truth:
		return core.ClassTP
	case pred && !truth:
		return core.ClassFP
	case !pred && truth:
		return core.ClassFN
	default:
		return core.ClassTN
	}
}

// unexpected reports the byte at pos as out of place, or the line as
// cut short.
func (d *lineDecoder) unexpected() error { return d.unexpectedAt(d.pos) }

func (d *lineDecoder) unexpectedAt(i int) error {
	switch {
	case i >= len(d.buf):
		return errEnd
	case d.quiet:
		return errQuiet
	}
	return decodeErr("invalid character %q at offset %d", d.buf[i], i)
}

// fault reports a field's value: prefix, the field's quoted name, what
// is wrong with the value and, clipped, the value itself (raw, nil for
// none).
//
// lint:ignore hotalloc an error ends the line's decode: once per batch
func (d *lineDecoder) fault(prefix, name, what string, raw []byte) error {
	if d.quiet {
		return errQuiet
	}
	return fmt.Errorf("%s%q%s%s", prefix, name, what, clip(raw))
}

// errEnd and errDepth end the decode of a line cut short or nested
// too deep; errQuiet is every other rejection of a quiet decoder.
var (
	errEnd   = errors.New("monitor: decoding event: unexpected end of line")
	errDepth = errors.New("monitor: decoding event: exceeded max depth")
	errQuiet = errors.New("monitor: event rejected")
)

// decodePrefix starts a JSON syntax or type fault's message.
const decodePrefix = "monitor: decoding event: "

// decodeErr formats a JSON syntax or type fault in a line, and
// rejectErr a value the schema does not admit. A quiet decoder calls
// neither, so each runs at most once per batch.
//
// lint:ignore hotalloc an error ends the line's decode: once per batch
func decodeErr(format string, args ...any) error {
	return fmt.Errorf(decodePrefix+format, args...)
}

// lint:ignore hotalloc an error ends the line's decode: once per batch
func rejectErr(format string, args ...any) error {
	return fmt.Errorf("monitor: "+format, args...)
}

// clip bounds a raw JSON fragment for an error message.
//
// lint:ignore hotalloc an error ends the line's decode: once per batch
func clip(raw []byte) string {
	const max = 32
	if len(raw) > max {
		return string(raw[:max]) + "..."
	}
	return string(raw)
}

// ErrIngestBackpressure is returned when a monitor's bounded ingest
// buffer is full — the streaming sibling of jobs.ErrQueueFull. Clients
// should back off and retry.
var ErrIngestBackpressure = errors.New("monitor: ingest buffer full")
