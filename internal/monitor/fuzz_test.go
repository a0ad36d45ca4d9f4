package monitor

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
)

// wireEvent is the shape the encoding/json parser decoded each event
// line into before the one-pass decoder replaced it.
type wireEvent struct {
	T     int64                      `json:"t"`
	Attrs map[string]json.RawMessage `json:"attrs"`
	Truth json.RawMessage            `json:"truth"`
	Pred  json.RawMessage            `json:"pred"`
}

// parseReference is the encoding/json event parser that Parse replaced,
// kept as the differential oracle, with the two rules the decoder adds:
// a null value for any occurrence of a declared field rejects the line,
// and so does any byte after the object other than JSON whitespace.
// Attributes are validated in declared order, as Parse validates them,
// so the two report the same one of two bad attributes.
func parseReference(spec Spec, line []byte) (Event, error) {
	var w wireEvent
	dec := json.NewDecoder(bytes.NewReader(line))
	if err := dec.Decode(&w); err != nil {
		return Event{}, fmt.Errorf("monitor: decoding event: %w", err)
	}
	if rest := bytes.TrimLeft(line[dec.InputOffset():], " \t\r\n"); len(rest) > 0 {
		return Event{}, errors.New("monitor: decoding event: data after the event object")
	}
	if declaredNull(spec, line) {
		return Event{}, errors.New("monitor: decoding event: a declared field is null")
	}
	if w.T < 0 {
		return Event{}, fmt.Errorf("monitor: event time %d is negative", w.T)
	}
	truth, err := referenceOutcome(w.Truth, "truth")
	if err != nil {
		return Event{}, err
	}
	pred, err := referenceOutcome(w.Pred, "pred")
	if err != nil {
		return Event{}, err
	}
	ev := Event{T: w.T, Vals: make([]uint8, len(spec.Attributes)), Class: confusionCell(truth, pred)}
	found := 0
	for i := range spec.Attributes {
		raw, ok := w.Attrs[spec.Attributes[i].Name]
		if !ok {
			continue
		}
		code, err := referenceValue(&spec.Attributes[i], raw)
		if err != nil {
			return Event{}, err
		}
		ev.Vals[i] = code
		found++
	}
	if found != len(spec.Attributes) {
		return Event{}, fmt.Errorf("monitor: event is missing %d of the declared attributes (%v)",
			len(spec.Attributes)-found, spec.sortedAttrNames())
	}
	return ev, nil
}

// referenceValue is the old per-attribute check: a json.Unmarshal into
// a float64 or a string.
func referenceValue(a *AttrSpec, raw json.RawMessage) (uint8, error) {
	if a.numeric() {
		var v float64
		if err := json.Unmarshal(raw, &v); err != nil {
			return 0, fmt.Errorf("monitor: attribute %q wants a number, got %s", a.Name, clip(raw))
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return 0, fmt.Errorf("monitor: attribute %q value is not finite", a.Name)
		}
		return a.bin(v), nil
	}
	var s string
	if err := json.Unmarshal(raw, &s); err != nil {
		return 0, fmt.Errorf("monitor: attribute %q wants a string, got %s", a.Name, clip(raw))
	}
	for i, v := range a.Values {
		if v == s {
			return uint8(i), nil
		}
	}
	return 0, fmt.Errorf("monitor: attribute %q has no value %q", a.Name, s)
}

// referenceOutcome is the old truth/pred check: a json.Unmarshal into a
// bool, then into a float64 that must be 0 or 1.
func referenceOutcome(raw json.RawMessage, field string) (bool, error) {
	if len(raw) == 0 {
		return false, fmt.Errorf("monitor: event is missing %q", field)
	}
	var b bool
	if err := json.Unmarshal(raw, &b); err == nil {
		return b, nil
	}
	var v float64
	if err := json.Unmarshal(raw, &v); err != nil {
		return false, fmt.Errorf("monitor: %q wants a boolean or 0/1, got %s", field, clip(raw))
	}
	switch v {
	case 0:
		return false, nil
	case 1:
		return true, nil
	}
	return false, fmt.Errorf("monitor: %q wants a boolean or 0/1, got %s", field, clip(raw))
}

// declaredNull reports whether a line encoding/json decoded holds null
// for any occurrence of a declared field: a top-level key that matches
// t, attrs, truth or pred as a struct field does, or a declared
// attribute inside any attrs object.
func declaredNull(spec Spec, line []byte) bool {
	members := func(obj []byte, visit func(key string, raw json.RawMessage)) {
		dec := json.NewDecoder(bytes.NewReader(obj))
		if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
			return
		}
		for dec.More() {
			tok, err := dec.Token()
			if err != nil {
				return
			}
			var raw json.RawMessage
			if err := dec.Decode(&raw); err != nil {
				return
			}
			visit(tok.(string), raw)
		}
	}
	null := false
	members(line, func(key string, raw json.RawMessage) {
		for _, f := range []string{"t", "attrs", "truth", "pred"} {
			if strings.EqualFold(key, f) && string(raw) == "null" {
				null = true
			}
		}
		if strings.EqualFold(key, "attrs") {
			members(raw, func(name string, v json.RawMessage) {
				for _, a := range spec.Attributes {
					if a.Name == name && string(v) == "null" {
						null = true
					}
				}
			})
		}
	})
	return null
}

// errClass is the kind of a parse error: a JSON syntax or type fault
// (the "decoding event" prefix, whose wording is the decoder's own), or
// one of the monitor's messages, compared verbatim.
func errClass(err error) string {
	const prefix = "monitor: decoding event: "
	if strings.HasPrefix(err.Error(), prefix) {
		return prefix
	}
	return err.Error()
}

// FuzzParseEvent checks the one-pass decoder against the encoding/json
// parser it replaced (parseReference): the same accept/reject decision,
// the same event, and the same message wherever the monitor's own
// validation rejects. Accepted events must be in-schema, and ParseBatch
// must agree with Parse on a single line.
func FuzzParseEvent(f *testing.F) {
	for _, seed := range []string{
		`{"t": 1500, "attrs": {"color": "green", "size": "l", "age": 30}, "truth": false, "pred": true}`,
		`{"t": 0, "attrs": {"color": "red", "size": "s", "age": 0}, "truth": 1, "pred": 0}`,
		`{"t": 0, "attrs": {"color": "red", "size": "s", "age": -1e308}, "truth": 0, "pred": 0}`,
		`{"t": 9007199254740993, "attrs": {"color": "blue", "size": "l", "age": 1e999}, "truth": true, "pred": false}`,
		`{"attrs": {}}`,
		`{"t": -5}`,
		`not json at all`,
		`{"t": 0, "attrs": {"color": "red", "size": "s", "age": 1, "color": "blue"}, "truth": 1, "pred": 1}`,
		``,
		"{\"t\":0,\"attrs\":{\"color\":\"red\",\"size\":\"s\",\"age\":1},\"truth\":1,\"pred\":1}\n{\"t\":1}",
		// Escapes: in keys, in values, surrogate pairs and lone halves.
		`{"\u0074": 1, "attrs": {"c\u006flor": "r\u0065d", "size": "\u0073", "age": 2}, "truth": 1, "pred": 0}`,
		`{"t": 1, "attrs": {"color": "\ud83d\ude00", "size": "s", "age": 2}, "truth": 1, "pred": 0}`,
		`{"t": 1, "attrs": {"color": "\ud83dx", "size": "\udc00", "age": 2, "x\"\\\/\b\f\n\r\t": 0}, "truth": 1, "pred": 0}`,
		"{\"t\": 1, \"attrs\": {\"color\": \"red\xff\", \"size\": \"s\", \"age\": 2}, \"truth\": 1, \"pred\": 0}",
		// Case-folded, duplicate and merged keys.
		`{"T": 5, "ATTRS": {"color": "red", "size": "s", "age": 3}, "Truth": 1, "PRED": 0}`,
		"{\"t\": 5, \"attr\u017f\": {\"color\": \"red\", \"size\": \"s\", \"age\": 3}, \"truth\": 1, \"pred\": 0}",
		`{"t": 5, "t": 6, "attrs": {"color": "mauve", "color": "red"}, "attrs": {"size": "s", "age": 3}, "truth": "x", "truth": 0, "pred": 1}`,
		`{"t": 5, "attrs": {"color": "red", "size": "s", "age": 3}, "Color": "blue", "truth": 1, "pred": 0}`,
		// Nested unknown values, and a declared value that is a container.
		`{"t": 1, "x": [1, {"y": [[], {}, null, true, "z"]}], "attrs": {"color": "red", "size": "s", "age": 2, "extra": {"a": [1.5e3]}}, "truth": 1, "pred": 0}`,
		`{"t": 1, "attrs": {"color": ["red"], "size": "s", "age": {"v": 2}}, "truth": [1], "pred": 0}`,
		// t at the int64 edges, and not an integer.
		`{"t": 9223372036854775807, "attrs": {"color": "red", "size": "s", "age": 2}, "truth": 1, "pred": 0}`,
		`{"t": 9223372036854775808, "attrs": {"color": "red", "size": "s", "age": 2}, "truth": 1, "pred": 0}`,
		`{"t": -9223372036854775808, "attrs": {"color": "red", "size": "s", "age": 2}, "truth": 1, "pred": 0}`,
		`{"t": -0, "attrs": {"color": "red", "size": "s", "age": 2}, "truth": 1, "pred": 0}`,
		`{"t": 1.0, "attrs": {"color": "red", "size": "s", "age": 2}, "truth": 1, "pred": 0}`,
		`{"t": 1e3, "attrs": {"color": "red", "size": "s", "age": 2}, "truth": 1, "pred": 0}`,
		`{"t": "1", "attrs": {"color": "red", "size": "s", "age": 2}, "truth": 1, "pred": 0}`,
		// Outcome forms: -0, 1.0, 1e0, and near misses.
		`{"t": 1, "attrs": {"color": "red", "size": "s", "age": 2}, "truth": -0, "pred": 1.0}`,
		`{"t": 1, "attrs": {"color": "red", "size": "s", "age": 2}, "truth": 1e0, "pred": 0.0e5}`,
		`{"t": 1, "attrs": {"color": "red", "size": "s", "age": 2}, "truth": 1.0000000000000001, "pred": 1e999}`,
		`{"t": 1, "attrs": {"color": "red", "size": "s", "age": 2}, "truth": 2, "pred": 01}`,
		`{"t": 1, "attrs": {"color": "red", "size": "s", "age": 1e-400}, "truth": 1, "pred": 0}`,
		// Null fields.
		`{"t": 1, "attrs": {"color": "red", "size": "s", "age": 2}, "truth": null, "pred": 1}`,
		`{"t": 1, "attrs": {"color": "red", "size": "s", "age": null}, "truth": 0, "pred": 1}`,
		`{"t": null, "attrs": {"color": "red", "size": "s", "age": 2}, "truth": 0, "pred": 1}`,
		`{"t": 1, "attrs": null, "attrs": {"color": "red", "size": "s", "age": 2}, "truth": 0, "pred": 1}`,
		`{"t": 1, "attrs": {"color": "red", "size": "s", "age": 2, "extra": null}, "other": null, "truth": 0, "pred": 1}`,
		`null`,
		// Trailing bytes and whitespace.
		`{"t": 1, "attrs": {"color": "red", "size": "s", "age": 2}, "truth": 0, "pred": 1} junk`,
		`{"t": 1, "attrs": {"color": "red", "size": "s", "age": 2}, "truth": 0, "pred": 1}{}`,
		" \t{\"t\": 1, \"attrs\": {\"color\": \"red\", \"size\": \"s\", \"age\": 2}, \"truth\": 0, \"pred\": 1}\r\n ",
		"{\"t\": 1, \"attrs\": {\"color\": \"red\", \"size\": \"s\", \"age\": 2}, \"truth\": 0, \"pred\": 1}\x00",
		// Trailing commas and empty members.
		`{"t": 1, "attrs": {"color": "red", "size": "s", "age": 2,}, "truth": 0, "pred": 1}`,
		`{"t": 1, "attrs": {"color": "red", "size": "s", "age": 2}, "truth": 0, "pred": 1,}`,
		`{"t": 1, "x": [1,], "attrs": {"color": "red", "size": "s", "age": 2}, "truth": 0, "pred": 1}`,
		// The shortest valid line for this schema.
		`{"attrs":{"color":"red","size":"s","age":0},"truth":0,"pred":0}`,
		// Nesting at and past encoding/json's limit.
		`{"x":` + strings.Repeat("[", maxDepth-1) + strings.Repeat("]", maxDepth-1) + `}`,
		`{"x":` + strings.Repeat("[", maxDepth) + strings.Repeat("]", maxDepth) + `}`,
	} {
		f.Add([]byte(seed))
	}

	spec, err := validSpec().Validate()
	if err != nil {
		f.Fatal(err)
	}
	p := NewParser(spec)
	cards := make([]int, len(spec.Attributes))
	for i := range spec.Attributes {
		cards[i] = spec.Attributes[i].cardinality()
	}

	f.Fuzz(func(t *testing.T, line []byte) {
		ev, err := p.Parse(line)
		want, werr := parseReference(spec, line)
		if (err == nil) != (werr == nil) {
			t.Fatalf("Parse and the encoding/json reference disagree on %q:\n  Parse:     %+v, %v\n  reference: %+v, %v", line, ev, err, want, werr)
		}
		if err != nil {
			if errClass(err) != errClass(werr) {
				t.Fatalf("different rejections of %q:\n  Parse:     %v\n  reference: %v", line, err, werr)
			}
			return
		}
		if !reflect.DeepEqual(ev, want) {
			t.Fatalf("different events from %q: Parse %+v, reference %+v", line, ev, want)
		}
		if ev.T < 0 {
			t.Fatalf("accepted negative timestamp %d from %q", ev.T, line)
		}
		for i, v := range ev.Vals {
			if int(v) >= cards[i] {
				t.Fatalf("value %d out of cardinality %d for attribute %d (%q)", v, cards[i], i, line)
			}
		}
		if ev.Class > 3 {
			t.Fatalf("class %d outside the confusion matrix (%q)", ev.Class, line)
		}
		if n := len(bytes.TrimSpace(line)); n < p.minLine {
			t.Fatalf("accepted a %d-byte line, shorter than the %d-byte bound batches are sized from: %q", n, p.minLine, line)
		}
		// ParseBatch must agree with Parse on a single line. Interior
		// newlines are legal JSON whitespace to Parse but line breaks to
		// ParseBatch, so only newline-free lines round-trip.
		if bytes.IndexByte(line, '\n') < 0 {
			b := p.ParseBatch(append(line, '\n'))
			if len(b.Events) != 1 || b.Invalid != 0 || !reflect.DeepEqual(b.Events[0], ev) {
				t.Fatalf("ParseBatch disagrees with Parse on %q: %+v", line, b)
			}
		}
	})
}

// FuzzParseSpec throws arbitrary bytes at the monitor-spec decoder. It
// must never panic, and a spec it accepts must be a fixed point: it
// validates to itself, the parser and window build from it, and it
// reads back from its own JSON encoding (the form the WAL persists) as
// the same spec, compared by that encoding, since an empty list and an
// absent one encode alike.
func FuzzParseSpec(f *testing.F) {
	for _, s := range []Spec{validSpec(), driftSpec()} {
		raw, err := json.Marshal(s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	for _, seed := range []string{
		`{"name":"loan-model","attributes":[{"name":"region","values":["north","south","east","west"]},{"name":"age","cuts":[25,40,60]}],"metric":"FPR","window":{"bucket_ms":60000,"buckets":30,"tumbling":true},"detection":{"h":8,"min_samples":10}}`,
		`{"attributes":[{"name":"a","values":["x","y"],"cuts":[]}],"window":{"bucket_ms":1,"buckets":1}}`,
		`{"attributes":[{"name":"a","values":[],"cuts":[-0,1e-300]}],"window":{"bucket_ms":1,"buckets":4096},"metric":"FNR","min_support":1,"max_len":6,"top_k":1}`,
		`{"attributes":[{"name":"a","values":["x","x"]}],"window":{"bucket_ms":1,"buckets":1}}`,
		`{"attributes":[{"name":"a","cuts":[2,1]}],"window":{"bucket_ms":1,"buckets":1}}`,
		`{"attributes":[{"name":"é\ud800","values":["<&>","\u0000"]}],"window":{"bucket_ms":9223372036854775807,"buckets":2},"detection":{"lambda":1,"k":0,"warn_ratio":1,"resolve_ratio":1e-9,"firing_streak":1,"resolve_streak":1}}`,
		`{"ATTRIBUTES":[{"NAME":"a","VALUES":["x","y"]}],"WINDOW":{"BUCKET_MS":5,"BUCKETS":3}}`,
		`{"attributes":null,"window":null}`,
		`[]`,
		``,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		s, err := ParseSpec(raw)
		if err != nil {
			return
		}
		again, err := s.Validate()
		if err != nil || !reflect.DeepEqual(again, s) {
			t.Fatalf("accepted spec does not validate to itself (%v):\n  %+v\n  %+v", err, s, again)
		}
		NewParser(s)
		newWindow(s)
		enc, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("encoding an accepted spec: %v", err)
		}
		back, err := ParseSpec(enc)
		if err != nil {
			t.Fatalf("spec %s does not read back: %v", enc, err)
		}
		if reenc, err := json.Marshal(back); err != nil || !bytes.Equal(reenc, enc) {
			t.Fatalf("spec changed on a round trip (%v):\n  %s\n  %s", err, enc, reenc)
		}
	})
}
