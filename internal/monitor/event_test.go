package monitor

import (
	"bytes"
	"runtime"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
)

func testParser(t *testing.T) *Parser {
	t.Helper()
	s, err := validSpec().Validate()
	if err != nil {
		t.Fatal(err)
	}
	return NewParser(s)
}

func TestParseEvent(t *testing.T) {
	p := testParser(t)
	ev, err := p.Parse([]byte(`{"t": 1500, "attrs": {"color": "green", "size": "l", "age": 30}, "truth": false, "pred": true}`))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if ev.T != 1500 {
		t.Errorf("T = %d", ev.T)
	}
	if ev.Vals[0] != 1 || ev.Vals[1] != 1 || ev.Vals[2] != 1 {
		t.Errorf("Vals = %v, want [1 1 1]", ev.Vals)
	}
	if ev.Class != core.ClassFP {
		t.Errorf("Class = %d, want FP", ev.Class)
	}
}

func TestParseEventOutcomeForms(t *testing.T) {
	p := testParser(t)
	for _, tc := range []struct {
		truth, pred string
		want        uint8
	}{
		{"true", "true", core.ClassTP},
		{"1", "0", core.ClassFN},
		{"0", "0", core.ClassTN},
		{"false", "1", core.ClassFP},
	} {
		line := `{"t": 0, "attrs": {"color": "red", "size": "s", "age": 1}, "truth": ` + tc.truth + `, "pred": ` + tc.pred + `}`
		ev, err := p.Parse([]byte(line))
		if err != nil {
			t.Fatalf("Parse(%s/%s): %v", tc.truth, tc.pred, err)
		}
		if ev.Class != tc.want {
			t.Errorf("truth=%s pred=%s: class %d, want %d", tc.truth, tc.pred, ev.Class, tc.want)
		}
	}
}

func TestParseEventRejects(t *testing.T) {
	p := testParser(t)
	cases := []struct {
		name, line, want string
	}{
		{"garbage", `nope`, "decoding"},
		{"negative time", `{"t": -1, "attrs": {"color":"red","size":"s","age":1}, "truth": 1, "pred": 0}`, "negative"},
		{"missing attr", `{"t": 0, "attrs": {"color":"red","size":"s"}, "truth": 1, "pred": 0}`, "missing 1"},
		{"unknown value", `{"t": 0, "attrs": {"color":"mauve","size":"s","age":1}, "truth": 1, "pred": 0}`, "no value"},
		{"string for numeric", `{"t": 0, "attrs": {"color":"red","size":"s","age":"old"}, "truth": 1, "pred": 0}`, "wants a number"},
		{"number for categorical", `{"t": 0, "attrs": {"color":3,"size":"s","age":1}, "truth": 1, "pred": 0}`, "wants a string"},
		{"non-finite age", `{"t": 0, "attrs": {"color":"red","size":"s","age":1e999}, "truth": 1, "pred": 0}`, ""},
		{"missing truth", `{"t": 0, "attrs": {"color":"red","size":"s","age":1}, "pred": 0}`, "truth"},
		{"outcome 2", `{"t": 0, "attrs": {"color":"red","size":"s","age":1}, "truth": 2, "pred": 0}`, "0/1"},
		{"outcome string", `{"t": 0, "attrs": {"color":"red","size":"s","age":1}, "truth": "yes", "pred": 0}`, "0/1"},
		// null is no value for a declared field: encoding/json read it
		// as false, 0 or "" (a null truth made a false positive).
		{"null truth", `{"t": 1, "attrs": {"color":"red","size":"s","age":1}, "truth": null, "pred": 1}`, `"truth" is null`},
		{"null pred", `{"t": 1, "attrs": {"color":"red","size":"s","age":1}, "truth": 1, "pred": null}`, `"pred" is null`},
		{"null numeric", `{"t": 1, "attrs": {"color":"red","size":"s","age":null}, "truth": 1, "pred": 1}`, `"age" is null`},
		{"null categorical", `{"t": 1, "attrs": {"color":null,"size":"s","age":1}, "truth": 1, "pred": 1}`, `"color" is null`},
		{"null time", `{"t": null, "attrs": {"color":"red","size":"s","age":1}, "truth": 1, "pred": 1}`, `"t" is null`},
		{"null attrs", `{"t": 1, "attrs": null, "attrs": {"color":"red","size":"s","age":1}, "truth": 1, "pred": 1}`, `"attrs" is null`},
		{"overridden null", `{"t": 1, "attrs": {"color":"red","size":"s","age":null,"age":1}, "truth": 1, "pred": 1}`, `"age" is null`},
		// Bytes after the object were silently dropped.
		{"trailing junk", `{"t": 1, "attrs": {"color":"red","size":"s","age":1}, "truth": 1, "pred": 1} junk`, "after the event object"},
		{"two objects", `{"t": 1, "attrs": {"color":"red","size":"s","age":1}, "truth": 1, "pred": 1}{"t": 2}`, "after the event object"},
		// Of two bad attributes, the first in declared order is reported.
		{"two bad attributes", `{"t": 0, "attrs": {"age":"old","size":"xl","color":"red"}, "truth": 1, "pred": 0}`, `"size" has no value "xl"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := p.Parse([]byte(tc.line)); err == nil {
				t.Fatalf("accepted %s", tc.line)
			} else if tc.want != "" && !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %v, want substring %q", err, tc.want)
			}
		})
	}
}

func TestParseEventIgnoresUnknownAttrs(t *testing.T) {
	p := testParser(t)
	_, err := p.Parse([]byte(`{"t": 0, "attrs": {"color":"red","size":"s","age":1,"extra":"x"}, "truth": 1, "pred": 1}`))
	if err != nil {
		t.Fatalf("unknown attribute should be ignored, got %v", err)
	}
}

func TestParseBatch(t *testing.T) {
	p := testParser(t)
	body := []byte(`{"t": 0, "attrs": {"color":"red","size":"s","age":1}, "truth": 1, "pred": 1}

garbage line
{"t": 10, "attrs": {"color":"blue","size":"l","age":60}, "truth": 0, "pred": 0}
`)
	b := p.ParseBatch(body)
	if len(b.Events) != 2 || b.Invalid != 1 {
		t.Fatalf("got %d events, %d invalid; want 2, 1", len(b.Events), b.Invalid)
	}
	if b.FirstErr == nil {
		t.Fatal("no FirstErr sampled")
	}
	if b.Events[1].Vals[2] != 2 {
		t.Errorf("age 60 binned to %d, want 2", b.Events[1].Vals[2])
	}
}

func TestParseEventGrammar(t *testing.T) {
	p := testParser(t)
	for _, tc := range []struct {
		name, line string
		t          int64
		vals       []uint8
	}{
		{"case-folded keys", `{"T": 7, "ATTRS": {"color":"blue","size":"l","age":60}, "Truth": 1, "PRED": 0}`, 7, []uint8{2, 1, 2}},
		{"long s folds", "{\"t\": 7, \"attr\u017f\": {\"color\":\"blue\",\"size\":\"l\",\"age\":60}, \"truth\": 1, \"pred\": 0}", 7, []uint8{2, 1, 2}},
		{"escaped keys and values", `{"\u0074": 7, "attrs": {"c\u006flor":"gr\u0065en","size":"\u006c","age":0}, "truth": 1, "pred": 0}`, 7, []uint8{1, 1, 0}},
		{"last key wins", `{"t": 1, "t": 7, "attrs": {"color":"mauve","color":"red","size":"s","age":30}, "truth": "x", "truth": 1, "pred": 0}`, 7, []uint8{0, 0, 1}},
		{"attrs objects merge", `{"t": 7, "attrs": {"color":"red"}, "attrs": {"size":"l","age":30}, "truth": 1, "pred": 0}`, 7, []uint8{0, 1, 1}},
		{"nested unknowns", `{"x": [1, {"y": [[], {}, null]}], "t": 7, "attrs": {"z": {"a": [true]}, "color":"red","size":"s","age":-0.5e1}, "truth": 1, "pred": 0}`, 7, []uint8{0, 0, 0}},
		{"whitespace", " \t{ \"t\" :\n7 , \"attrs\" : { \"color\" : \"red\" , \"size\":\"s\",\"age\":1 } , \"truth\":1,\"pred\":0 }\r\n", 7, []uint8{0, 0, 0}},
		{"null line", `null`, -1, nil},
		{"fractional time", `{"t": 1.5, "attrs": {"color":"red","size":"s","age":1}, "truth": 1, "pred": 0}`, -1, nil},
		{"time past int64", `{"t": 9223372036854775808, "attrs": {"color":"red","size":"s","age":1}, "truth": 1, "pred": 0}`, -1, nil},
		{"trailing comma", `{"t": 7, "attrs": {"color":"red","size":"s","age":1,}, "truth": 1, "pred": 0}`, -1, nil},
		{"control character", "{\"t\": 7, \"attrs\": {\"color\":\"r\x01ed\",\"size\":\"s\",\"age\":1}, \"truth\": 1, \"pred\": 0}", -1, nil},
		{"hex number", `{"t": 7, "attrs": {"color":"red","size":"s","age":0x10}, "truth": 1, "pred": 0}`, -1, nil},
		{"too deep", `{"x": ` + strings.Repeat("[", maxDepth) + strings.Repeat("]", maxDepth) + `}`, -1, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ev, err := p.Parse([]byte(tc.line))
			if tc.t < 0 {
				if err == nil {
					t.Fatalf("accepted %q", tc.line)
				}
				return
			}
			if err != nil {
				t.Fatalf("Parse: %v", err)
			}
			if ev.T != tc.t || !bytes.Equal(ev.Vals, tc.vals) {
				t.Fatalf("got t=%d vals=%v, want t=%d vals=%v", ev.T, ev.Vals, tc.t, tc.vals)
			}
		})
	}
}

// driftBody is a 100-event Drift body for the driftSpec schema.
func driftBody(t testing.TB) []byte {
	t.Helper()
	s, err := datagen.Drift(1, datagen.DriftConfig{Events: 100, StepMs: 1})
	if err != nil {
		t.Fatal(err)
	}
	return s.Body(0, 100)
}

// TestParseBatchAllocations pins the batch's allocation count: the
// []Event and the code arena, nothing per event, whether values are
// strings or numbers.
func TestParseBatchAllocations(t *testing.T) {
	spec, err := driftSpec().Validate()
	if err != nil {
		t.Fatal(err)
	}
	drift := NewParser(spec)
	body := driftBody(t)
	var numeric []byte
	for i := 0; i < 100; i++ {
		numeric = append(numeric, `{"t": 12, "attrs": {"color":"blue","size":"l","age":-12.5e-1}, "truth": 1, "pred": 0.0}`+"\n"...)
	}
	for _, tc := range []struct {
		name string
		p    *Parser
		body []byte
	}{{"drift", drift, body}, {"numeric", testParser(t), numeric}} {
		var b Batch
		allocs := testing.AllocsPerRun(20, func() { b = tc.p.ParseBatch(tc.body) })
		if len(b.Events) != 100 || b.Invalid != 0 {
			t.Fatalf("%s: %d events, %d invalid (%v)", tc.name, len(b.Events), b.Invalid, b.FirstErr)
		}
		if allocs != 2 {
			t.Errorf("%s: %.0f allocations per batch, want 2", tc.name, allocs)
		}
	}
}

// TestParseBatchRejectsWithoutAllocating: a batch formats only its
// first rejection, so its allocations do not grow with the number of
// rejected lines, whatever their fault, and FirstErr is the text Parse
// gives for the first of them. The first line is cut short, whose
// error is a constant: fmt's printer pool drops items at random under
// the race detector, so a formatted first error would make the count
// vary from run to run.
func TestParseBatchRejectsWithoutAllocating(t *testing.T) {
	p := testParser(t)
	rejected := []string{
		`{"t": 1, "attrs": {"color":"red`,
		`junk`,
		`{"t": -1, "attrs": {"color":"red","size":"s","age":1}, "truth": 1, "pred": 0}`,
		`{"t": 0, "attrs": {"color":"red","size":"s"}, "truth": 1, "pred": 0}`,
		`{"t": 0, "attrs": {"color":"mauve","size":"s","age":1}, "truth": 1, "pred": 0}`,
		`{"t": 0, "attrs": {"color":"red","size":"s","age":"old"}, "truth": 1, "pred": 0}`,
		`{"t": 0, "attrs": {"color":3,"size":"s","age":1}, "truth": 1, "pred": 0}`,
		`{"t": 0, "attrs": {"color":"red","size":"s","age":1}, "truth": 2, "pred": 0}`,
		`{"t": 0, "attrs": {"color":"red","size":"s","age":1}, "pred": 0}`,
		`{"t": 1, "attrs": {"color":"red","size":"s","age":1}, "truth": null, "pred": 1}`,
		`{"t": 1, "attrs": {"color":"red","size":"s","age":1}, "truth": 1, "pred": 1} junk`,
		`{"t": 1.5, "attrs": {"color":"red","size":"s","age":1}, "truth": 1, "pred": 1}`,
		`{"t": 1, "attrs": [], "truth": 1, "pred": 1}`,
		`{"t": 1, "attrs": {"color":"r\qd","size":"s","age":1}, "truth": 1, "pred": 1}`,
	}
	_, want := p.Parse([]byte(rejected[0]))
	var allocs []float64
	for _, n := range []int{1000, 100000} {
		var body []byte
		for i := 0; i < n; i++ {
			body = append(body, rejected[i%len(rejected)]+"\n"...)
		}
		var b Batch
		allocs = append(allocs, testing.AllocsPerRun(3, func() { b = p.ParseBatch(body) }))
		if len(b.Events) != 0 || b.Invalid != n || b.FirstErr == nil || b.FirstErr.Error() != want.Error() {
			t.Fatalf("%d lines: %d events, %d invalid, first error %v; want 0, %d, %v", n, len(b.Events), b.Invalid, b.FirstErr, n, want)
		}
	}
	if allocs[0] != allocs[1] {
		t.Errorf("%.0f allocations for 1,000 rejected lines, %.0f for 100,000", allocs[0], allocs[1])
	}
}

// TestParseBatchArena checks that each event's Vals, a window of the
// batch's one code arena, is capacity-bounded, so an append to it
// cannot overwrite the next event's codes.
func TestParseBatchArena(t *testing.T) {
	spec, err := driftSpec().Validate()
	if err != nil {
		t.Fatal(err)
	}
	b := NewParser(spec).ParseBatch(driftBody(t))
	for i := range b.Events {
		if v := b.Events[i].Vals; len(v) != 3 || cap(v) != 3 {
			t.Fatalf("event %d: len %d cap %d, want 3 and 3", i, len(v), cap(v))
		}
	}
	want := b.Events[1].Vals[0]
	_ = append(b.Events[0].Vals, 99)
	if b.Events[1].Vals[0] != want {
		t.Fatal("appending to an event's values overwrote the next event's")
	}
}

// TestParseBatchHoldsOnlyAccepted pins that what a batch keeps is
// proportional to the events it accepted, not to its lines: blank and
// short invalid lines reserve no room, and the room long invalid lines
// reserve is given back.
func TestParseBatchHoldsOnlyAccepted(t *testing.T) {
	p := testParser(t)
	valid := `{"t": 1, "attrs": {"color":"red","size":"s","age":1}, "truth": 1, "pred": 0}`
	long := strings.Repeat("x", p.minLine) + "\n"
	for _, tc := range []struct {
		name    string
		filler  string
		n       int
		invalid bool
	}{
		{"blank lines", "\n", 1 << 20, false},
		{"short invalid lines", "nope\n", 1 << 18, true},
		{"long invalid lines", long, 1 << 15, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			body := []byte(strings.Repeat(tc.filler, tc.n) + valid + "\n")
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			b := p.ParseBatch(body)
			runtime.GC()
			runtime.ReadMemStats(&after)
			wantInvalid := 0
			if tc.invalid {
				wantInvalid = tc.n
			}
			if len(b.Events) != 1 || b.Invalid != wantInvalid {
				t.Fatalf("%d events, %d invalid; want 1, %d", len(b.Events), b.Invalid, wantInvalid)
			}
			if cap(b.Events) != 1 || cap(b.Events[0].Vals) != 3 {
				t.Fatalf("cap(Events) %d, cap(Vals) %d; want 1 and 3", cap(b.Events), cap(b.Events[0].Vals))
			}
			if held := int64(after.HeapAlloc) - int64(before.HeapAlloc); held > 64<<10 {
				t.Fatalf("batch holds %d bytes after GC, want under 64 KB", held)
			}
			// Blank lines cost no allocation at all (a rejected line
			// costs its error).
			if !tc.invalid {
				if transient := after.TotalAlloc - before.TotalAlloc; transient > 64<<10 {
					t.Fatalf("batch allocated %d bytes, want under 64 KB", transient)
				}
			}
			runtime.KeepAlive(b)
		})
	}
}

// TestMinLineIsTight pins minLine to the shortest valid line: with
// one-byte names and numeric values, {"attrs":{"a":0,…},"truth":0,
// "pred":0} is accepted and exactly minLine long, so a batch of such
// lines is sized exactly. (FuzzParseEvent checks the other side: no
// accepted line is shorter.)
func TestMinLineIsTight(t *testing.T) {
	for n := 1; n <= 3; n++ {
		spec := validSpec()
		spec.Attributes = nil
		var attrs []string
		for i := 0; i < n; i++ {
			name := string(rune('a' + i))
			spec.Attributes = append(spec.Attributes, AttrSpec{Name: name, Cuts: []float64{1}})
			attrs = append(attrs, `"`+name+`":0`)
		}
		vs, err := spec.Validate()
		if err != nil {
			t.Fatal(err)
		}
		p := NewParser(vs)
		line := `{"attrs":{` + strings.Join(attrs, ",") + `},"truth":0,"pred":0}`
		if len(line) != p.minLine {
			t.Fatalf("%d attributes: shortest line is %d bytes, minLine %d", n, len(line), p.minLine)
		}
		body := []byte(strings.Repeat(line+"\n", 10))
		var b Batch
		if allocs := testing.AllocsPerRun(5, func() { b = p.ParseBatch(body) }); allocs != 2 || len(b.Events) != 10 {
			t.Fatalf("%d attributes: %d events in %.0f allocations, want 10 in 2 (%v)", n, len(b.Events), allocs, b.FirstErr)
		}
	}
}
