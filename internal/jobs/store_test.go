package jobs

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	recs := []Record{
		{Type: RecSubmitted, Job: "a", Spec: &Spec{TruthCol: "truth", Support: 0.1}},
		{Type: RecRunning, Job: "a"},
		{Type: RecSnapshot, Job: "a", Snapshot: &Snapshot{Seq: 1, Done: 2, Total: 5}},
		{Type: RecDone, Job: "a", Result: &ResultSummary{Rows: 14, Patterns: 3}, CacheHit: true},
	}
	for _, r := range recs {
		if err := st.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if got := st.Appends(); got != int64(len(recs)) {
		t.Errorf("Appends() = %d, want %d", got, len(recs))
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := st2.Close(); err != nil {
			t.Error(err)
		}
	}()
	got := st2.Replay()
	if len(got) != len(recs) {
		t.Fatalf("replayed %d records, want %d", len(got), len(recs))
	}
	if st2.Repaired() != 0 {
		t.Errorf("clean log reported %d repaired bytes", st2.Repaired())
	}
	for i, r := range got {
		if r.Type != recs[i].Type || r.Job != recs[i].Job {
			t.Errorf("record %d = %s/%s, want %s/%s", i, r.Type, r.Job, recs[i].Type, recs[i].Job)
		}
		if r.V != storeVersion {
			t.Errorf("record %d version = %d, want %d", i, r.V, storeVersion)
		}
		if r.Time.IsZero() {
			t.Errorf("record %d has no timestamp", i)
		}
	}
	if got[0].Spec == nil || got[0].Spec.Support != 0.1 {
		t.Errorf("submitted spec did not round-trip: %+v", got[0].Spec)
	}
	if got[2].Snapshot == nil || got[2].Snapshot.Done != 2 {
		t.Errorf("snapshot did not round-trip: %+v", got[2].Snapshot)
	}
	if got[3].Result == nil || got[3].Result.Rows != 14 || !got[3].CacheHit {
		t.Errorf("done record did not round-trip: %+v", got[3])
	}
}

func TestStoreTornTailRepaired(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Append(Record{Type: RecSubmitted, Job: "a"}); err != nil {
		t.Fatal(err)
	}
	if err := st.Append(Record{Type: RecDone, Job: "a"}); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate a crash mid-append: a partial JSON line with no newline.
	path := filepath.Join(dir, WALName)
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"v":1,"type":"subm`); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := OpenStore(dir)
	if err != nil {
		t.Fatalf("torn tail must be repaired, got %v", err)
	}
	if got := len(st2.Replay()); got != 2 {
		t.Errorf("replayed %d records after repair, want 2", got)
	}
	if st2.Repaired() == 0 {
		t.Error("Repaired() = 0 after a torn tail")
	}
	// The repaired store must accept appends cleanly on the truncated file.
	if err := st2.Append(Record{Type: RecSubmitted, Job: "b"}); err != nil {
		t.Fatal(err)
	}
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}
	st3, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := st3.Close(); err != nil {
			t.Error(err)
		}
	}()
	if got := len(st3.Replay()); got != 3 {
		t.Errorf("replayed %d records after repair+append, want 3", got)
	}
}

// TestStoreUnterminatedFinalRecordIsTorn: a final record that parses
// but lacks its trailing newline is torn, not valid — the newline is
// written in the same Write call as the record and the ack-gating fsync
// comes after it, so such a record was never acknowledged. Accepting it
// would position the next append mid-line, gluing two records onto one
// line that a later open must reject as interior corruption.
func TestStoreUnterminatedFinalRecordIsTorn(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Append(Record{Type: RecSubmitted, Job: "a"}); err != nil {
		t.Fatal(err)
	}
	if err := st.Append(Record{Type: RecDone, Job: "a"}); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// A complete, parseable record with its trailing newline sheared off
	// — the crash landing exactly one byte short.
	path := filepath.Join(dir, WALName)
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	torn := `{"v":2,"type":"submitted","job":"b","time":"2026-01-01T00:00:00Z"}`
	if _, err := f.WriteString(torn); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := OpenStore(dir)
	if err != nil {
		t.Fatalf("unterminated final record must be repaired, got %v", err)
	}
	if got := len(st2.Replay()); got != 2 {
		t.Errorf("replayed %d records, want 2 — the unacked tail must not replay", got)
	}
	if got := st2.Repaired(); got != int64(len(torn)) {
		t.Errorf("Repaired() = %d, want %d", got, len(torn))
	}
	// The next append must land on a fresh line, not glued to the tail.
	if err := st2.Append(Record{Type: RecSubmitted, Job: "c"}); err != nil {
		t.Fatal(err)
	}
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}
	st3, err := OpenStore(dir)
	if err != nil {
		t.Fatalf("reopen after repair+append failed: %v", err)
	}
	defer func() {
		if err := st3.Close(); err != nil {
			t.Error(err)
		}
	}()
	got := st3.Replay()
	if len(got) != 3 || got[2].Job != "c" {
		t.Errorf("replay after repair+append = %d records (last job %q), want 3 ending in c",
			len(got), got[len(got)-1].Job)
	}
}

func TestStoreInteriorCorruptionFailsOpen(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, WALName)
	log := `{"v":1,"type":"submitted","job":"a","time":"2026-01-01T00:00:00Z"}
not json at all
{"v":1,"type":"done","job":"a","time":"2026-01-01T00:00:01Z"}
`
	if err := os.WriteFile(path, []byte(log), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := OpenStore(dir)
	if err == nil || !strings.Contains(err.Error(), "corrupt record at line 2") {
		t.Fatalf("OpenStore err = %v, want interior-corruption error at line 2", err)
	}
}

func TestStoreAppendAfterCloseFails(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil { // idempotent
		t.Errorf("second Close err = %v", err)
	}
	if err := st.Append(Record{Type: RecSubmitted, Job: "x"}); err == nil {
		t.Error("Append after Close succeeded")
	}
}

func TestStoreEmptyAndBlankLines(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, WALName)
	log := "\n{\"v\":1,\"type\":\"submitted\",\"job\":\"a\",\"time\":\"2026-01-01T00:00:00Z\"}\n\n"
	if err := os.WriteFile(path, []byte(log), 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := st.Close(); err != nil {
			t.Error(err)
		}
	}()
	if got := len(st.Replay()); got != 1 {
		t.Errorf("replayed %d records, want 1 (blank lines skipped)", got)
	}
	if st.Repaired() != 0 {
		t.Errorf("blank lines counted as torn bytes: %d", st.Repaired())
	}
}

func TestRecordErrorRoundTripsInterrupted(t *testing.T) {
	if err := recordError(ErrInterrupted.Error()); !errors.Is(err, ErrInterrupted) {
		t.Errorf("recordError did not rehydrate ErrInterrupted: %v", err)
	}
	if err := recordError("boom"); err == nil || err.Error() != "boom" {
		t.Errorf("recordError(boom) = %v", err)
	}
	if err := recordError(""); err == nil {
		t.Error("recordError(\"\") = nil, want a placeholder error")
	}
}

// TestStoreCRLFLine: a record line ending in CR LF counts both bytes
// toward the valid prefix, so open repairs nothing and the next append
// starts on a line of its own.
func TestStoreCRLFLine(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, WALName)
	log := "{\"v\":2,\"type\":\"submitted\",\"job\":\"a\",\"time\":\"2026-01-01T00:00:00Z\"}\r\n" +
		"{\"v\":2,\"type\":\"running\",\"job\":\"a\",\"time\":\"2026-01-01T00:00:01Z\"}\n"
	if err := os.WriteFile(path, []byte(log), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, valid, err := scanLog([]byte(log)); err != nil || valid != int64(len(log)) {
		t.Fatalf("scanLog valid prefix %d (err %v), want all %d bytes", valid, err, len(log))
	}
	st := openTestStore(t, dir)
	if got := st.Repaired(); got != 0 {
		t.Errorf("Repaired() = %d on a whole log", got)
	}
	if err := st.Append(Record{Type: RecDone, Job: "a"}); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2 := openTestStore(t, dir)
	defer func() {
		if err := st2.Close(); err != nil {
			t.Error(err)
		}
	}()
	if got := st2.Replay(); len(got) != 3 || got[2].Type != RecDone {
		t.Fatalf("replayed %d records after append, want 3 ending in done", len(got))
	}
}

// engineLog returns the log a real engine writes for one analysis job,
// with snapshot records rate-limited to keep it short.
func engineLog(t *testing.T) []byte {
	t.Helper()
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	e, h := testEngine(t, Config{Workers: 1, Store: st, SnapshotEvery: time.Hour})
	job, err := e.Submit(sampleSpec(h))
	if err != nil {
		t.Fatal(err)
	}
	if s := waitTerminal(t, job); s.State != StateDone {
		t.Fatalf("job ended %s (%s)", s.State, s.Err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := e.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, WALName))
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// scanLogCase is one named log for the scan tests.
type scanLogCase struct {
	name string
	raw  []byte
}

// scanLogCases derives from a whole log of at least two lines the
// shapes a crash or an editor leaves: a torn record after it, its last
// newline cut, a bad line after its first, and its first line ended in
// CR LF.
func scanLogCases(raw []byte) []scanLogCase {
	lines := bytes.SplitAfter(raw, []byte("\n"))
	first, rest := lines[0], bytes.Join(lines[1:], nil)
	return []scanLogCase{
		{"whole", raw},
		{"torn tail", append(bytes.Clone(raw), `{"v":2,"type":"subm`...)},
		{"unterminated", raw[:len(raw)-1]},
		{"bad middle", bytes.Join([][]byte{first, []byte("not json at all\n"), rest}, nil)},
		{"crlf", bytes.Join([][]byte{first[:len(first)-1], []byte("\r\n"), rest}, nil)},
	}
}

// checkScanLog checks scanLog's contract on raw: when the scan
// succeeds, its valid prefix is empty or ends in a newline, rescanning
// that prefix gives the same records and length, and the bytes it drops
// are at most the last line.
func checkScanLog(t *testing.T, raw []byte) {
	t.Helper()
	records, valid, err := scanLog(raw)
	if err != nil {
		return
	}
	if valid < 0 || valid > int64(len(raw)) || (valid > 0 && raw[valid-1] != '\n') {
		t.Fatalf("valid prefix %d of %d bytes does not end a line", valid, len(raw))
	}
	again, validAgain, err := scanLog(raw[:valid])
	if err != nil || validAgain != valid {
		t.Fatalf("rescanning the valid prefix: %d bytes, err %v; want %d", validAgain, err, valid)
	}
	want, err := json.Marshal(records)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := json.Marshal(again); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("rescanned records differ:\n%s\nwant\n%s", got, want)
	}
	if tail := raw[valid:]; len(tail) > 0 {
		if nl := bytes.IndexByte(tail, '\n'); nl >= 0 && nl != len(tail)-1 {
			t.Fatalf("dropped %d bytes spanning more than the last line", len(tail))
		}
	}
}

// TestScanLogEngineLog scans the log a real engine wrote, and its
// damaged variants: the whole log and its CR LF copy are valid to the
// end, a torn or unterminated last record is dropped, a bad middle line
// is corruption, and each scan keeps FuzzScanLog's contract.
func TestScanLogEngineLog(t *testing.T) {
	raw := engineLog(t)
	lines := int64(bytes.Count(raw, []byte("\n")))
	last := int64(len(raw) - bytes.LastIndexByte(raw[:len(raw)-1], '\n') - 1)
	want := map[string]int64{"whole": int64(len(raw)), "crlf": int64(len(raw)) + 1,
		"torn tail": int64(len(raw)), "unterminated": int64(len(raw)) - last}
	for _, tc := range scanLogCases(raw) {
		name := tc.name
		t.Run(name, func(t *testing.T) {
			checkScanLog(t, tc.raw)
			records, valid, err := scanLog(tc.raw)
			switch {
			case name == "bad middle":
				if err == nil {
					t.Fatal("a bad middle line scanned clean")
				}
			case err != nil || valid != want[name]:
				t.Fatalf("valid prefix %d (err %v), want %d", valid, err, want[name])
			case name != "unterminated" && int64(len(records)) != lines:
				t.Fatalf("%d records from %d lines", len(records), lines)
			}
		})
	}
}

// FuzzScanLog: on any bytes, scanLog never panics and keeps
// checkScanLog's contract. The seeds are a three-record v2 log, a v3 log
// of each kind's submitted and done records, and their damaged
// variants, short so the budget goes to new inputs; TestScanLogEngineLog
// runs the same checks on a real engine's log.
func FuzzScanLog(f *testing.F) {
	v2 := []byte(`{"v":2,"type":"submitted","job":"a","time":"2026-01-01T00:00:00Z","spec":{"dataset":"d","support":0.1}}
{"v":2,"type":"running","job":"a","time":"2026-01-01T00:00:01Z"}
{"v":2,"type":"done","job":"a","time":"2026-01-01T00:00:02Z"}
`)
	v3 := []byte(`{"v":3,"type":"submitted","job":"a","time":"2026-01-01T00:00:00Z","spec":{"Dataset":"d","Support":0.1}}
{"v":3,"type":"done","job":"a","time":"2026-01-01T00:00:01Z","spec":{"Dataset":"d","Support":0.1},"result":{"rows":4}}
{"v":3,"type":"submitted","job":"b","time":"2026-01-01T00:00:02Z","explore":{"Dataset":"d","Metric":"ER","TopK":2}}
{"v":3,"type":"done","job":"b","time":"2026-01-01T00:00:03Z","explore":{"Dataset":"d","Metric":"ER","TopK":2},"explore_outcome":{"reason":"exhausted","top":[{"itemset":["a=1"],"divergence":0.5}]}}
{"v":3,"type":"submitted","job":"c","time":"2026-01-01T00:00:04Z","significance":{"Dataset":"d","Method":"wy","Alpha":0.05}}
{"v":3,"type":"done","job":"c","time":"2026-01-01T00:00:05Z","significance":{"Dataset":"d","Method":"wy","Alpha":0.05},"significance_outcome":{"method":"wy","alpha":0.05,"top":[{"itemset":["a=1"],"p":0.01,"adj_p":0.02}]}}
`)
	for _, log := range [][]byte{v2, v3} {
		for _, tc := range scanLogCases(log) {
			f.Add(tc.raw)
		}
	}
	f.Fuzz(checkScanLog)
}
