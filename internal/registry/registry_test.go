package registry

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/dataset"
)

const csvA = "a,b\nx,1\ny,2\n"

func TestHashCanonicalization(t *testing.T) {
	want := HashBytes([]byte(csvA))
	variants := []string{
		"a,b\r\nx,1\r\ny,2\r\n", // CRLF
		"a,b\nx,1\ny,2",         // no trailing newline
		"a,b\rx,1\ry,2\r",       // bare CR
	}
	for _, v := range variants {
		if got := HashBytes([]byte(v)); got != want {
			t.Errorf("hash(%q) = %s, want %s", v, got, want)
		}
	}
	if HashBytes([]byte("a,b\nx,2\n")) == want {
		t.Error("different content hashed equal")
	}
}

func TestRegisterDedup(t *testing.T) {
	r := New(0)
	e1, existed, err := r.Register([]byte(csvA), dataset.CSVOptions{})
	if err != nil || existed {
		t.Fatalf("first register: entry=%v existed=%v err=%v", e1, existed, err)
	}
	e2, existed, err := r.Register([]byte("a,b\r\nx,1\r\ny,2"), dataset.CSVOptions{})
	if err != nil || !existed {
		t.Fatalf("second register: existed=%v err=%v", existed, err)
	}
	if e1 != e2 {
		t.Error("dedup returned a different entry")
	}
	s := r.Stats()
	if s.Entries != 1 || s.Hits != 1 || s.Misses != 1 {
		t.Errorf("stats = %+v, want 1 entry, 1 hit, 1 miss", s)
	}
}

func TestGetCountsAndLRU(t *testing.T) {
	r := New(0)
	e, _, err := r.Register([]byte(csvA), dataset.CSVOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := r.Get(e.Hash); !ok || got != e {
		t.Fatalf("Get(%s) = %v, %v", e.Hash, got, ok)
	}
	if _, ok := r.Get(Hash("deadbeef")); ok {
		t.Fatal("Get of unknown hash succeeded")
	}
	s := r.Stats()
	if s.Hits != 1 || s.Misses != 2 { // register miss + unknown-hash miss
		t.Errorf("hits=%d misses=%d, want 1 and 2", s.Hits, s.Misses)
	}
}

// uniqueCSV builds a parseable CSV with a distinguishable payload.
func uniqueCSV(i int) []byte {
	return []byte(fmt.Sprintf("a,b\nv%d,%s\n", i, strings.Repeat("x", 64)))
}

func TestEviction(t *testing.T) {
	// Each entry is ~a few hundred bytes; a 1 KiB budget holds only a few.
	r := New(1024)
	var hashes []Hash
	for i := 0; i < 10; i++ {
		e, _, err := r.Register(uniqueCSV(i), dataset.CSVOptions{})
		if err != nil {
			t.Fatal(err)
		}
		hashes = append(hashes, e.Hash)
	}
	s := r.Stats()
	if s.Evictions == 0 {
		t.Fatalf("no evictions under a 1 KiB budget: %+v", s)
	}
	if s.Bytes > 1024 && s.Entries > 1 {
		t.Errorf("size %d exceeds budget with %d entries", s.Bytes, s.Entries)
	}
	// The oldest entry must be gone, the newest present.
	if _, ok := r.Get(hashes[0]); ok {
		t.Error("LRU entry survived eviction")
	}
	if _, ok := r.Get(hashes[len(hashes)-1]); !ok {
		t.Error("most recent entry was evicted")
	}
}

func TestEvictionKeepsNewestEvenOverBudget(t *testing.T) {
	r := New(1) // absurdly small: every entry alone exceeds the budget
	e, _, err := r.Register([]byte(csvA), dataset.CSVOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := r.Get(e.Hash); !ok {
		t.Fatal("sole over-budget entry was evicted")
	}
	if _, _, err := r.Register(uniqueCSV(1), dataset.CSVOptions{}); err != nil {
		t.Fatal(err)
	}
	s := r.Stats()
	if s.Entries != 1 || s.Evictions != 1 {
		t.Errorf("stats = %+v, want exactly the newest entry retained", s)
	}
}

func TestRegisterParseError(t *testing.T) {
	r := New(0)
	if _, _, err := r.Register([]byte("a,b\nonly-one-field\n"), dataset.CSVOptions{}); err == nil {
		t.Fatal("malformed CSV registered without error")
	}
	if s := r.Stats(); s.Entries != 0 {
		t.Errorf("failed parse left %d entries", s.Entries)
	}
}

func TestConcurrentRegister(t *testing.T) {
	r := New(0)
	done := make(chan error, 8)
	for i := 0; i < 8; i++ {
		go func() {
			_, _, err := r.Register([]byte(csvA), dataset.CSVOptions{})
			done <- err
		}()
	}
	for i := 0; i < 8; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if s := r.Stats(); s.Entries != 1 {
		t.Errorf("concurrent identical registers left %d entries", s.Entries)
	}
}

// TestRegisterParsesWhatItHashes pins the content-address contract: an
// upload is decoded from the canonical bytes its address hashes, so a
// lone CR is a line break whichever form arrives first, and a raw
// upload, its canonical form and a copy promoted back from the spill
// tier are one dataset. An upload whose canonical form is malformed is
// rejected in every form, rather than stored under an address whose
// spill file could never be promoted.
func TestRegisterParsesWhatItHashes(t *testing.T) {
	opts := dataset.CSVOptions{TrimSpace: true}
	raw := []byte("a\nx\ry\nz\n")
	canon := dataset.Canonicalize(raw)

	fresh, _, err := New(0).Register(canon, opts)
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Data.NumRows() != 3 {
		t.Fatalf("canonical form decodes to %d rows, want 3", fresh.Data.NumRows())
	}

	r, _ := spilledRegistry(t, 1, 0, nil)
	first, _, err := r.Register(raw, opts)
	if err != nil {
		t.Fatal(err)
	}
	again, existed, err := r.Register(canon, opts)
	if err != nil || !existed || again != first {
		t.Fatalf("canonical re-upload: existed=%v same=%v err=%v", existed, again == first, err)
	}
	// A second dataset over the 1-byte budget spills the first; Get
	// promotes it from disk.
	if _, _, err := r.Register([]byte(csvA), opts); err != nil {
		t.Fatal(err)
	}
	promoted, ok := r.Get(first.Hash)
	if !ok || promoted == first {
		t.Fatalf("spilled dataset not promoted from disk (found=%v, still resident=%v)", ok, promoted == first)
	}
	for name, e := range map[string]*Entry{"raw upload": first, "promoted": promoted} {
		if !reflect.DeepEqual(e.Data, fresh.Data) {
			t.Errorf("%s decodes to %v, canonical form to %v", name, e.Data, fresh.Data)
		}
	}

	ragged := []byte("c,t,p\nx,1,0\ny\r,0,1\n")
	_, _, rawErr := New(0).Register(ragged, opts)
	_, _, canonErr := New(0).Register(dataset.Canonicalize(ragged), opts)
	if rawErr == nil || canonErr == nil || rawErr.Error() != canonErr.Error() {
		t.Errorf("ragged upload: raw err %v, canonical err %v; want the same rejection", rawErr, canonErr)
	}
}

// TestEntryBytesChargesRowHeaders pins the registry's size estimate: a
// registered table is charged, per row, its slice header and four bytes
// per code, plus its schema strings.
func TestEntryBytesChargesRowHeaders(t *testing.T) {
	r := New(0)
	var b strings.Builder
	b.WriteString("color,size,shape\n")
	for i := 0; i < 300; i++ {
		fmt.Fprintf(&b, "c%d,s%d,round\n", i%3, i%5)
	}
	e, _, err := r.Register([]byte(b.String()), dataset.CSVOptions{})
	if err != nil {
		t.Fatal(err)
	}
	schema := int64(0)
	for _, a := range e.Data.Attrs {
		schema += int64(len(a.Name)) + 16
		for _, v := range a.Values {
			schema += int64(len(v)) + 16
		}
	}
	if want := int64(300)*(24+4*3) + schema; e.Bytes != want {
		t.Errorf("entry charged %d bytes, want 300 rows × (24 + 4 × 3) + %d = %d", e.Bytes, schema, want)
	}
}
