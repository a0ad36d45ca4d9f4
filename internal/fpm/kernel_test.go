package fpm

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/dataset"
)

// TestKernelSteadyStateAllocFree extends the zero-allocation contract to
// the serving miner's batch path: a warm kernel running the worker loop
// over every top-level entry (layout, extension lists and pattern
// collection) performs zero heap allocations.
func TestKernelSteadyStateAllocFree(t *testing.T) {
	db := smallTxDB(t)
	k := newKernel(db.Catalog)
	k.layout(db, 1, false)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	k.ctx, k.done = ctx, ctx.Done()
	r := &parallelRun{results: make([][]FrequentPattern, len(k.levels[0].items))}
	runOnce := func() {
		k.layout(db, 1, false)
		r.next.Store(0)
		r.work(k)
	}

	runOnce()
	want := len(k.out)
	if want == 0 {
		t.Fatal("warm-up mine produced no patterns; fixture db is unusable")
	}
	runOnce()
	if len(k.out) != want {
		t.Fatalf("re-mine produced %d patterns, want %d", len(k.out), want)
	}

	if allocs := testing.AllocsPerRun(10, runOnce); allocs != 0 {
		t.Errorf("steady-state mine allocates %v allocs/run, want 0", allocs)
	}
}

// fuzzTxDB decodes fuzz bytes into a small transaction database. The
// header is the attribute count (1–5), the class count K (1–8), one
// cardinality (1–4) per attribute and a threshold byte; every later
// group of attrs+1 bytes is one row's values and class, up to 200 rows,
// so a class can cross a word boundary and some classes stay empty.
func fuzzTxDB(data []byte) (*TxDB, int64, bool) {
	if len(data) < 3 {
		return nil, 0, false
	}
	attrs, k := 1+int(data[0])%5, 1+int(data[1])%MaxClasses
	if len(data) < 3+attrs {
		return nil, 0, false
	}
	d := &dataset.Dataset{}
	for a := 0; a < attrs; a++ {
		attr := dataset.Attribute{Name: fmt.Sprintf("a%d", a)}
		for v := 0; v < 1+int(data[2+a])%4; v++ {
			attr.Values = append(attr.Values, fmt.Sprintf("v%d", v))
		}
		d.Attrs = append(d.Attrs, attr)
	}
	minRaw := int(data[2+attrs])
	var classes []uint8
	for rest := data[3+attrs:]; len(rest) > attrs && len(d.Rows) < 200; rest = rest[attrs+1:] {
		row := make([]int32, attrs)
		for a := range row {
			row[a] = int32(int(rest[a]) % d.Attrs[a].Cardinality())
		}
		d.Rows = append(d.Rows, row)
		classes = append(classes, rest[attrs]%uint8(k))
	}
	if len(d.Rows) == 0 {
		return nil, 0, false
	}
	db, err := NewTxDB(d, classes, k)
	if err != nil {
		return nil, 0, false
	}
	return db, 1 + int64(minRaw%len(d.Rows)), true
}

// fuzzSeed encodes a database whose class c has sizes[c] rows, with
// values cycling through each attribute's domain.
func fuzzSeed(attrs, k int, minRaw byte, sizes ...int) []byte {
	b := []byte{byte(attrs - 1), byte(k - 1)}
	for a := 0; a < attrs; a++ {
		b = append(b, byte(a+1))
	}
	b = append(b, minRaw)
	r := 0
	for c, n := range sizes {
		for i := 0; i < n; i++ {
			for a := 0; a < attrs; a++ {
				b = append(b, byte(r*(a+1)+r/3))
			}
			b = append(b, byte(c))
			r++
		}
	}
	return b
}

// FuzzMinersAgree: on any small database, the bitset kernel's batch mine
// at 1 and 3 workers and its unbudgeted stream give exactly BruteForce's
// itemset→tally map.
func FuzzMinersAgree(f *testing.F) {
	f.Add(fuzzSeed(3, 3, 4, 63, 64, 65))
	f.Add(fuzzSeed(4, 5, 9, 64, 0, 63, 0, 65))
	f.Add(fuzzSeed(5, 8, 0, 0, 65, 0, 0, 64, 0, 0, 63))
	f.Add(fuzzSeed(2, 1, 1, 10))
	f.Fuzz(func(t *testing.T, data []byte) {
		db, minCount, ok := fuzzTxDB(data)
		if !ok {
			return
		}
		ctx := context.Background()
		ref, err := BruteForce{}.Mine(ctx, db, minCount)
		if err != nil {
			t.Fatal(err)
		}
		want := patternsByKey(ref)
		for _, workers := range []int{1, 3} {
			got, err := Parallel{Workers: workers}.Mine(ctx, db, minCount)
			if err != nil {
				t.Fatal(err)
			}
			diffPatternMaps(t, want, patternsByKey(got), "brute", fmt.Sprintf("bitset/%d", workers), float64(minCount))
		}
		var streamed []FrequentPattern
		if _, err := MineVisit(db, minCount, AnytimeBudget{}, func(p FrequentPattern) error {
			streamed = append(streamed, FrequentPattern{Items: p.Items.Clone(), Tally: p.Tally})
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		diffPatternMaps(t, want, patternsByKey(streamed), "brute", "stream", float64(minCount))
	})
}
