package registry

import (
	"bytes"
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/datagen"
	"repro/internal/dataset"
)

// BenchmarkRegistryParallelGet measures Get throughput under concurrent
// load: every Get takes the registry's one lock (LRU refresh is a
// write), so this is the worst case for lock contention — goroutines
// that do nothing else. SetParallelism(8) keeps at least eight
// goroutines contending even on small CI machines. Wired into the
// verify.sh benchmark-smoke tier like every other benchmark.
func BenchmarkRegistryParallelGet(b *testing.B) {
	const entries = 64
	r := New(0)
	hashes := make([]Hash, entries)
	for i := range hashes {
		e, _, err := r.Register(uniqueCSV(i), dataset.CSVOptions{})
		if err != nil {
			b.Fatal(err)
		}
		hashes[i] = e.Hash
	}
	var next atomic.Int64
	b.SetParallelism(8)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		// Distinct starting offsets spread goroutines over the key space.
		i := int(next.Add(1)) * 7
		for pb.Next() {
			if _, ok := r.Get(hashes[i%entries]); !ok {
				b.Error("resident entry missed")
			}
			i++
		}
	})
}

// BenchmarkRegistryGetDiskFallthrough prices the rungs of the lookup
// ladder: a memory hit (LRU refresh under the registry lock), versus a
// disk fall-through (read the spill file, re-hash it for verification,
// re-parse the CSV, promote into memory). The gap is the budget
// question -spill-dir answers: how much slower is the second rung that
// replaces data loss. Wired into the verify.sh benchmark-smoke tier.
func BenchmarkRegistryGetDiskFallthrough(b *testing.B) {
	setup := func(b *testing.B) (*Registry, Hash) {
		sp, err := OpenSpill(b.TempDir(), 0, nil)
		if err != nil {
			b.Fatal(err)
		}
		r := New(0)
		r.AttachSpill(sp, dataset.CSVOptions{})
		e, _, err := r.Register(uniqueCSV(0), dataset.CSVOptions{})
		if err != nil {
			b.Fatal(err)
		}
		// Pre-spill so the fall-through arm has a file to load without
		// waiting for a budget eviction.
		if err := sp.store(e.Hash, dataset.Canonicalize(uniqueCSV(0))); err != nil {
			b.Fatal(err)
		}
		return r, e.Hash
	}
	b.Run("memory-hit", func(b *testing.B) {
		r, h := setup(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, ok := r.Get(h); !ok {
				b.Fatal("resident entry missed")
			}
		}
	})
	b.Run("disk-fallthrough", func(b *testing.B) {
		r, h := setup(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// Evict between iterations (uncounted bookkeeping is the
			// memory-tier delete; the measured work is the verified load).
			r.mem.Remove(h)
			if _, ok := r.Get(h); !ok {
				b.Fatal("spilled entry missed")
			}
		}
	})
}

// BenchmarkRegistryRegister prices registration's rungs: a fresh
// dataset (canonicalize, hash, decode, LRU insert) versus the dedup
// fast path (canonicalize, hash, LRU hit). The fresh arms cycle a fixed
// pool of distinct CSVs and evict each entry right after inserting it
// so the registry stays small at any b.N; the in-loop memory-tier
// delete is bookkeeping noise next to the measured decode+hash.
// "fresh" registers a two-row table, so it prices the fixed cost;
// "audit-random" and "audit-compas" register the audit-cold shapes —
// a 5,000×10 random table of cardinality 4 and a re-seeded COMPAS,
// whose "[1,3]" cells are quoted, both with truth and pred columns —
// so the decoder's per-cell cost shows. Each pool copy differs only in
// a fixed-width header suffix, so every call misses and allocates
// alike. Wired into the verify.sh benchmark-smoke tier and allocation
// gate and the scripts/bench.sh perf-trajectory snapshot.
func BenchmarkRegistryRegister(b *testing.B) {
	const pool = 512
	fresh := func(b *testing.B, csvs [][]byte) {
		r := New(0)
		b.SetBytes(int64(len(csvs[0])))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e, _, err := r.Register(csvs[i%len(csvs)], dataset.CSVOptions{TrimSpace: true})
			if err != nil {
				b.Fatal(err)
			}
			r.mem.Remove(e.Hash)
		}
	}
	b.Run("fresh", func(b *testing.B) {
		csvs := make([][]byte, pool)
		for i := range csvs {
			csvs[i] = uniqueCSV(i)
		}
		fresh(b, csvs)
	})
	b.Run("audit-random", func(b *testing.B) {
		g, err := datagen.Random(1, datagen.RandomConfig{Rows: 5000, Attrs: 10, MaxCard: 4})
		if err != nil {
			b.Fatal(err)
		}
		fresh(b, labelledCopies(b, g, 8))
	})
	b.Run("audit-compas", func(b *testing.B) {
		fresh(b, labelledCopies(b, datagen.COMPAS(7), 8))
	})
	b.Run("dedup", func(b *testing.B) {
		r := New(0)
		csv := uniqueCSV(0)
		if _, _, err := r.Register(csv, dataset.CSVOptions{}); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := r.Register(csv, dataset.CSVOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// labelledCopies writes n distinct CSV copies of g with its truth and
// pred columns appended, as an audit upload carries them. Copy k
// renames the first column with the fixed-width suffix _k, so the
// copies hash apart but decode with the same allocations.
func labelledCopies(b *testing.B, g *datagen.Generated, n int) [][]byte {
	b.Helper()
	d := g.Data.Clone()
	bit := []string{"0", "1"}
	d.Attrs = append(d.Attrs, dataset.Attribute{Name: "truth", Values: bit}, dataset.Attribute{Name: "pred", Values: bit})
	code := func(v bool) int32 {
		if v {
			return 1
		}
		return 0
	}
	for r := range d.Rows {
		d.Rows[r] = append(d.Rows[r], code(g.Truth[r]), code(g.Pred[r]))
	}
	name := d.Attrs[0].Name
	out := make([][]byte, n)
	for k := range out {
		d.Attrs[0].Name = fmt.Sprintf("%s_%02d", name, k)
		var buf bytes.Buffer
		if err := dataset.WriteCSV(&buf, d); err != nil {
			b.Fatal(err)
		}
		out[k] = buf.Bytes()
	}
	return out
}

// BenchmarkRegistryParallelMixed adds registration traffic (90% Get /
// 10% Register of an already-resident dataset) — the dedup fast path
// also takes the registry lock, so this is the contention profile of a
// server whose clients re-upload data they already pinned.
func BenchmarkRegistryParallelMixed(b *testing.B) {
	const entries = 64
	r := New(0)
	csvs := make([][]byte, entries)
	hashes := make([]Hash, entries)
	for i := range hashes {
		csvs[i] = uniqueCSV(i)
		e, _, err := r.Register(csvs[i], dataset.CSVOptions{})
		if err != nil {
			b.Fatal(err)
		}
		hashes[i] = e.Hash
	}
	var next atomic.Int64
	b.SetParallelism(8)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := int(next.Add(1)) * 7
		for pb.Next() {
			if i%10 == 0 {
				if _, _, err := r.Register(csvs[i%entries], dataset.CSVOptions{}); err != nil {
					b.Error(err)
				}
			} else {
				r.Get(hashes[i%entries])
			}
			i++
		}
	})
}
