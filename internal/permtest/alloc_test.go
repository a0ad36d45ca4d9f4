package permtest

import (
	"testing"

	"repro/internal/fpm"
)

// TestPermutationPassAllocs pins the warm-loop allocation contract: a
// permutation pass — shuffle (sampled) or Lehmer decode (exhaustive),
// the split of the permuted labels, plus the full statistic sweep —
// performs zero heap allocations, over bitset covers and over row-list
// covers alike. All buffers are sized once in newPermWorker.
func TestPermutationPassAllocs(t *testing.T) {
	dense := nullDB(t, 8, 100, 4, 2)
	sparse := sparseDB(t, 2000)
	small := nullDB(t, 9, 8, 3, 2)
	cases := []struct {
		name string
		e    *Engine
		fact []uint64
	}{
		{"sampled, bitset covers", newEngine(t, dense, mine(t, dense, 5)), nil},
		{"sampled, both forms", newEngine(t, sparse, mine(t, sparse, fpm.MinCount(2000, sparseSupport))), nil},
		{"exhaustive", newEngine(t, small, mine(t, small, 2)), factorials(8)},
	}
	for _, c := range cases {
		w := newPermWorker(c.e, 99, c.fact)
		var b int
		if got := testing.AllocsPerRun(100, func() {
			w.pass(b)
			b++
		}); got != 0 {
			t.Errorf("%s: pass allocates %v per run, want 0", c.name, got)
		}
	}
}

// sparseSupport mines sparseDB tables mostly into row-list covers: at
// s = 0.005 over 6 attributes of cardinality 12 most patterns cover
// under 1% of the rows, while every single item's cover is a bitset.
const sparseSupport = 0.005

// sparseDB is the complete-null table whose covers are mostly row lists.
func sparseDB(t testing.TB, n int) *fpm.TxDB {
	t.Helper()
	return nullDB(t, 12, n, 6, 12)
}

// BenchmarkPermutationPass measures one full permutation over bitset
// covers: a seeded Fisher–Yates shuffle of the labels, their split into
// positive and negative row sets, and the reverse-rank sweep that folds
// every hypothesis's counts as two AND-and-popcount passes and updates
// the raw and max-T exceedance counts.
func BenchmarkPermutationPass(b *testing.B) {
	db := nullDB(b, 10, 2000, 5, 3)
	benchPass(b, newEngine(b, db, mine(b, db, 40)))
}

// BenchmarkPermutationPassSparse is the same pass over a table whose
// covers are mostly row lists (sparseDB at sparseSupport, 20,000 rows),
// folded one code byte per covered row — the form that keeps low-support
// hypotheses as cheap as a per-row label gather.
func BenchmarkPermutationPassSparse(b *testing.B) {
	const n = 20000
	db := sparseDB(b, n)
	benchPass(b, newEngine(b, db, mine(b, db, fpm.MinCount(n, sparseSupport))))
}

func benchPass(b *testing.B, e *Engine) {
	w := newPermWorker(e, 7, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.pass(i)
	}
	b.ReportMetric(float64(e.Hypotheses()), "hypotheses")
}

// BenchmarkWYAdjust measures the step-down adjustment fold alone:
// counts to monotone adjusted p-values for 10k hypotheses.
func BenchmarkWYAdjust(b *testing.B) {
	counts := make([]int64, 10000)
	for i := range counts {
		counts[i] = int64(i % 997)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wyAdjust(counts, 1, 1001)
	}
}
