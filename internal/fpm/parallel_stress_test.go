package fpm

import (
	"context"
	"fmt"
	"testing"
)

// TestParallelStressDeterminism is the primary target of the -race
// verification tier (scripts/verify.sh runs `go test -race ./...`): it
// hammers Parallel.Mine with many worker counts, a small minCount (a
// deep, itemset-heavy search), and repeated runs, asserting the output
// is byte-identical to the sequential FPGrowth miner every single time.
//
// This is the mechanical check behind the Thm. 5.1 ordering contract:
// the per-item subproblems are fanned out over goroutines, so any data
// race in the shared initial tree or any order-dependence in how results
// are gathered would show up here as a diff (or under -race as a report)
// long before it silently corrupted divergence rankings downstream.
func TestParallelStressDeterminism(t *testing.T) {
	shapes := []struct {
		seed        int64
		rows, attrs int
		card, k     int
		minCount    int64
	}{
		{seed: 1, rows: 120, attrs: 6, card: 3, k: 2, minCount: 2},
		{seed: 2, rows: 200, attrs: 5, card: 2, k: 3, minCount: 2},
		{seed: 3, rows: 80, attrs: 7, card: 2, k: 2, minCount: 1},
	}
	const repeats = 4
	for _, shape := range shapes {
		shape := shape
		t.Run(fmt.Sprintf("seed%d", shape.seed), func(t *testing.T) {
			t.Parallel()
			db := randomTxDB(t, shape.seed, shape.rows, shape.attrs, shape.card, shape.k)
			want, err := FPGrowth{}.Mine(context.Background(), db, shape.minCount)
			if err != nil {
				t.Fatal(err)
			}
			wantStr := fmt.Sprintf("%v", want)
			for _, workers := range []int{1, 2, 3, 4, 8, 16, 32} {
				for rep := 0; rep < repeats; rep++ {
					got, err := Parallel{Workers: workers}.Mine(context.Background(), db, shape.minCount)
					if err != nil {
						t.Fatalf("workers=%d rep=%d: %v", workers, rep, err)
					}
					if gotStr := fmt.Sprintf("%v", got); gotStr != wantStr {
						t.Fatalf("workers=%d rep=%d: output diverged from FPGrowth\n got: %.200s\nwant: %.200s",
							workers, rep, gotStr, wantStr)
					}
				}
			}
		})
	}
}
