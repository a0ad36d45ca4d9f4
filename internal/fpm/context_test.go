package fpm

import (
	"context"
	"errors"
	"testing"
)

// TestMineContextPreCanceled: a context canceled before the mine starts
// aborts every miner with an error wrapping ctx.Err().
func TestMineContextPreCanceled(t *testing.T) {
	db := randomTxDB(t, 7, 120, 4, 3, 2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, m := range []Miner{FPGrowth{}, Parallel{Workers: 2}, Apriori{}, BruteForce{}} {
		if _, err := m.Mine(ctx, db, 1); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", m.Name(), err)
		}
	}
}

// TestParallelCancelDuringMine cancels from the Progress callback — i.e.
// deterministically mid-mine, after the first subproblem completes — and
// asserts the mine reports cancellation rather than a partial result.
func TestParallelCancelDuringMine(t *testing.T) {
	db := randomTxDB(t, 13, 200, 5, 3, 2)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	p := Parallel{Workers: 1, Progress: func(done, total int) {
		if done == 1 {
			cancel()
		}
	}}
	if _, err := p.Mine(ctx, db, 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestParallelProgressReachesTotal: an uncanceled mine reports progress
// monotonically up to done == total.
func TestParallelProgressReachesTotal(t *testing.T) {
	db := randomTxDB(t, 17, 150, 4, 3, 2)
	var last, total int
	p := Parallel{Workers: 1, Progress: func(d, tot int) {
		if d != last+1 {
			t.Errorf("progress jumped from %d to %d", last, d)
		}
		last, total = d, tot
	}}
	if _, err := p.Mine(context.Background(), db, 2); err != nil {
		t.Fatal(err)
	}
	if total == 0 || last != total {
		t.Errorf("final progress %d/%d, want done == total > 0", last, total)
	}
}
