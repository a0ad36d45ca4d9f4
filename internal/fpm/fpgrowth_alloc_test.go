package fpm

import (
	"context"
	"testing"
)

// TestMineSteadyStateAllocFree locks in the zero-allocation contract the
// hotalloc analyzer enforces statically: once a mineState is warm (node
// arena, frames, and pattern arena grown to their high-water marks), a
// full mine — root tree build plus the whole conditional-tree recursion
// and pattern emission — performs zero heap allocations.
func TestMineSteadyStateAllocFree(t *testing.T) {
	db := smallTxDB(t)
	s := newMineState(db.Catalog.NumItems(), db.Catalog.NumAttrs())
	ctx := context.Background()
	runOnce := func() {
		root := s.buildRoot(db, 1)
		if err := s.mineAll(ctx, root, 1, 1); err != nil {
			t.Fatal(err)
		}
	}

	// Warm runs: grow every pool to its high-water mark and pin the
	// expected output size.
	runOnce()
	want := len(s.out)
	if want == 0 {
		t.Fatal("warm-up mine produced no patterns; fixture db is unusable")
	}
	runOnce()
	if len(s.out) != want {
		t.Fatalf("re-mine produced %d patterns, want %d", len(s.out), want)
	}

	if allocs := testing.AllocsPerRun(10, runOnce); allocs != 0 {
		t.Errorf("steady-state mine allocates %v allocs/run, want 0", allocs)
	}
}
