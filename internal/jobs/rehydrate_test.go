package jobs

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/registry"
)

// recoveredEngineWith builds a fresh engine over reg (the restarted
// process's registry — empty, or re-populated by client re-uploads) and
// recovers dir into it.
func recoveredEngineWith(t *testing.T, dir string, reg *registry.Registry) (*Engine, int) {
	t.Helper()
	e, err := New(Config{Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := e.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	n, err := e.Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	return e, n
}

// runDurableJob runs one sampleSpec job to completion against a durable
// engine rooted at dir and shuts the engine down cleanly, returning the
// job id and the live full result for later comparison.
func runDurableJob(t *testing.T, dir string) (string, *core.Result) {
	t.Helper()
	e1, h := testEngine(t, Config{Workers: 1, Store: openTestStore(t, dir)})
	job, err := e1.Submit(sampleSpec(h))
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, job); st.State != StateDone {
		t.Fatalf("job state = %s (err %q), want done", st.State, st.Err)
	}
	res := outcomeOf[*core.Result](t, job)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := e1.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	return job.ID(), res
}

func TestRehydrateFullResultAfterRestart(t *testing.T) {
	dir := t.TempDir()
	id, live := runDurableJob(t, dir)

	// The restarted process's registry holds the dataset again (the
	// client re-uploaded it, or an operator re-pinned it).
	reg := registry.New(0)
	if _, _, err := reg.Register([]byte(sampleCSV), dataset.CSVOptions{TrimSpace: true}); err != nil {
		t.Fatal(err)
	}
	e2, n := recoveredEngineWith(t, dir, reg)
	if n != 1 {
		t.Fatalf("Recover returned %d jobs, want 1", n)
	}
	job, ok := e2.Get(id)
	if !ok {
		t.Fatal("job vanished across the restart")
	}
	if !job.Recomputable() {
		t.Fatal("v2-recovered done job is not recomputable")
	}
	// The full result is not in memory until the first fetch asks for it.
	if _, err := job.Result(); !errors.Is(err, ErrNoResult) {
		t.Fatalf("Result() before rehydration err = %v, want ErrNoResult", err)
	}

	res, err := e2.Rehydrate(context.Background(), job)
	if err != nil {
		t.Fatalf("Rehydrate: %v", err)
	}
	if res.NumPatterns() != live.NumPatterns() || res.MinSup != live.MinSup {
		t.Errorf("rehydrated result has %d patterns at support %v, want %d at %v",
			res.NumPatterns(), res.MinSup, live.NumPatterns(), live.MinSup)
	}
	// The re-mine pins the result back onto the job: Result works again
	// and a second Rehydrate is free.
	if again, err := job.Result(); err != nil || again != res {
		t.Errorf("Result() after rehydration = (%p, %v), want the pinned result", again, err)
	}
	if again, err := e2.Rehydrate(context.Background(), job); err != nil || again != res {
		t.Errorf("second Rehydrate = (%p, %v), want the pinned result", again, err)
	}
	if s := e2.Stats(); s.Rehydrated != 1 {
		t.Errorf("stats.Rehydrated = %d, want 1 (pinned result served from memory)", s.Rehydrated)
	}
}

func TestRehydrateDatasetGoneFallsToSummary(t *testing.T) {
	dir := t.TempDir()
	id, _ := runDurableJob(t, dir)

	// Empty registry: the dataset did not survive the restart.
	e2, _ := recoveredEngineWith(t, dir, registry.New(0))
	job, _ := e2.Get(id)
	if _, err := e2.Rehydrate(context.Background(), job); !errors.Is(err, ErrDatasetGone) {
		t.Fatalf("Rehydrate err = %v, want ErrDatasetGone", err)
	}
	if job.Summary() == nil {
		t.Error("durable summary lost alongside the dataset")
	}
	if s := e2.Stats(); s.Rehydrated != 0 {
		t.Errorf("stats.Rehydrated = %d after a failed rehydration, want 0", s.Rehydrated)
	}
}

// TestRehydrateConcurrentSingleFlight issues many concurrent result
// fetches against a freshly recovered job: exactly one re-mine runs and
// every caller gets the same pinned result. Run under -race this audits
// the rehydration locking.
func TestRehydrateConcurrentSingleFlight(t *testing.T) {
	dir := t.TempDir()
	id, _ := runDurableJob(t, dir)

	reg := registry.New(0)
	if _, _, err := reg.Register([]byte(sampleCSV), dataset.CSVOptions{TrimSpace: true}); err != nil {
		t.Fatal(err)
	}
	e2, _ := recoveredEngineWith(t, dir, reg)
	job, _ := e2.Get(id)

	const fetchers = 8
	results := make([]*core.Result, fetchers)
	var wg sync.WaitGroup
	for i := 0; i < fetchers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := e2.Rehydrate(context.Background(), job)
			if err != nil {
				t.Errorf("fetcher %d: %v", i, err)
				return
			}
			results[i] = res
		}(i)
	}
	wg.Wait()
	for i := 1; i < fetchers; i++ {
		if results[i] != results[0] {
			t.Fatalf("fetcher %d got a different result object", i)
		}
	}
	if s := e2.Stats(); s.Rehydrated != 1 {
		t.Errorf("stats.Rehydrated = %d, want exactly 1 re-mine", s.Rehydrated)
	}
}

func TestRehydrateNonRecoveredJobIsFree(t *testing.T) {
	e, h := testEngine(t, Config{Workers: 1})
	job, err := e.Submit(sampleSpec(h))
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, job)
	live, err := job.Result()
	if err != nil {
		t.Fatal(err)
	}
	// Rehydrate on a job whose result is still in memory is a no-op.
	res, err := e.Rehydrate(context.Background(), job)
	if err != nil || res != live {
		t.Errorf("Rehydrate of a live job = (%p, %v), want the in-memory result", res, err)
	}
	if s := e.Stats(); s.Rehydrated != 0 {
		t.Errorf("stats.Rehydrated = %d for a live job, want 0", s.Rehydrated)
	}
}
