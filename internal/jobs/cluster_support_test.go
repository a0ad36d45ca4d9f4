package jobs

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/registry"
)

func TestSubmitAdoptedIsIdempotent(t *testing.T) {
	e, h := testEngine(t, Config{Workers: 1})
	j1, err := e.SubmitAdopted("forwarded-1", sampleSpec(h))
	if err != nil {
		t.Fatal(err)
	}
	// The hedged duplicate arrives while (or after) the first runs.
	j2, err := e.SubmitAdopted("forwarded-1", sampleSpec(h))
	if err != nil {
		t.Fatal(err)
	}
	if j1 != j2 {
		t.Fatalf("duplicate adopted submit created a second job")
	}
	if st := waitTerminal(t, j1); st.State != StateDone {
		t.Fatalf("state = %s (err %q), want done", st.State, st.Err)
	}
	if got := e.Stats().Submitted; got != 1 {
		t.Fatalf("submitted = %d, want 1 (duplicate must not enqueue)", got)
	}
	if _, err := e.SubmitAdopted("", sampleSpec(h)); err == nil {
		t.Fatalf("empty adopted id accepted")
	}
}

func TestSubmitRejectsDuplicateID(t *testing.T) {
	e, h := testEngine(t, Config{Workers: 1})
	if _, err := e.SubmitAdopted("dup", sampleSpec(h)); err != nil {
		t.Fatal(err)
	}
	// The non-adopted path must refuse to silently merge distinct
	// submissions under one ID.
	if _, err := e.submit("dup", sampleSpec(h), false, true); err == nil {
		t.Fatalf("duplicate non-adopted id accepted")
	}
}

// TestAdoptDoneServesSummaryAndRehydrates: the done record a peer's
// engine logged and handed to its terminal hook, adopted by a second
// engine, serves the summary at once and re-mines the full result on
// demand.
func TestAdoptDoneServesSummaryAndRehydrates(t *testing.T) {
	var mu sync.Mutex
	var terminal []Record
	hook := func(_ *Job, rec Record) {
		mu.Lock()
		terminal = append(terminal, rec)
		mu.Unlock()
	}
	e, h := testEngine(t, Config{Workers: 1})
	e.SetOnTerminal(hook)
	// Mine once on the "dead peer" side to get a real summary.
	donor, err := e.Submit(sampleSpec(h))
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, donor)
	sum := donor.Summary()
	if sum == nil {
		t.Fatal("donor job has no summary")
	}
	mu.Lock()
	if len(terminal) != 1 || terminal[0].Type != RecDone || terminal[0].Result != sum || terminal[0].Spec == nil {
		t.Fatalf("terminal hook records = %+v, want one done record with summary and recipe", terminal)
	}
	done := terminal[0]
	mu.Unlock()

	// Adopt it on a second engine sharing the registry (the replica).
	e2, err := New(Config{Registry: e.reg})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = e2.Shutdown(ctx)
	}()
	if err := e2.Adopt(done); err != nil {
		t.Fatal(err)
	}
	job, ok := e2.Get(donor.ID())
	if !ok {
		t.Fatal("adopted job not installed")
	}
	st := job.Snapshot()
	if st.State != StateDone || !st.Recovered || st.Dataset != h {
		t.Fatalf("adopted job = %+v, want recovered done with its header", st)
	}
	if job.Summary() != sum {
		t.Fatalf("adopted job lost the summary")
	}
	// Full result re-mines on demand through the standard path.
	res, err := e2.Rehydrate(context.Background(), job)
	if err != nil {
		t.Fatalf("Rehydrate of adopted job: %v", err)
	}
	if res.NumPatterns() == 0 {
		t.Fatalf("adopted rehydrate mined nothing")
	}
	// Adoption is idempotent.
	if err := e2.Adopt(done); err != nil {
		t.Fatal(err)
	}
	if again, _ := e2.Get(donor.ID()); again != job {
		t.Fatalf("re-adoption replaced the existing job")
	}
	// Failed and canceled records install nothing; a submitted record
	// re-runs the job under its ID.
	if err := e2.Adopt(Record{Type: RecFailed, Job: "gone", Error: "boom"}); err != nil {
		t.Fatal(err)
	}
	if _, ok := e2.Get("gone"); ok {
		t.Error("a failed record was installed")
	}
	// A stale submitted record leaves the adopted done job alone.
	if err := e2.Adopt(donor.SubmittedRecord()); err != nil {
		t.Fatal(err)
	}
	if again, _ := e2.Get(donor.ID()); again != job || e2.Stats().Submitted != 0 {
		t.Fatalf("a stale submitted record re-ran an adopted done job")
	}
	spec := sampleSpec(h)
	if err := e2.Adopt(Record{Type: RecSubmitted, Job: "rerun", Spec: &spec}); err != nil {
		t.Fatal(err)
	}
	j, ok := e2.Get("rerun")
	if !ok {
		t.Fatal("adopted submitted record did not re-run the job")
	}
	if st := waitTerminal(t, j); st.State != StateDone {
		t.Fatalf("re-run job = %s (%s), want done", st.State, st.Err)
	}
}

func TestOnTerminalHookFires(t *testing.T) {
	var mu sync.Mutex
	var terminal []string
	hook := func(j *Job, rec Record) {
		mu.Lock()
		terminal = append(terminal, j.ID()+":"+j.Snapshot().State.String()+":"+rec.Type)
		mu.Unlock()
	}
	e, h := testEngine(t, Config{Workers: 1})
	e.SetOnTerminal(hook)
	job, err := e.Submit(sampleSpec(h))
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, job)
	mu.Lock()
	got := append([]string(nil), terminal...)
	mu.Unlock()
	if len(got) != 1 || got[0] != job.ID()+":done:done" {
		t.Fatalf("terminal hook calls = %v, want one done for %s", got, job.ID())
	}
}

func TestOnTerminalHookFiresForQueuedCancel(t *testing.T) {
	var mu sync.Mutex
	var terminal []string
	hook := func(j *Job, rec Record) {
		mu.Lock()
		terminal = append(terminal, j.Snapshot().State.String()+":"+rec.Type)
		mu.Unlock()
	}
	gate := make(chan struct{})
	block := func(ctx context.Context, _ *dataset.Dataset, _ Spec, _ *Tracker) (*core.Result, error) {
		<-gate
		return nil, ctx.Err()
	}
	e, h := testEngine(t, Config{Workers: 1, Analyze: block})
	e.SetOnTerminal(hook)
	// First job occupies the lone worker; the second stays queued.
	blocker, err := e.Submit(sampleSpec(h))
	if err != nil {
		t.Fatal(err)
	}
	spec2 := sampleSpec(h)
	spec2.Support = 0.1 // distinct cache key
	queued, err := e.Submit(spec2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Cancel(queued.ID()); err != nil {
		t.Fatal(err)
	}
	close(gate)
	waitTerminal(t, blocker)
	waitTerminal(t, queued)
	mu.Lock()
	sawCanceled := false
	for _, s := range terminal {
		if s == "canceled:canceled" {
			sawCanceled = true
		}
	}
	mu.Unlock()
	if !sawCanceled {
		t.Fatalf("terminal hook never saw the queued cancel: %v", terminal)
	}
}

// TestCancelAbortsMidRehydrate is the regression test for DELETE on a
// recovered done job while its rehydration re-mine is in flight: the
// re-mine must be canceled, and neither the job nor the result cache
// may end up holding the full result.
func TestCancelAbortsMidRehydrate(t *testing.T) {
	dir := t.TempDir()
	id, _ := runDurableJob(t, dir)

	// Restarted process: dataset resident again, but analyses block on a
	// gate so the test controls when (whether) the re-mine finishes.
	reg := registry.New(0)
	if _, _, err := reg.Register([]byte(sampleCSV), dataset.CSVOptions{TrimSpace: true}); err != nil {
		t.Fatal(err)
	}
	started := make(chan struct{})
	var once sync.Once
	gated := func(ctx context.Context, data *dataset.Dataset, spec Spec, tr *Tracker) (*core.Result, error) {
		once.Do(func() { close(started) })
		<-ctx.Done() // only cancellation releases the miner
		return nil, ctx.Err()
	}
	e, err := New(Config{Registry: reg, Analyze: gated})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = e.Shutdown(ctx)
	})
	if _, err := e.Recover(dir); err != nil {
		t.Fatal(err)
	}
	job, ok := e.Get(id)
	if !ok {
		t.Fatal("job vanished across restart")
	}

	rehydrateErr := make(chan error, 1)
	go func() {
		_, err := e.Rehydrate(context.Background(), job)
		rehydrateErr <- err
	}()
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("rehydrate never started mining")
	}

	// DELETE arrives mid-re-mine.
	if _, err := e.Cancel(id); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-rehydrateErr:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("rehydrate err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("canceled rehydrate never returned")
	}

	// The canceled re-mine must not have repopulated anything: the full
	// result is still absent and the result cache still empty.
	if _, err := job.Result(); !errors.Is(err, ErrNoResult) {
		t.Fatalf("Result() after canceled rehydrate err = %v, want ErrNoResult", err)
	}
	if st := e.Stats(); st.ResultCache.Entries != 0 {
		t.Fatalf("canceled rehydrate populated the result cache: %+v", st.ResultCache)
	}
	if st := e.Stats(); st.Rehydrated != 0 {
		t.Fatalf("canceled rehydrate counted as a rehydration: %+v", st)
	}
}

// TestAdoptRecordsOfEveryKind: the records an explore and a significance
// job's engine logged, adopted by a second engine, keep their kind. The
// done records serve the logged outcomes unchanged, with no re-run; the
// submitted records re-run each job as its own kind.
func TestAdoptRecordsOfEveryKind(t *testing.T) {
	var mu sync.Mutex
	records := make(map[string][]Record)
	e, h := testEngine(t, Config{Workers: 1})
	e.SetOnTerminal(func(j *Job, rec Record) {
		mu.Lock()
		records[j.ID()] = append(records[j.ID()], rec)
		mu.Unlock()
	})
	e2, err := New(Config{Registry: e.reg, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = e2.Shutdown(ctx)
	})
	for _, w := range []Work{sampleExploreSpec(h), sigSpec(h)} {
		donor, err := e.Submit(w)
		if err != nil {
			t.Fatal(err)
		}
		if st := waitTerminal(t, donor); st.State != StateDone {
			t.Fatalf("%T job ended %s (%s)", w, st.State, st.Err)
		}
		want, _ := donor.Result()
		mu.Lock()
		done := records[donor.ID()][0]
		mu.Unlock()
		if done.Type != RecDone || done.Spec != nil || done.Result != nil || !reflect.DeepEqual(done.work(), donor.Work()) {
			t.Fatalf("%T done record = %+v, want the work and its outcome", w, done)
		}

		if err := e2.Adopt(done); err != nil {
			t.Fatal(err)
		}
		adopted, ok := e2.Get(donor.ID())
		if !ok {
			t.Fatalf("%T done record installed nothing", w)
		}
		got, err := adopted.Result()
		if err != nil || !reflect.DeepEqual(got, want) || !reflect.DeepEqual(adopted.Work(), donor.Work()) {
			t.Fatalf("%T adopted outcome %+v (err %v), want %+v", w, got, err, want)
		}
		if st := adopted.Snapshot(); !st.Recovered || st.Dataset != h {
			t.Errorf("%T adopted status = %+v, want recovered on %s", w, st, h)
		}

		rerun := donor.SubmittedRecord()
		rerun.Job = "rerun-" + donor.ID()
		if err := e2.Adopt(rerun); err != nil {
			t.Fatal(err)
		}
		j, ok := e2.Get(rerun.Job)
		if !ok {
			t.Fatalf("%T submitted record did not re-run", w)
		}
		if st := waitTerminal(t, j); st.State != StateDone {
			t.Fatalf("%T re-run ended %s (%s)", w, st.State, st.Err)
		}
		if out, _ := j.Result(); reflect.TypeOf(out) != reflect.TypeOf(want) {
			t.Errorf("%T re-run outcome is a %T, want a %T", w, out, want)
		}
	}
	// Only the re-runs computed anything: the adopted done jobs serve
	// what their records logged.
	if st := e2.Stats(); st.Submitted != 2 || st.Significance.Runs != 1 || st.Explore.Mines != 1 {
		t.Errorf("adopting engine: %d submitted, %d significance runs, %d explore mines; want 2, 1, 1",
			st.Submitted, st.Significance.Runs, st.Explore.Mines)
	}
}
