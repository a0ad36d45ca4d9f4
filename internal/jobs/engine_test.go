package jobs

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/registry"
)

const sampleCSV = `group,region,truth,pred
A,n,0,1
A,n,0,1
A,n,0,1
A,n,0,0
A,s,0,1
A,s,0,0
A,s,0,0
B,n,0,0
B,n,0,0
B,n,0,1
B,s,1,1
B,s,1,0
B,s,1,1
B,s,1,0
`

// testEngine builds an engine over a fresh registry with sampleCSV
// registered, applying any config overrides.
func testEngine(t *testing.T, cfg Config) (*Engine, registry.Hash) {
	t.Helper()
	reg := registry.New(0)
	entry, _, err := reg.Register([]byte(sampleCSV), dataset.CSVOptions{TrimSpace: true})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Registry = reg
	e, err := New(cfg)
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
	return e, entry.Hash
}

func sampleSpec(h registry.Hash) Spec {
	return Spec{
		Dataset:  h,
		TruthCol: "truth",
		PredCol:  "pred",
		Support:  0.05,
		Metrics:  []string{"FPR"},
		TopK:     10,
	}
}

// outcomeOf returns a done job's outcome as a T, failing the test when
// the job has none or one of another kind.
func outcomeOf[T any](t *testing.T, j *Job) T {
	t.Helper()
	out, err := j.Result()
	if err != nil {
		t.Fatal(err)
	}
	v, ok := out.(T)
	if !ok {
		t.Fatalf("job %s outcome is %T, want %T", j.ID(), out, v)
	}
	return v
}

// waitTerminal polls until the job reaches a terminal state.
func waitTerminal(t *testing.T, j *Job) Status {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if st := j.Snapshot(); st.State.Terminal() {
			return st
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s did not terminate: %s", j.ID(), j.Snapshot().State)
	return Status{}
}

func TestJobLifecycleDone(t *testing.T) {
	e, h := testEngine(t, Config{Workers: 2})
	job, err := e.Submit(sampleSpec(h))
	if err != nil {
		t.Fatal(err)
	}
	st := waitTerminal(t, job)
	if st.State != StateDone {
		t.Fatalf("state = %s (err %q), want done", st.State, st.Err)
	}
	if st.CacheHit {
		t.Error("first run reported a cache hit")
	}
	if st.ProgressTotal == 0 || st.ProgressDone != st.ProgressTotal {
		t.Errorf("progress %d/%d, want done == total > 0", st.ProgressDone, st.ProgressTotal)
	}
	if res := outcomeOf[*core.Result](t, job); res.NumPatterns() == 0 {
		t.Error("no frequent patterns mined")
	}
	if st.Started.Before(st.Created) || st.Finished.Before(st.Started) {
		t.Errorf("timestamps out of order: %+v", st)
	}
}

func TestResultCacheHit(t *testing.T) {
	e, h := testEngine(t, Config{Workers: 1})
	j1, err := e.Submit(sampleSpec(h))
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, j1)
	j2, err := e.Submit(sampleSpec(h))
	if err != nil {
		t.Fatal(err)
	}
	st2 := waitTerminal(t, j2)
	if st2.State != StateDone || !st2.CacheHit {
		t.Fatalf("second run state=%s cacheHit=%v, want done via cache", st2.State, st2.CacheHit)
	}
	r1, _ := j1.Result()
	r2, _ := j2.Result()
	if r1 != r2 {
		t.Error("cache hit returned a different result object")
	}
	s := e.Stats()
	if s.ResultCache.Hits != 1 || s.ResultCache.Misses != 1 {
		t.Errorf("cache stats = %+v, want 1 hit 1 miss", s.ResultCache)
	}
	// A different support is a different key.
	spec3 := sampleSpec(h)
	spec3.Support = 0.2
	j3, err := e.Submit(spec3)
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, j3); st.CacheHit {
		t.Error("different support hit the cache")
	}
}

// blockingAnalyze returns an AnalyzeFunc that signals on started and
// blocks until its context is canceled.
func blockingAnalyze(started chan<- string) AnalyzeFunc {
	return func(ctx context.Context, _ *dataset.Dataset, spec Spec, _ *Tracker) (*core.Result, error) {
		if started != nil {
			started <- spec.TruthCol
		}
		<-ctx.Done()
		return nil, ctx.Err()
	}
}

func TestQueueFullBackpressure(t *testing.T) {
	started := make(chan string, 4)
	e, h := testEngine(t, Config{Workers: 1, QueueDepth: 1, Analyze: blockingAnalyze(started)})

	// Occupy the single worker, then the single queue slot. Distinct
	// TruthCols keep the cache keys distinct.
	s1 := sampleSpec(h)
	s1.TruthCol = "blocker"
	if _, err := e.Submit(s1); err != nil {
		t.Fatal(err)
	}
	<-started // the worker is now inside analyze
	s2 := sampleSpec(h)
	s2.TruthCol = "queued"
	if _, err := e.Submit(s2); err != nil {
		t.Fatal(err)
	}
	s3 := sampleSpec(h)
	s3.TruthCol = "rejected"
	if _, err := e.Submit(s3); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("third submit err = %v, want ErrQueueFull", err)
	}
	if s := e.Stats(); s.Rejected != 1 || s.QueueLen != 1 {
		t.Errorf("stats = %+v, want 1 rejected, queue len 1", s)
	}
	// Shutdown (in Cleanup) cancels the blocked jobs via baseCancel after
	// the drain deadline would hit — cancel them explicitly instead so the
	// drain is quick.
	for _, j := range e.snapshotJobs() {
		if _, err := e.Cancel(j.ID()); err != nil {
			t.Fatal(err)
		}
	}
}

func TestCancelQueuedJob(t *testing.T) {
	started := make(chan string, 4)
	e, h := testEngine(t, Config{Workers: 1, QueueDepth: 2, Analyze: blockingAnalyze(started)})
	blocker := sampleSpec(h)
	blocker.TruthCol = "blocker"
	jb, err := e.Submit(blocker)
	if err != nil {
		t.Fatal(err)
	}
	<-started
	queued := sampleSpec(h)
	queued.TruthCol = "queued"
	jq, err := e.Submit(queued)
	if err != nil {
		t.Fatal(err)
	}
	st, err := e.Cancel(jq.ID())
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateCanceled {
		t.Fatalf("queued job state after cancel = %s, want canceled", st.State)
	}
	if _, err := e.Cancel(jb.ID()); err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, jb); st.State != StateCanceled {
		t.Errorf("blocker state = %s, want canceled", st.State)
	}
	// The canceled-while-queued job must never run.
	if s := e.Stats(); s.Canceled != 2 {
		t.Errorf("canceled count = %d, want 2", s.Canceled)
	}
}

func TestCancelRunningJobObservesContext(t *testing.T) {
	observed := make(chan struct{})
	analyze := func(ctx context.Context, _ *dataset.Dataset, _ Spec, _ *Tracker) (*core.Result, error) {
		<-ctx.Done()
		close(observed)
		return nil, ctx.Err()
	}
	e, h := testEngine(t, Config{Workers: 1, Analyze: analyze})
	job, err := e.Submit(sampleSpec(h))
	if err != nil {
		t.Fatal(err)
	}
	// Wait for the job to be running, then cancel it.
	deadline := time.Now().Add(5 * time.Second)
	for job.Snapshot().State != StateRunning && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if _, err := e.Cancel(job.ID()); err != nil {
		t.Fatal(err)
	}
	select {
	case <-observed:
	case <-time.After(5 * time.Second):
		t.Fatal("worker never observed cancellation")
	}
	st := waitTerminal(t, job)
	if st.State != StateCanceled {
		t.Fatalf("state = %s, want canceled (not done)", st.State)
	}
	if _, err := job.Result(); err == nil {
		t.Error("canceled job returned a result")
	}
}

func TestJobDeadline(t *testing.T) {
	e, h := testEngine(t, Config{Workers: 1, DefaultTimeout: 10 * time.Millisecond, Analyze: blockingAnalyze(nil)})
	job, err := e.Submit(sampleSpec(h))
	if err != nil {
		t.Fatal(err)
	}
	st := waitTerminal(t, job)
	if st.State != StateFailed {
		t.Fatalf("state = %s, want failed on deadline", st.State)
	}
}

func TestBadInputFailsJob(t *testing.T) {
	e, h := testEngine(t, Config{Workers: 1})
	spec := sampleSpec(h)
	spec.TruthCol = "no-such-column"
	job, err := e.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	st := waitTerminal(t, job)
	if st.State != StateFailed {
		t.Fatalf("state = %s, want failed", st.State)
	}
	if _, err := job.Result(); !errors.Is(err, ErrBadInput) {
		t.Errorf("err = %v, want ErrBadInput", err)
	}
}

func TestUnknownDatasetFailsJob(t *testing.T) {
	e, _ := testEngine(t, Config{Workers: 1})
	spec := sampleSpec(registry.Hash("0000000000000000000000000000000000000000000000000000000000000000"))
	job, err := e.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, job); st.State != StateFailed {
		t.Fatalf("state = %s, want failed", st.State)
	}
}

func TestSynchronousAnalyzeSharesCache(t *testing.T) {
	e, h := testEngine(t, Config{Workers: 1})
	spec := sampleSpec(h)
	r1, err := e.Analyze(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := e.Analyze(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Error("second synchronous analyze missed the cache")
	}
	// An async job for the same spec also hits it.
	job, err := e.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, job); !st.CacheHit {
		t.Error("async job missed the cache warmed synchronously")
	}
}

func TestShutdownDrainsQueuedJobs(t *testing.T) {
	reg := registry.New(0)
	entry, _, err := reg.Register([]byte(sampleCSV), dataset.CSVOptions{TrimSpace: true})
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(Config{Registry: reg, Workers: 1, QueueDepth: 8})
	if err != nil {
		t.Fatal(err)
	}
	var jobs []*Job
	for i := 0; i < 4; i++ {
		spec := sampleSpec(entry.Hash)
		spec.Support = 0.05 + float64(i)*0.01 // distinct cache keys: real work
		j, err := e.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := e.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		if st := j.Snapshot(); st.State != StateDone {
			t.Errorf("job %s = %s after drain, want done", j.ID(), st.State)
		}
	}
	if _, err := e.Submit(sampleSpec(entry.Hash)); !errors.Is(err, ErrShuttingDown) {
		t.Errorf("submit after shutdown err = %v, want ErrShuttingDown", err)
	}
	// Idempotent.
	if err := e.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestShutdownDeadlineCancelsInflight(t *testing.T) {
	reg := registry.New(0)
	entry, _, err := reg.Register([]byte(sampleCSV), dataset.CSVOptions{TrimSpace: true})
	if err != nil {
		t.Fatal(err)
	}
	started := make(chan string, 1)
	e, err := New(Config{Registry: reg, Workers: 1, Analyze: blockingAnalyze(started)})
	if err != nil {
		t.Fatal(err)
	}
	job, err := e.Submit(sampleSpec(entry.Hash))
	if err != nil {
		t.Fatal(err)
	}
	<-started
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := e.Shutdown(ctx); err == nil {
		t.Fatal("shutdown met its deadline despite a blocked job")
	}
	if st := job.Snapshot(); st.State != StateCanceled {
		t.Errorf("in-flight job state = %s, want canceled by shutdown", st.State)
	}
}

func TestCancelUnknownJob(t *testing.T) {
	e, _ := testEngine(t, Config{Workers: 1})
	if _, err := e.Cancel("nope"); !errors.Is(err, ErrUnknownJob) {
		t.Errorf("err = %v, want ErrUnknownJob", err)
	}
}

func TestStateStrings(t *testing.T) {
	want := map[State]string{
		StateQueued: "queued", StateRunning: "running", StateDone: "done",
		StateFailed: "failed", StateCanceled: "canceled", State(99): "unknown",
	}
	for s, name := range want {
		if s.String() != name {
			t.Errorf("State(%d).String() = %q, want %q", s, s.String(), name)
		}
	}
	if StateRunning.Terminal() || !StateCanceled.Terminal() {
		t.Error("Terminal misclassifies states")
	}
}

// snapshotJobs returns all tracked jobs (test helper).
func (e *Engine) snapshotJobs() []*Job {
	e.jobsMu.Lock()
	defer e.jobsMu.Unlock()
	out := make([]*Job, 0, len(e.jobs))
	for _, j := range e.jobs {
		out = append(out, j)
	}
	return out
}
