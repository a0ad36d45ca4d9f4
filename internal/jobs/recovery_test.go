package jobs

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/registry"
)

// openTestStore opens a store over dir, failing the test on error.
func openTestStore(t *testing.T, dir string) *Store {
	t.Helper()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// copyWAL snapshots the live log in srcDir into a fresh directory — the
// deterministic stand-in for a crash: the new directory holds exactly
// the bytes that had reached the file when the "process died".
func copyWAL(t *testing.T, srcDir string) string {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(srcDir, WALName))
	if err != nil {
		t.Fatal(err)
	}
	dst := t.TempDir()
	if err := os.WriteFile(filepath.Join(dst, WALName), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return dst
}

// recoveredEngine builds a fresh engine (empty registry — a restarted
// process has nothing in memory) and recovers dir into it.
func recoveredEngine(t *testing.T, dir string) (*Engine, int) {
	t.Helper()
	e, err := New(Config{Registry: registry.New(0)})
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

func TestRecoverCompletedJobSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	e1, h := testEngine(t, Config{Workers: 1, Store: openTestStore(t, dir)})
	job, err := e1.Submit(sampleSpec(h))
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, job); st.State != StateDone {
		t.Fatalf("job state = %s (err %q), want done", st.State, st.Err)
	}
	wantSum := job.Summary()
	if wantSum == nil || len(wantSum.Metrics) == 0 {
		t.Fatalf("live job summary = %+v, want populated", wantSum)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := e1.Shutdown(ctx); err != nil { // clean restart: close the log
		t.Fatal(err)
	}

	e2, n := recoveredEngine(t, dir)
	if n != 1 {
		t.Fatalf("Recover returned %d jobs, want 1", n)
	}
	got, ok := e2.Get(job.ID())
	if !ok {
		t.Fatal("completed job vanished across the restart")
	}
	st := got.Snapshot()
	if st.State != StateDone || !st.Recovered {
		t.Errorf("recovered status = %+v", st)
	}
	if !got.Recovered() {
		t.Error("Recovered() = false for a replayed job")
	}
	if _, err := got.Result(); !errors.Is(err, ErrNoResult) {
		t.Errorf("Result() err = %v, want ErrNoResult", err)
	}
	sum := got.Summary()
	if sum == nil {
		t.Fatal("recovered job has no summary")
	}
	if sum.Rows != wantSum.Rows || sum.Patterns != wantSum.Patterns ||
		len(sum.Metrics) != len(wantSum.Metrics) {
		t.Errorf("recovered summary %+v, want %+v", sum, wantSum)
	}
	if s := e2.Stats(); !s.Durable || s.Recovered != 1 {
		t.Errorf("stats = %+v, want durable with 1 recovered", s)
	}
}

func TestRecoverInterruptedJobMarkedFailed(t *testing.T) {
	dir := t.TempDir()
	st := openTestStore(t, dir)
	started := make(chan string, 1)
	e1, h := testEngine(t, Config{Workers: 1, Store: st, Analyze: blockingAnalyze(started)})
	job, err := e1.Submit(sampleSpec(h))
	if err != nil {
		t.Fatal(err)
	}
	<-started // the worker is inside analyze
	// Wait for the running record to reach the file, then "crash".
	deadline := time.Now().Add(5 * time.Second)
	for st.Appends() < 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	crashDir := copyWAL(t, dir)
	if _, err := e1.Cancel(job.ID()); err != nil { // unblock for cleanup
		t.Fatal(err)
	}

	e2, n := recoveredEngine(t, crashDir)
	if n != 1 {
		t.Fatalf("Recover returned %d jobs, want 1", n)
	}
	got, ok := e2.Get(job.ID())
	if !ok {
		t.Fatal("interrupted job vanished across the restart")
	}
	snap := got.Snapshot()
	if snap.State != StateFailed {
		t.Fatalf("interrupted job state = %s, want failed", snap.State)
	}
	if _, err := got.Result(); !errors.Is(err, ErrInterrupted) {
		t.Errorf("Result() err = %v, want ErrInterrupted", err)
	}
	if snap.Finished.IsZero() {
		t.Error("interrupted job has no finished time")
	}

	// The re-mark must itself be durable: a second recovery of the same
	// directory sees a terminal job and changes nothing.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := e2.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	st3 := openTestStore(t, crashDir)
	recs := st3.Replay()
	last := recs[len(recs)-1]
	if last.Type != RecFailed || last.Job != job.ID() || last.Error != ErrInterrupted.Error() {
		t.Errorf("last record after recovery = %+v, want the interrupted re-mark", last)
	}
	if err := st3.Close(); err != nil {
		t.Fatal(err)
	}
	e3, _ := recoveredEngine(t, crashDir)
	got3, _ := e3.Get(job.ID())
	if _, err := got3.Result(); !errors.Is(err, ErrInterrupted) {
		t.Errorf("second recovery err = %v, want ErrInterrupted preserved", err)
	}
}

func TestRecoverTornTailCrash(t *testing.T) {
	dir := t.TempDir()
	e1, h := testEngine(t, Config{Workers: 1, Store: openTestStore(t, dir)})
	job, err := e1.Submit(sampleSpec(h))
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, job); st.State != StateDone {
		t.Fatalf("job state = %s, want done", st.State)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := e1.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	// Tear the tail: append half a record, as a crash mid-write would.
	crashDir := copyWAL(t, dir)
	f, err := os.OpenFile(filepath.Join(crashDir, WALName), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"v":1,"type":"snapsho`); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	e2, n := recoveredEngine(t, crashDir)
	if n != 1 {
		t.Fatalf("Recover over a torn log returned %d jobs, want 1", n)
	}
	got, _ := e2.Get(job.ID())
	if st := got.Snapshot(); st.State != StateDone {
		t.Errorf("state after torn-tail recovery = %s, want done", st.State)
	}
	if got.Summary() == nil {
		t.Error("summary lost to the torn tail")
	}
}

func TestRecoverReattachesPartialSnapshot(t *testing.T) {
	dir := t.TempDir()
	// SnapshotEvery 0 persists every partial update, so the last one the
	// previous process saw is exactly what recovery reattaches.
	e1, h := testEngine(t, Config{Workers: 1, Store: openTestStore(t, dir), SnapshotEvery: 0})
	job, err := e1.Submit(sampleSpec(h))
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, job); st.State != StateDone {
		t.Fatalf("job state = %s, want done", st.State)
	}
	live := job.Partial()
	if live == nil || live.Seq == 0 {
		t.Fatalf("live partial = %+v, want snapshots emitted", live)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := e1.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	e2, _ := recoveredEngine(t, dir)
	got, _ := e2.Get(job.ID())
	snap := got.Partial()
	if snap == nil {
		t.Fatal("recovered job lost its partial snapshot")
	}
	if snap.Seq != live.Seq || snap.Done != live.Done || snap.Total != live.Total {
		t.Errorf("recovered partial = %+v, want %+v", snap, live)
	}
	st := got.Snapshot()
	if st.ProgressDone != int64(snap.Done) || st.ProgressTotal != int64(snap.Total) {
		t.Errorf("recovered progress = %d/%d, want %d/%d",
			st.ProgressDone, st.ProgressTotal, snap.Done, snap.Total)
	}
}

func TestRecoverSkipsRejectedSubmissions(t *testing.T) {
	dir := t.TempDir()
	log := `{"v":1,"type":"submitted","job":"kept","time":"2026-01-01T00:00:00Z"}
{"v":1,"type":"done","job":"kept","time":"2026-01-01T00:00:01Z"}
{"v":1,"type":"submitted","job":"refused","time":"2026-01-01T00:00:02Z"}
{"v":1,"type":"rejected","job":"refused","time":"2026-01-01T00:00:02Z","error":"jobs: queue full"}
`
	if err := os.WriteFile(filepath.Join(dir, WALName), []byte(log), 0o644); err != nil {
		t.Fatal(err)
	}
	e, n := recoveredEngine(t, dir)
	if n != 1 {
		t.Fatalf("Recover returned %d jobs, want 1 (rejected dropped)", n)
	}
	if _, ok := e.Get("refused"); ok {
		t.Error("rejected submission resurrected by recovery")
	}
	if j, ok := e.Get("kept"); !ok || j.Snapshot().State != StateDone {
		t.Error("terminal job not recovered alongside the rejected one")
	}
}

func TestRecoverSecondStoreRefused(t *testing.T) {
	e, _ := recoveredEngine(t, t.TempDir())
	if _, err := e.Recover(t.TempDir()); err == nil {
		t.Fatal("attaching a second store succeeded")
	}
}

func TestWriteAheadSubmitRecordedBeforeAck(t *testing.T) {
	dir := t.TempDir()
	st := openTestStore(t, dir)
	started := make(chan string, 1)
	e, h := testEngine(t, Config{Workers: 1, Store: st, Analyze: blockingAnalyze(started)})
	job, err := e.Submit(sampleSpec(h))
	if err != nil {
		t.Fatal(err)
	}
	<-started
	// The submitted record is on disk before Submit returned: a copy of
	// the log taken right now must already contain it.
	crashDir := copyWAL(t, dir)
	if _, err := e.Cancel(job.ID()); err != nil {
		t.Fatal(err)
	}
	st2 := openTestStore(t, crashDir)
	defer func() {
		if err := st2.Close(); err != nil {
			t.Error(err)
		}
	}()
	recs := st2.Replay()
	if len(recs) == 0 || recs[0].Type != RecSubmitted || recs[0].Job != job.ID() {
		t.Fatalf("first record = %+v, want the write-ahead submitted record", recs)
	}
	if recs[0].Spec == nil || recs[0].Spec.TruthCol != "truth" {
		t.Errorf("submitted record carries no spec: %+v", recs[0])
	}
}

func TestQueueFullClosesWriteAheadRecord(t *testing.T) {
	dir := t.TempDir()
	st := openTestStore(t, dir)
	started := make(chan string, 1)
	e, h := testEngine(t, Config{Workers: 1, QueueDepth: 1, Store: st, Analyze: blockingAnalyze(started)})
	s1 := sampleSpec(h)
	s1.TruthCol = "blocker"
	if _, err := e.Submit(s1); err != nil {
		t.Fatal(err)
	}
	<-started
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
	crashDir := copyWAL(t, dir)
	for _, j := range e.snapshotJobs() {
		if _, err := e.Cancel(j.ID()); err != nil {
			t.Fatal(err)
		}
	}

	// Recovery over that log must not resurrect the refused submission.
	e2, n := recoveredEngine(t, crashDir)
	if n != 2 {
		t.Fatalf("Recover returned %d jobs, want 2 (the refused one dropped)", n)
	}
	for _, j := range e2.snapshotJobs() {
		if j.Work().(Spec).TruthCol == "rejected" {
			t.Error("refused submission resurrected by recovery")
		}
	}
}
