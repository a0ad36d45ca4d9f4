package jobs

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/faultfs"
)

// Recover opens the job store rooted at dir, replays its log into the
// engine's job table, and attaches the store for write-through — the
// startup path of a durable server. After Recover:
//
//   - jobs whose log reached a terminal state are visible with their
//     recorded outcome. A done explore or significance job (schema v3)
//     serves the outcome its done record logged; a done analysis carries
//     the durable result summary and, when its done record was written
//     in schema v2 or later, the spec needed to re-mine the full result
//     on demand (Rehydrate). The last persisted partial snapshot, if
//     any, is reattached;
//   - jobs the previous process left queued or running are re-marked
//     failed with ErrInterrupted — visible and explained, never
//     silently lost — and the re-mark is itself written to the log so
//     the next recovery sees a terminal state;
//   - submissions the previous process refused (rejected records) are
//     dropped: the client was already told no.
//
// A torn final line (crash mid-append) is repaired by the store on
// open. Recover returns the number of jobs reconstructed. It is meant
// to run once, before the engine serves traffic; attaching a second
// store is an error.
func (e *Engine) Recover(dir string) (int, error) { return e.RecoverFS(dir, nil) }

// RecoverFS is Recover with the store's file I/O routed through fsys
// (the real filesystem when nil) — the seam chaos tests use to replay
// recovery against injected disk faults.
func (e *Engine) RecoverFS(dir string, fsys faultfs.FS) (int, error) {
	st, err := OpenStoreFS(dir, fsys)
	if err != nil {
		return 0, err
	}
	if !e.store.CompareAndSwap(nil, st) {
		closeErr := st.Close()
		return 0, errors.Join(fmt.Errorf("jobs: a store is already attached"), closeErr)
	}

	jobsByID := make(map[string]*Job)
	rejected := make(map[string]bool)
	var order []string // log order, for deterministic re-mark records
	for _, rec := range st.Replay() {
		if rec.MonitorRecord() {
			continue // monitor subsystem records; monitor.Manager.Recover folds them
		}
		j := jobsByID[rec.Job]
		if j == nil {
			j = &Job{id: rec.Job, state: StateQueued, created: rec.Time, recovered: true}
			jobsByID[rec.Job] = j
			order = append(order, rec.Job)
		}
		applyRecord(j, rec, rejected)
	}

	now := time.Now()
	var interrupted []string
	n := 0
	e.jobsMu.Lock()
	for _, id := range order {
		if rejected[id] {
			continue
		}
		j := jobsByID[id]
		if !j.state.Terminal() {
			j.state = StateFailed
			j.err = ErrInterrupted
			j.finished = now
			interrupted = append(interrupted, id)
		}
		if _, live := e.jobs[id]; live {
			continue // never clobber a job this process is running
		}
		e.jobs[id] = j
		n++
	}
	e.jobsMu.Unlock()
	e.recovered.Store(int64(n))

	// Re-mark interrupted jobs in the log, outside jobsMu: Append fsyncs.
	for _, id := range interrupted {
		e.logRecord(Record{Type: RecFailed, Job: id, Error: ErrInterrupted.Error()})
	}
	return n, nil
}

// applyRecord folds one log record into the job being reconstructed.
// Records arrive in log order, so the last state transition wins.
// Adopt, which folds only done records, passes a nil rejected map.
func applyRecord(j *Job, rec Record, rejected map[string]bool) {
	switch rec.Type {
	case RecSubmitted:
		j.work, j.created = rec.work(), rec.Time
	case RecRejected:
		rejected[rec.Job] = true
	case RecRunning:
		j.state = StateRunning
		j.started = rec.Time
	case RecSnapshot:
		if rec.Snapshot != nil {
			j.partial.Store(rec.Snapshot)
			j.progressDone.Store(int64(rec.Snapshot.Done))
			j.progressTotal.Store(int64(rec.Snapshot.Total))
		}
	case RecDone:
		j.state = StateDone
		j.summary = rec.Result
		j.cacheHit = rec.CacheHit
		j.finished = rec.Time
		// A done record serves with the work beside it. Since v2 an
		// analysis's is its spec, the re-mine recipe; v1 records fold to
		// summary-only. Since v3 an explore or significance job's carries
		// its outcome. A v2 build wrote an analysis-shaped spec, but no
		// summary, for those two kinds: re-mining it would answer a
		// different question.
		switch {
		case rec.Result != nil && rec.Spec != nil:
			j.work, j.recompute = *rec.Spec, rec.Spec
		case rec.Explore != nil && rec.ExploreOutcome != nil:
			j.work, j.out = *rec.Explore, rec.ExploreOutcome
		case rec.Significance != nil && rec.SignificanceOutcome != nil:
			j.work, j.out = *rec.Significance, rec.SignificanceOutcome
		}
	case RecFailed:
		j.state = StateFailed
		j.err = recordError(rec.Error)
		j.finished = rec.Time
	case RecCanceled:
		j.state = StateCanceled
		j.err = recordError(rec.Error)
		j.finished = rec.Time
	}
	// Unknown record types (a newer format) are skipped: replay is
	// forward-compatible with additive changes.
}

// Rehydrate re-mines the full result of a done analysis job that was
// recovered from the store — the lazy half of full-result durability.
// The done record's spec (schema v2) names the dataset by content hash;
// if the registry still holds it, the exploration re-runs through the
// shared result cache and the result is pinned back onto the job, so
// the first GET /jobs/{id}/result after a restart pays the mine and
// every later one is free. Mining is deterministic (the parallel miner
// canonicalizes and sorts its output), so the rehydrated result renders
// byte-identical to the pre-crash response.
//
// Failure modes, in the order the server's fallback chain meets them:
// a job that is not done fails outright; a job with no recipe (a v1
// done record, or an explore or significance job, whose outcome is its
// result) returns ErrNoResult; an evicted or never-re-registered
// dataset returns ErrDatasetGone. For v1 records and a gone dataset the
// durable summary is still servable.
func (e *Engine) Rehydrate(ctx context.Context, job *Job) (*core.Result, error) {
	job.mu.Lock()
	state := job.state
	res, _ := job.out.(*core.Result)
	spec := job.recompute
	summary := job.summary
	job.mu.Unlock()
	if state != StateDone {
		return nil, fmt.Errorf("jobs: job %s is %s, not done", job.id, state)
	}
	if res != nil {
		return res, nil
	}
	if spec == nil {
		return nil, fmt.Errorf("%w: job %s %s", ErrNoResult, job.id, noRecipe(job.work, summary))
	}

	job.rehydrateMu.Lock()
	defer job.rehydrateMu.Unlock()
	job.mu.Lock()
	res, _ = job.out.(*core.Result)
	job.mu.Unlock()
	if res != nil { // a concurrent fetch already re-mined it
		return res, nil
	}
	// Expose a cancel handle while the re-mine is in flight: Cancel on a
	// recovered done job (DELETE mid-rehydrate) aborts the mine here
	// instead of letting it finish and repopulate caches.
	rctx, rcancel := context.WithCancel(ctx)
	job.mu.Lock()
	job.rehydrateCancel = rcancel
	job.mu.Unlock()
	res, _, err := e.analyzeCached(rctx, *spec, nil)
	job.mu.Lock()
	job.rehydrateCancel = nil
	job.mu.Unlock()
	rcancel()
	if err != nil {
		return nil, err
	}
	if res != nil { // never store a nil pointer as the outcome
		job.mu.Lock()
		job.out = res
		job.mu.Unlock()
	}
	e.rehydrated.Add(1)
	return res, nil
}

// noRecipe says why a done job has no re-mine recipe. Only analyses
// re-mine: an explore or significance job's outcome is its result. An
// analysis writes a recipe next to its summary, so a summary alone is a
// v1 done record. A v2 build logged the other two kinds under an
// analysis-shaped spec with neither, and of those specs only the
// significance one set Alpha.
func noRecipe(w Work, summary *ResultSummary) string {
	switch w.(type) {
	case ExploreSpec:
		return "is an explore job: its outcome is its result"
	case SignificanceSpec:
		return "is a significance job: its outcome is its result"
	}
	spec, _ := w.(Spec)
	switch {
	case summary != nil:
		return "has no recompute spec (v1 done record)"
	case spec.Alpha > 0:
		return "is a significance job logged by a v2 build: its outcome was not kept"
	default:
		return "is an explore job logged by a v2 build: its outcome was not kept"
	}
}

// recordError rehydrates a persisted error string. The interrupted
// sentinel round-trips as ErrInterrupted so errors.Is keeps working
// across restarts.
func recordError(msg string) error {
	switch msg {
	case "":
		return errors.New("jobs: failed in a previous run (no recorded error)")
	case ErrInterrupted.Error():
		return ErrInterrupted
	}
	return errors.New(msg)
}
