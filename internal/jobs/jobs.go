// Package jobs is the asynchronous job engine: a bounded worker pool
// runs DivExplorer jobs off the request goroutine, with a full job
// lifecycle
//
//	queued → running → done | failed | canceled
//
// per-job context cancellation and deadline, a bounded queue with
// explicit backpressure (ErrQueueFull instead of unbounded growth), LRU
// caches keyed by each question's inputs, and graceful drain on
// shutdown. Every job kind — an analysis Spec (mined by fpm.Parallel,
// the bitset kernel), an ExploreSpec or a SignificanceSpec — is one
// Work, submitted, logged, replicated, adopted and recovered one way,
// under its own spec. Submit validates the spec, admits it against its
// tenant's quotas when an admission controller is configured (releasing
// the grant when the job ends), logs it ahead and queues it, FIFO or
// weighted-fair. A done record logs what serves the job after a restart:
// an analysis's summary and recipe, or an explore or significance
// outcome itself. Datasets
// are referenced by content hash through internal/registry, so
// identical uploads mine at most once and repeat requests are served
// from cache.
package jobs

import (
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/registry"
)

// Typed errors surfaced to the HTTP layer.
var (
	// ErrQueueFull is returned by Submit when the bounded queue is at
	// capacity; the server maps it to HTTP 429. Callers should retry
	// later rather than block.
	ErrQueueFull = errors.New("jobs: queue full")
	// ErrShuttingDown is returned by Submit after Shutdown started.
	ErrShuttingDown = errors.New("jobs: engine shutting down")
	// ErrUnknownJob is returned for job ids the engine has never seen.
	ErrUnknownJob = errors.New("jobs: unknown job")
	// ErrBadInput wraps analysis failures caused by the request itself
	// (unknown columns, non-Boolean labels, bad support) as opposed to
	// internal faults; the server maps it to HTTP 400.
	ErrBadInput = errors.New("jobs: bad input")
	// ErrInterrupted marks a job that was queued or running when the
	// previous process died; Recover re-marks such jobs failed rather
	// than letting them vanish silently.
	ErrInterrupted = errors.New("jobs: interrupted by engine restart")
	// ErrNoResult is returned by Result for done jobs recovered from the
	// store: the full in-memory result is gone. Engine.Rehydrate re-mines
	// it when the job's done record carries a spec (schema v2) and the
	// dataset is still resident; otherwise only the durable summary
	// (Job.Summary), if the job has one, survives a restart.
	ErrNoResult = errors.New("jobs: full result not in memory (job recovered from store); use the summary")
	// ErrDatasetGone marks an analysis or rehydration whose dataset is no
	// longer resident in the registry (never registered, evicted, or lost
	// to a restart). The server maps it to the degraded-summary fallback
	// on the result endpoint.
	ErrDatasetGone = errors.New("jobs: dataset not resident in the registry")
)

// State is a job lifecycle state.
type State int

const (
	StateQueued State = iota
	StateRunning
	StateDone
	StateFailed
	StateCanceled
)

// String returns the wire name of the state.
func (s State) String() string {
	switch s {
	case StateQueued:
		return "queued"
	case StateRunning:
		return "running"
	case StateDone:
		return "done"
	case StateFailed:
		return "failed"
	case StateCanceled:
		return "canceled"
	default:
		return "unknown"
	}
}

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// Spec describes one analysis: which dataset (by content hash), which
// label columns, and the exploration parameters. Metrics, TopK, Epsilon
// and Alpha shape the rendered report; the mined result depends only on
// the dataset, the label columns and the support threshold.
type Spec struct {
	Dataset  registry.Hash
	TruthCol string
	PredCol  string
	Support  float64
	Metrics  []string // metric names, e.g. "FPR"; validated by the caller
	Epsilon  float64
	TopK     int
	Alpha    float64
	// Tenant is the admission identity the submission arrived under. It
	// shapes queueing and quotas only — never the mined result — so it is
	// excluded from CacheKey: two tenants analyzing the same dataset share
	// one cache entry.
	Tenant string `json:",omitempty"`
}

// CacheKey identifies the cached mining result for a spec: exactly the
// inputs the mined lattice depends on — dataset hash, label columns,
// support — so every analysis, significance query and rehydration of
// the same mine shares one entry. What only shapes the rendered answer
// (Metrics, Epsilon, TopK, Alpha) and the admission identity (Tenant)
// are excluded; they are applied to the Result per request.
func (s Spec) CacheKey() string {
	return cacheKey(string(s.Dataset), s.TruthCol, s.PredCol, ftoa(s.Support))
}

// Job is one submitted analysis, exploration or significance query.
// All exported access goes through Snapshot, Result and Summary; the
// engine owns the mutable state.
type Job struct {
	id string
	// work is the job's spec, of its kind; set before the job is
	// published and never changed. Nil only for a job recovered from a
	// log that holds no record carrying it.
	work Work

	mu    sync.Mutex
	state State
	err   error
	// out is a done job's outcome: a *core.Result, *ExploreOutcome or
	// *SignificanceOutcome, never a nil pointer. A recovered or adopted
	// explore or significance job has the outcome its done record logged;
	// an analysis has none until Rehydrate re-mines its result.
	out       any
	summary   *ResultSummary
	recovered bool
	cacheHit  bool
	created   time.Time
	started   time.Time
	finished  time.Time
	cancel    func() // non-nil only while running

	// recompute, set from a v2 done record (replayed or adopted), is the
	// spec to re-mine the full result from; rehydrateMu single-flights
	// that re-mine so concurrent result fetches do not each run it.
	// rehydrateCancel, non-nil only while that re-mine is in flight,
	// aborts it — Cancel on a recovered done job must stop the re-mine
	// instead of letting it complete and repopulate caches.
	recompute       *Spec
	rehydrateMu     sync.Mutex
	rehydrateCancel func()

	partial       atomic.Pointer[Snapshot]
	progressDone  atomic.Int64
	progressTotal atomic.Int64

	canceledByUser atomic.Bool

	// granted is set while the job holds an admission grant of grantBytes
	// for its work's tenant: from submit until the job ends.
	granted    atomic.Bool
	grantBytes int64
}

// ID returns the job's opaque identifier.
func (j *Job) ID() string { return j.id }

// Work returns the job's spec, of its kind: a Spec, ExploreSpec or
// SignificanceSpec, normalized as it was submitted.
func (j *Job) Work() Work { return j.work }

// source returns the dataset and tenant of the job's work, empty for a
// job recovered without it.
func (j *Job) source() (registry.Hash, string) {
	if j.work == nil {
		return "", ""
	}
	return j.work.Source()
}

// SubmittedRecord returns the record the engine logs when it accepts the
// job, carrying its work under its kind. The cluster layer replicates
// this same record to the dataset's other owners, which re-run the job
// from it (Engine.Adopt).
func (j *Job) SubmittedRecord() Record {
	rec := j.work.record(nil)
	rec.Type, rec.Job, rec.Time = RecSubmitted, j.id, j.created
	return rec
}

// Result returns a done job's outcome, whatever its kind: a
// *core.Result for an analysis, an *ExploreOutcome or a
// *SignificanceOutcome. A recovered explore or significance job returns
// the outcome its done record logged. A recovered analysis has none
// until Rehydrate re-mines its result; Result then returns ErrNoResult
// and callers fall back to Summary. A failed job returns its error.
func (j *Job) Result() (any, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	switch j.state {
	case StateDone:
		if j.out == nil {
			return nil, fmt.Errorf("%w: job %s", ErrNoResult, j.id)
		}
		return j.out, nil
	case StateFailed:
		return nil, j.err
	default:
		return nil, fmt.Errorf("jobs: job %s is %s, not done", j.id, j.state)
	}
}

// Summary returns an analysis's durable result digest, nil until the
// job is done and for the other kinds.
func (j *Job) Summary() *ResultSummary {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.summary
}

// Partial returns the latest partial-result snapshot, nil before the
// first one. For jobs recovered from the store this is the last
// snapshot the previous process persisted.
func (j *Job) Partial() *Snapshot { return j.partial.Load() }

// Recomputable reports whether the job's full result can in principle be
// re-mined after recovery: its done record carried a spec (schema v2).
// Whether the re-mine succeeds still depends on the dataset being
// resident when Engine.Rehydrate runs.
func (j *Job) Recomputable() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.recompute != nil
}

// Recovered reports whether the job was reconstructed from the store by
// Recover rather than run by this process.
func (j *Job) Recovered() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.recovered
}

// Status is an immutable snapshot of a job's externally visible state.
type Status struct {
	ID string
	// Dataset is the content hash the job's work reads.
	Dataset   registry.Hash
	State     State
	Err       string
	CacheHit  bool
	Recovered bool
	Created   time.Time
	Started   time.Time
	Finished  time.Time
	// ProgressDone/ProgressTotal count completed mining subproblems;
	// both are zero until the first subproblem finishes.
	ProgressDone  int64
	ProgressTotal int64
}

// Snapshot returns the job's current status.
func (j *Job) Snapshot() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	dataset, _ := j.source()
	st := Status{
		ID:            j.id,
		Dataset:       dataset,
		State:         j.state,
		CacheHit:      j.cacheHit,
		Recovered:     j.recovered,
		Created:       j.created,
		Started:       j.started,
		Finished:      j.finished,
		ProgressDone:  j.progressDone.Load(),
		ProgressTotal: j.progressTotal.Load(),
	}
	if j.err != nil {
		st.Err = j.err.Error()
	}
	return st
}

// NewID mints a job identifier: 16 random hex characters. The cluster
// forwarding layer mints IDs before a submission leaves the ingress
// node, so hedged and retried forwards land idempotently under one ID.
func NewID() (string, error) {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "", fmt.Errorf("jobs: generating id: %w", err)
	}
	return hex.EncodeToString(b[:]), nil
}
