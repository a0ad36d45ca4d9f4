package jobs

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/admission"
	"repro/internal/core"
	"repro/internal/registry"
)

// Config configures an Engine. The zero value of each field selects a
// sensible default; Registry is required.
type Config struct {
	// Registry resolves dataset hashes to parsed datasets. Required.
	Registry *registry.Registry
	// Workers bounds the worker pool; runtime.GOMAXPROCS(0) when <= 0.
	Workers int
	// QueueDepth bounds the number of queued (not yet running) jobs;
	// 64 when <= 0. A full queue rejects with ErrQueueFull.
	QueueDepth int
	// Admission, when non-nil, admits every submitted job against its
	// tenant's quotas and rate limit (a refusal is an *admission.Denied)
	// and drains the queue by weighted fair queueing instead of FIFO.
	Admission *admission.Controller
	// ResultCacheEntries bounds the result LRU; 128 when <= 0.
	ResultCacheEntries int
	// DefaultTimeout is the deadline of every job run on the worker pool;
	// 0 means no deadline.
	DefaultTimeout time.Duration
	// Analyze runs one analysis; RunAnalysis when nil. Tests substitute
	// controllable implementations, and it is the seam for alternative
	// mining backends.
	Analyze AnalyzeFunc
	// Store, when non-nil, receives a write-through record of every job
	// lifecycle transition, making the engine durable across restarts.
	// Engine.Recover opens and attaches one from a directory; supplying
	// it here is mainly for tests.
	Store *Store
	// SnapshotEvery rate-limits how often partial-result snapshots are
	// persisted to the store; <= 0 persists every update. The in-memory
	// snapshot served by the partial/events endpoints always updates on
	// every emission regardless.
	SnapshotEvery time.Duration
	// ExploreCacheEntries bounds the anytime-explore outcome LRU; 64
	// when <= 0.
	ExploreCacheEntries int
	// ExploreSessions bounds the per-dataset navigation-session LRU; 16
	// when <= 0.
	ExploreSessions int
	// SignificanceCacheEntries bounds the significance-outcome LRU; 64
	// when <= 0.
	SignificanceCacheEntries int
	// MaxPermutations caps the label permutations one significance query
	// may run — B sampled, or n! in exhaustive mode; 100000 when <= 0.
	MaxPermutations int
}

// jobQueue is the engine's job queue: a FIFO channel, or a fair queue
// when admission is on. Push never blocks (false sheds load — the
// ErrQueueFull contract); Pop blocks until an item or Close, then
// drains the backlog before reporting false. The engine issues no Push
// after Close.
type jobQueue interface {
	Push(j *Job) bool
	Pop() (*Job, bool)
	Len() int
	Cap() int
	Close()
}

// chanQueue is the default FIFO queue: a plain bounded channel.
type chanQueue struct{ ch chan *Job }

func (q chanQueue) Push(j *Job) bool {
	select {
	case q.ch <- j:
		return true
	default:
		return false
	}
}

func (q chanQueue) Pop() (*Job, bool) {
	j, ok := <-q.ch
	return j, ok
}

func (q chanQueue) Len() int { return len(q.ch) }
func (q chanQueue) Cap() int { return cap(q.ch) }
func (q chanQueue) Close()   { close(q.ch) }

// fairQueue drains tenants in proportion to their admission weights.
type fairQueue struct{ *admission.FairQueue[*Job] }

func (q fairQueue) Push(j *Job) bool {
	_, tenant := j.source()
	return q.FairQueue.Push(tenant, j)
}

// Stats is a point-in-time snapshot of the engine counters for /statsz.
type Stats struct {
	Workers   int   `json:"workers"`
	Busy      int   `json:"busy"`
	QueueLen  int   `json:"queue_len"`
	QueueCap  int   `json:"queue_cap"`
	Submitted int64 `json:"submitted"`
	Completed int64 `json:"completed"`
	Failed    int64 `json:"failed"`
	Canceled  int64 `json:"canceled"`
	Rejected  int64 `json:"rejected"`
	// Durable reports whether a job store is attached; Recovered counts
	// jobs reconstructed from it at startup, Rehydrated counts recovered
	// jobs whose full result was re-mined on demand (Engine.Rehydrate),
	// and StoreErrors counts best-effort write-through appends that
	// failed.
	Durable     bool       `json:"durable"`
	Recovered   int64      `json:"recovered"`
	Rehydrated  int64      `json:"rehydrated"`
	StoreErrors int64      `json:"store_errors"`
	ResultCache CacheStats `json:"result_cache"`
	// Explore is the anytime exploration/navigation tier.
	Explore ExploreStats `json:"explore"`
	// Significance is the permutation-testing tier.
	Significance SignificanceStats `json:"significance"`
}

// Engine is the asynchronous analysis-job engine: a bounded worker pool
// consuming a bounded queue, with an LRU cache of mined results. All
// methods are safe for concurrent use.
type Engine struct {
	cfg     Config
	reg     *registry.Registry
	analyze AnalyzeFunc
	cache   cache[*core.Result]

	baseCtx    context.Context
	baseCancel context.CancelFunc

	mu       sync.RWMutex // guards queue-close vs. submit
	draining bool
	queue    jobQueue

	jobsMu sync.Mutex
	jobs   map[string]*Job

	workers int
	wg      sync.WaitGroup

	store atomic.Pointer[Store]

	// Anytime exploration tier: outcome cache and per-dataset
	// navigation sessions.
	xcache   cache[*ExploreOutcome]
	sessions cache[*session]

	explores     atomic.Int64
	exploreMines atomic.Int64
	expands      atomic.Int64

	// Significance tier: outcome cache and counters.
	sigCache   cache[*SignificanceOutcome]
	sigQueries atomic.Int64
	sigRuns    atomic.Int64
	sigPerms   atomic.Int64

	// onTerminal holds the terminal-state hook (SetOnTerminal) behind an
	// atomic so the serving layer can attach cluster replication after
	// construction.
	onTerminal atomic.Pointer[func(j *Job, rec Record)]

	busy       atomic.Int64
	submitted  atomic.Int64
	completed  atomic.Int64
	failed     atomic.Int64
	canceled   atomic.Int64
	rejected   atomic.Int64
	recovered  atomic.Int64
	rehydrated atomic.Int64
	storeErrs  atomic.Int64
}

// New starts an engine with cfg.Workers workers. Call Shutdown to drain.
func New(cfg Config) (*Engine, error) {
	if cfg.Registry == nil {
		return nil, fmt.Errorf("jobs: Config.Registry is required")
	}
	workers := positiveOr(cfg.Workers, runtime.GOMAXPROCS(0))
	analyze := cfg.Analyze
	if analyze == nil {
		analyze = RunAnalysis
	}
	depth := positiveOr(cfg.QueueDepth, 64)
	var queue jobQueue = chanQueue{ch: make(chan *Job, depth)}
	if ctrl := cfg.Admission; ctrl != nil {
		queue = fairQueue{admission.NewFairQueue[*Job](depth, ctrl.Weight)}
	}
	// lint:ignore ctxflow the engine root context outlives any caller request; it is canceled by Engine.Close, not by whoever happened to construct the engine
	ctx, cancel := context.WithCancel(context.Background())
	e := &Engine{
		cfg:        cfg,
		reg:        cfg.Registry,
		analyze:    analyze,
		cache:      newCache[*core.Result](positiveOr(cfg.ResultCacheEntries, 128)),
		baseCtx:    ctx,
		baseCancel: cancel,
		queue:      queue,
		jobs:       make(map[string]*Job),
		workers:    workers,
		xcache:     newCache[*ExploreOutcome](positiveOr(cfg.ExploreCacheEntries, 64)),
		sessions:   newCache[*session](positiveOr(cfg.ExploreSessions, 16)),
		sigCache:   newCache[*SignificanceOutcome](positiveOr(cfg.SignificanceCacheEntries, 64)),
	}
	if cfg.Store != nil {
		e.store.Store(cfg.Store)
	}
	for i := 0; i < workers; i++ {
		e.wg.Add(1)
		go e.worker()
	}
	return e, nil
}

// positiveOr returns n when it is positive and def otherwise: the
// default rule of every size in Config.
func positiveOr(n, def int) int {
	if n > 0 {
		return n
	}
	return def
}

// Store returns the attached write-ahead store, or nil when the engine
// is not durable. The monitor subsystem shares it for spec durability.
func (e *Engine) Store() *Store { return e.store.Load() }

// worker consumes the queue until it is closed by Shutdown.
func (e *Engine) worker() {
	defer e.wg.Done()
	for {
		job, ok := e.queue.Pop()
		if !ok {
			return
		}
		e.run(job)
	}
}

// Work is the spec of one job of any kind — Spec (an analysis),
// ExploreSpec or SignificanceSpec. The engine holds, logs, replicates
// and adopts each kind as its own spec.
type Work interface {
	// Source returns the dataset the job reads, which places it in a
	// cluster, and the tenant it is admitted under.
	Source() (dataset registry.Hash, tenant string)
	// prepare normalizes the spec for submission; explore and
	// significance specs are validated here, analysis specs when they
	// run.
	prepare(e *Engine) (Work, error)
	// run computes the job's outcome on a worker: a *core.Result,
	// *ExploreOutcome or *SignificanceOutcome, never a nil pointer.
	run(ctx context.Context, e *Engine, tr *Tracker) (out any, cacheHit bool, err error)
	// record returns a record carrying the spec under its kind and, when
	// out is an outcome of the kind, what serves it after a restart: an
	// analysis's summary, or the explore or significance outcome itself.
	record(out any) Record
}

// Submit enqueues a job of any kind. It never blocks: a full queue
// returns ErrQueueFull (the backpressure contract), a draining engine
// returns ErrShuttingDown, a bad explore or significance spec returns an
// error wrapping ErrBadInput, and an admission refusal is an
// *admission.Denied. With a store attached the submission is written
// ahead — a submit the store cannot record is refused, so every
// acknowledged job survives a crash.
func (e *Engine) Submit(w Work) (*Job, error) { return e.submit("", w, false, true) }

// Validate checks w as Submit does, without submitting it: a bad
// explore or significance spec returns an error wrapping ErrBadInput.
func (e *Engine) Validate(w Work) error {
	_, err := w.prepare(e)
	return err
}

// SubmitAdopted is Submit under an externally minted ID — the cluster
// layer mints IDs before forwarding, so retried, hedged and failed-over
// submissions land idempotently: an ID the engine already holds returns
// the existing job unchanged and charges no admission.
func (e *Engine) SubmitAdopted(id string, w Work) (*Job, error) {
	if id == "" {
		return nil, fmt.Errorf("jobs: empty job id")
	}
	return e.submit(id, w, true, true)
}

// submit is the one enqueue path for every job kind: validate w, insert
// it under id (a fresh ID when empty), admit it when admit is set, log
// it ahead and queue it. The job is visible in the job table before
// admission and the write-ahead append, so concurrent duplicate
// submissions under one ID resolve to one winner under jobsMu; adopted
// re-submissions return the existing job unchanged and charge nothing.
func (e *Engine) submit(id string, w Work, adopted, admit bool) (*Job, error) {
	w, err := w.prepare(e)
	if err != nil {
		return nil, err
	}
	if id == "" {
		if id, err = NewID(); err != nil {
			return nil, err
		}
	}
	job := &Job{id: id, work: w, state: StateQueued, created: time.Now()}
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.draining {
		e.rejected.Add(1)
		return nil, ErrShuttingDown
	}
	e.jobsMu.Lock()
	if existing, ok := e.jobs[job.id]; ok {
		e.jobsMu.Unlock()
		if adopted {
			return existing, nil
		}
		return nil, fmt.Errorf("jobs: duplicate job id %s", job.id)
	}
	e.jobs[job.id] = job
	e.jobsMu.Unlock()
	undo := func() {
		e.jobsMu.Lock()
		delete(e.jobs, job.id)
		e.jobsMu.Unlock()
		e.release(job)
	}
	if ctrl := e.cfg.Admission; ctrl != nil && admit {
		// The grant: one active slot, plus the dataset's bytes when it is
		// resident.
		dataset, tenant := w.Source()
		if entry, ok := e.reg.Get(dataset); ok {
			job.grantBytes = entry.Bytes
		}
		if err := ctrl.Admit(tenant, job.grantBytes); err != nil {
			undo()
			return nil, err
		}
		job.granted.Store(true)
	}
	if st := e.store.Load(); st != nil {
		if err := st.Append(job.SubmittedRecord()); err != nil {
			undo()
			e.storeErrs.Add(1)
			e.rejected.Add(1)
			return nil, fmt.Errorf("jobs: write-ahead submit: %w", err)
		}
	}
	if e.queue.Push(job) {
		e.submitted.Add(1)
		return job, nil
	}
	undo()
	e.rejected.Add(1)
	// Close out the already-written submitted record so recovery
	// does not resurrect a job the client was refused.
	e.logRecord(Record{Type: RecRejected, Job: job.id, Error: ErrQueueFull.Error()})
	return nil, ErrQueueFull
}

// release returns job's admission grant, if it holds one. The swap
// makes it exactly once whichever path ends the job.
func (e *Engine) release(job *Job) {
	if job.granted.Swap(false) {
		_, tenant := job.source()
		e.cfg.Admission.Release(tenant, job.grantBytes)
	}
}

// Admission returns the configured admission controller, or nil.
func (e *Engine) Admission() *admission.Controller { return e.cfg.Admission }

// Adopt re-homes a job from a record a dead peer logged and replicated.
// A submitted record re-runs the job under its ID and its own kind,
// without admission: the origin admitted it, and failover must not
// refuse accepted work. A done record is folded as recovery folds a log
// line and logged here when it serves something: an explore or
// significance outcome serves as it was first served, and an analysis's
// summary serves at once while Rehydrate re-mines the full result once
// the dataset is resident. Other records install nothing. Idempotent: an
// ID the engine already holds is left alone.
func (e *Engine) Adopt(rec Record) error {
	if rec.Job == "" {
		return fmt.Errorf("jobs: empty job id")
	}
	switch w := rec.work(); {
	case rec.Type == RecSubmitted && w != nil:
		_, err := e.submit(rec.Job, w, true, false)
		return err
	case rec.Type != RecDone:
		return nil
	}
	job := &Job{id: rec.Job, created: rec.Time, recovered: true}
	applyRecord(job, rec, nil)
	if job.summary == nil && job.out == nil {
		return nil
	}
	e.jobsMu.Lock()
	if _, ok := e.jobs[rec.Job]; ok {
		e.jobsMu.Unlock()
		return nil
	}
	e.jobs[rec.Job] = job
	e.jobsMu.Unlock()
	e.recovered.Add(1)
	e.logRecord(rec)
	return nil
}

// logRecord is the best-effort write-through: failures are counted, not
// propagated — a sick disk must not take down in-flight analyses whose
// results are still servable from memory.
func (e *Engine) logRecord(rec Record) {
	st := e.store.Load()
	if st == nil {
		return
	}
	if err := st.Append(rec); err != nil {
		e.storeErrs.Add(1)
	}
}

// Get returns the job with the given id.
func (e *Engine) Get(id string) (*Job, bool) {
	e.jobsMu.Lock()
	defer e.jobsMu.Unlock()
	j, ok := e.jobs[id]
	return j, ok
}

// Cancel requests cancellation of a job. A queued job is canceled
// immediately; a running job has its context canceled and reaches the
// canceled state once the miner observes it. Terminal jobs keep their
// state, but a recovered done job with a rehydration re-mine in flight
// has that re-mine aborted — a deleted job must not repopulate caches
// from beyond the grave. The returned status reflects the state after
// the request.
func (e *Engine) Cancel(id string) (Status, error) {
	job, ok := e.Get(id)
	if !ok {
		return Status{}, fmt.Errorf("%w: %s", ErrUnknownJob, id)
	}
	job.canceledByUser.Store(true)
	job.mu.Lock()
	canceledWhileQueued := false
	switch job.state {
	case StateQueued:
		job.state = StateCanceled
		job.finished = time.Now()
		e.canceled.Add(1)
		canceledWhileQueued = true
	case StateRunning:
		if job.cancel != nil {
			job.cancel()
		}
	default:
		if job.rehydrateCancel != nil {
			job.rehydrateCancel()
		}
	}
	job.mu.Unlock()
	if canceledWhileQueued {
		// A canceled-while-queued job never reaches run(), so its
		// terminal record is written here.
		e.finish(job, Record{Type: RecCanceled, Job: job.id, Time: job.finished, Error: "canceled while queued"})
	}
	return job.Snapshot(), nil
}

// SetOnTerminal installs (or replaces) the terminal-state hook: fn is
// called each time a job reaches a terminal state (done, failed,
// canceled), with the terminal record the engine logged, after that
// record is durably logged. The serving layer calls it after
// construction to replicate the record to the dataset's other owners.
func (e *Engine) SetOnTerminal(fn func(j *Job, rec Record)) {
	if fn == nil {
		e.onTerminal.Store(nil)
		return
	}
	e.onTerminal.Store(&fn)
}

// finish logs a job's terminal record, releases its admission grant and
// hands the record to the OnTerminal hook, if configured.
func (e *Engine) finish(job *Job, rec Record) {
	e.logRecord(rec)
	e.release(job)
	if fn := e.onTerminal.Load(); fn != nil {
		(*fn)(job, rec)
	}
}

// run executes one dequeued job through the full lifecycle.
func (e *Engine) run(job *Job) {
	job.mu.Lock()
	if job.state != StateQueued { // canceled while queued
		job.mu.Unlock()
		// Cancel's finish released the grant, unless it ran before submit
		// charged one.
		e.release(job)
		return
	}
	var ctx context.Context
	var cancel context.CancelFunc
	if timeout := e.cfg.DefaultTimeout; timeout > 0 {
		ctx, cancel = context.WithTimeout(e.baseCtx, timeout)
	} else {
		ctx, cancel = context.WithCancel(e.baseCtx)
	}
	job.state = StateRunning
	job.started = time.Now()
	job.cancel = cancel
	job.mu.Unlock()
	defer cancel()

	e.busy.Add(1)
	defer e.busy.Add(-1)

	e.logRecord(Record{Type: RecRunning, Job: job.id, Time: job.started})
	tr := &Tracker{
		job:   job,
		every: e.cfg.SnapshotEvery,
		persist: func(snap *Snapshot) {
			e.logRecord(Record{Type: RecSnapshot, Job: job.id, Snapshot: snap})
		},
	}

	out, cacheHit, err := job.work.run(ctx, e, tr)

	// The done record carries the work and what serves it after a restart
	// (Work.record): an analysis's summary, its work the re-mine recipe,
	// or an explore or significance outcome itself. Build it outside the
	// job lock: an analysis summary ranks the whole lattice, and status
	// polls must not stall behind it.
	var rec Record
	if err == nil {
		rec = job.work.record(out)
	}

	job.mu.Lock()
	job.finished = time.Now()
	job.cancel = nil
	switch {
	case err == nil:
		job.state = StateDone
		job.out = out
		job.summary = rec.Result
		job.cacheHit = cacheHit
		e.completed.Add(1)
		rec.Type, rec.Job, rec.Time, rec.CacheHit = RecDone, job.id, job.finished, cacheHit
	case errors.Is(err, context.Canceled) || (job.canceledByUser.Load() && ctx.Err() != nil):
		job.state = StateCanceled
		job.err = err
		e.canceled.Add(1)
		rec = Record{Type: RecCanceled, Job: job.id, Time: job.finished, Error: err.Error()}
	default:
		// Deadline expiry and analysis errors are failures, not
		// user-requested cancellations.
		job.state = StateFailed
		job.err = err
		e.failed.Add(1)
		rec = Record{Type: RecFailed, Job: job.id, Time: job.finished, Error: err.Error()}
	}
	job.mu.Unlock()
	e.finish(job, rec)
}

// Analyze runs a spec synchronously through the same result cache the
// worker pool uses — the /analyze fast path. It does not consume a
// worker slot or a queue position.
func (e *Engine) Analyze(ctx context.Context, spec Spec) (*core.Result, error) {
	res, _, err := e.analyzeCached(ctx, spec, nil)
	return res, err
}

// analyzeCached consults the result cache, mining on a miss.
func (e *Engine) analyzeCached(ctx context.Context, spec Spec, tr *Tracker) (*core.Result, bool, error) {
	key := spec.CacheKey()
	if res, ok := e.cache.get(key); ok {
		return res, true, nil
	}
	entry, ok := e.reg.Get(spec.Dataset)
	if !ok {
		// Both sentinels apply: a submit referencing an unknown hash is bad
		// input (HTTP 400), while the rehydration path matches on
		// ErrDatasetGone to fall back to the durable summary.
		return nil, false, fmt.Errorf("%w: %w: %s", ErrBadInput, ErrDatasetGone, spec.Dataset)
	}
	res, err := e.analyze(ctx, entry.Data, spec, tr)
	if err != nil {
		return nil, false, err
	}
	return e.cache.put(key, res), false, nil
}

// Shutdown drains the engine: no new submissions are accepted, queued
// jobs are still executed, and the call returns once every worker has
// exited. If ctx expires first, in-flight jobs are canceled and awaited;
// the context error is returned. Shutdown is idempotent.
func (e *Engine) Shutdown(ctx context.Context) error {
	e.mu.Lock()
	alreadyDraining := e.draining
	if !alreadyDraining {
		e.draining = true
		e.queue.Close()
	}
	e.mu.Unlock()

	drained := make(chan struct{})
	go func() {
		e.wg.Wait()
		close(drained)
	}()
	select {
	case <-drained:
		e.baseCancel()
		return e.closeStore()
	case <-ctx.Done():
		e.baseCancel() // abort in-flight jobs, then wait for workers
		<-drained
		_ = e.closeStore() // the deadline error takes precedence
		return fmt.Errorf("jobs: shutdown deadline: %w", ctx.Err())
	}
}

// closeStore detaches and closes the store, if any. Called after the
// drain so every worker's terminal record has been appended.
func (e *Engine) closeStore() error {
	st := e.store.Swap(nil)
	if st == nil {
		return nil
	}
	return st.Close()
}

// Stats returns a snapshot of the engine counters.
func (e *Engine) Stats() Stats {
	return Stats{
		Workers:      e.workers,
		Busy:         int(e.busy.Load()),
		QueueLen:     e.queue.Len(),
		QueueCap:     e.queue.Cap(),
		Submitted:    e.submitted.Load(),
		Completed:    e.completed.Load(),
		Failed:       e.failed.Load(),
		Canceled:     e.canceled.Load(),
		Rejected:     e.rejected.Load(),
		Durable:      e.store.Load() != nil,
		Recovered:    e.recovered.Load(),
		Rehydrated:   e.rehydrated.Load(),
		StoreErrors:  e.storeErrs.Load(),
		ResultCache:  e.cache.stats(),
		Explore:      e.ExploreStatsSnapshot(),
		Significance: e.SignificanceStatsSnapshot(),
	}
}
