package jobs

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/faultfs"
)

// Record types, in lifecycle order. Every transition the engine makes is
// written through to the store as one JSON line, so replaying the log
// reconstructs the externally visible history of every job.
const (
	// RecSubmitted opens a job's history and carries its work.
	RecSubmitted = "submitted"
	// RecRejected closes the history of a submission that never ran
	// (queue full while the submitted record was already written).
	// Replay drops the job entirely: the client was told no.
	RecRejected = "rejected"
	// RecRunning marks the hand-off to a worker.
	RecRunning = "running"
	// RecSnapshot carries a partial-result snapshot of a running mine.
	RecSnapshot = "snapshot"
	// RecDone closes a successful job and carries its work and what
	// serves it after a restart: a summary or an outcome.
	RecDone = "done"
	// RecFailed and RecCanceled close unsuccessful jobs.
	RecFailed   = "failed"
	RecCanceled = "canceled"
)

// Monitor record types. The streaming-monitor subsystem shares the job
// WAL for spec durability: a created record carries the validated spec
// (in Record.Monitor, with the monitor id in Record.Job), a deleted
// record retires it. Both are fsynced before the client is acknowledged.
// Job replay (Engine.RecoverFS) skips them; monitor.Manager.Recover
// folds them.
const (
	RecMonitorCreated = "monitor_created"
	RecMonitorDeleted = "monitor_deleted"
)

// storeVersion is the record format version written by this build.
//
//   - v1 (the original format): done records carried only the durable
//     ResultSummary, so recovery could never serve more than a digest.
//   - v2: done records of analysis jobs also carry the job's Spec — the
//     dataset content hash plus every mining parameter — making each
//     one a self-contained recipe for re-mining the full result after a
//     restart (Engine.Rehydrate). v1 logs replay unchanged: their done
//     records have no spec, so those jobs fold to summary-only exactly
//     as before, and unknown future record types are skipped.
//   - v3: every kind's submitted and done records carry its own spec:
//     Spec for an analysis (whose records are v2's), Explore or
//     Significance for the other kinds, whose done records also carry
//     the outcome (ExploreOutcome, SignificanceOutcome) that then serves
//     after a restart. v2 logged those two kinds under an
//     analysis-shaped Spec with no summary; they replay as before.
const storeVersion = 3

// Record is one write-ahead log entry. A submitted record and a done
// record carry the job's work under its kind — Spec, Explore or
// Significance — and a done record adds what serves it after a restart:
// an analysis's Result summary, or the outcome of the other kinds. A
// snapshot record carries Snapshot. Peers replicate and adopt
// (Engine.Adopt) a job's submitted and terminal records unchanged.
type Record struct {
	V                   int                  `json:"v"`
	Type                string               `json:"type"`
	Job                 string               `json:"job"`
	Time                time.Time            `json:"time"`
	Spec                *Spec                `json:"spec,omitempty"`
	Explore             *ExploreSpec         `json:"explore,omitempty"`
	Significance        *SignificanceSpec    `json:"significance,omitempty"`
	Snapshot            *Snapshot            `json:"snapshot,omitempty"`
	Result              *ResultSummary       `json:"result,omitempty"`
	ExploreOutcome      *ExploreOutcome      `json:"explore_outcome,omitempty"`
	SignificanceOutcome *SignificanceOutcome `json:"significance_outcome,omitempty"`
	Error               string               `json:"error,omitempty"`
	CacheHit            bool                 `json:"cache_hit,omitempty"`
	// Monitor carries the validated monitor spec on monitor_created
	// records (opaque to this package; owned by internal/monitor).
	Monitor json.RawMessage `json:"monitor,omitempty"`
}

// work returns the work the record carries, of whichever kind, or nil.
func (r Record) work() Work {
	switch {
	case r.Explore != nil:
		return *r.Explore
	case r.Significance != nil:
		return *r.Significance
	case r.Spec != nil:
		return *r.Spec
	}
	return nil
}

// MonitorRecord reports whether the record belongs to the monitor
// subsystem rather than the job lifecycle.
func (r Record) MonitorRecord() bool {
	return r.Type == RecMonitorCreated || r.Type == RecMonitorDeleted
}

// terminal reports whether the record closes a job's history. Terminal
// records (and submitted ones — the durability ack) are fsynced.
func (r Record) terminal() bool {
	switch r.Type {
	case RecDone, RecFailed, RecCanceled, RecRejected:
		return true
	}
	return false
}

// WALName is the log file name inside a store directory.
const WALName = "jobs.wal"

// Store is a write-ahead, file-backed job store: an append-only file of
// JSON-line records under a directory. Opening the store replays the
// existing log (repairing a torn final line left by a crash mid-write)
// and positions the file for appends. All file I/O goes through a
// faultfs.FS, so the failure paths — a torn append rolled back by
// truncate, a wedged store after a failed rollback — are exercised by
// injected faults, not just reasoned about. All methods are safe for
// concurrent use.
type Store struct {
	mu       sync.Mutex
	f        faultfs.File
	path     string
	replayed []Record
	repaired int64 // bytes dropped from a torn tail at open
	off      int64 // end of the last durably-consistent record
	appends  int64
	rollbks  int64 // torn appends rolled back in place
	closed   bool
	wedged   bool
}

// storeRetries / storeBackoff bound the retry-with-backoff loop around
// each append: transient errors (EINTR, EAGAIN, ETIMEDOUT) are retried
// after rolling the torn bytes back, permanent ones (ENOSPC, EIO) fail
// fast to the caller — which refuses the ack.
const (
	storeRetries = 3
	storeBackoff = 2 * time.Millisecond
)

// OpenStore opens (creating if needed) the job store rooted at dir on
// the real filesystem. See OpenStoreFS.
func OpenStore(dir string) (*Store, error) { return OpenStoreFS(dir, nil) }

// OpenStoreFS opens (creating if needed) the job store rooted at dir,
// with all file I/O routed through fsys (the real filesystem when nil).
// The existing log is read and validated: a final line that does not
// parse — the signature of a crash mid-append — is truncated away, while
// garbage anywhere else fails the open, because silently skipping
// interior records would un-happen acknowledged jobs.
func OpenStoreFS(dir string, fsys faultfs.FS) (*Store, error) {
	if fsys == nil {
		fsys = faultfs.OS()
	}
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("jobs: creating store dir: %w", err)
	}
	path := filepath.Join(dir, WALName)
	raw, err := fsys.ReadFile(path)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("jobs: reading store log: %w", err)
	}
	records, validLen, err := scanLog(raw)
	if err != nil {
		return nil, fmt.Errorf("jobs: store log %s: %w", path, err)
	}
	f, err := fsys.OpenFile(path, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("jobs: opening store log: %w", err)
	}
	if validLen < int64(len(raw)) {
		if err := f.Truncate(validLen); err != nil {
			_ = f.Close() // the truncate error is the one worth reporting
			return nil, fmt.Errorf("jobs: repairing torn store log: %w", err)
		}
	}
	if _, err := f.Seek(validLen, 0); err != nil {
		_ = f.Close() // the seek error is the one worth reporting
		return nil, fmt.Errorf("jobs: seeking store log: %w", err)
	}
	return &Store{
		f:        f,
		path:     path,
		replayed: records,
		repaired: int64(len(raw)) - validLen,
		off:      validLen,
	}, nil
}

// scanLog parses the raw log bytes into records and returns the length
// of the valid prefix. A trailing line that fails to parse (torn write)
// is excluded from the valid prefix, and so is a final line with no
// terminating newline even when it parses: the newline is part of the
// same write as the record and the ack-gating fsync comes after it, so
// an unterminated record was never acknowledged — while accepting it
// would leave the valid prefix ending mid-line, and the next append
// would glue its record onto that line, which a later open could only
// read as interior corruption (or repair by truncating an acknowledged
// record). A malformed interior line is an error. One CR before a
// newline belongs to its line, as in bufio.ScanLines, and the valid
// prefix counts it.
func scanLog(raw []byte) ([]Record, int64, error) {
	var records []Record
	var valid int64
	for line := 1; valid < int64(len(raw)); line++ {
		end := bytes.IndexByte(raw[valid:], '\n')
		if end < 0 {
			// Unterminated final line: torn by definition, parseable or not.
			return records, valid, nil
		}
		b := bytes.TrimSuffix(raw[valid:valid+int64(end)], []byte{'\r'})
		consumed := valid + int64(end) + 1 // the line, any CR included, and its newline
		if len(b) == 0 {
			valid = consumed
			continue
		}
		var rec Record
		if err := json.Unmarshal(b, &rec); err != nil || rec.Type == "" || rec.Job == "" {
			// Only a torn tail is repairable: an unparseable line is
			// tolerated (and truncated away) only as the very last one.
			if consumed == int64(len(raw)) {
				return records, valid, nil
			}
			return nil, 0, fmt.Errorf("corrupt record at line %d", line)
		}
		records = append(records, rec)
		valid = consumed
	}
	return records, valid, nil
}

// Replay returns the records read when the store was opened, in log
// order. The caller must not modify the returned slice.
func (s *Store) Replay() []Record { return s.replayed }

// Repaired returns the number of torn-tail bytes dropped at open (zero
// for a cleanly closed log).
func (s *Store) Repaired() int64 { return s.repaired }

// Path returns the log file path.
func (s *Store) Path() string { return s.path }

// ErrStoreWedged marks a store whose rollback of a torn append failed:
// the log tail is in an unknown state, so every further append is
// refused rather than risk writing interior garbage after it. A restart
// recovers — the open-time scan repairs the torn tail.
var ErrStoreWedged = errors.New("jobs: store wedged by a failed append rollback (restart repairs the log)")

// Append writes one record to the log. Submitted and terminal records
// are fsynced before Append returns — the write-ahead contract: no job
// the client was told about can vanish in a crash.
//
// Failure discipline: a failed or short write is rolled back in place
// (truncate + seek to the last consistent offset) so the log never
// accumulates interior garbage — which the next open would rightly
// refuse to skip. Transient errors are then retried with backoff;
// permanent ones propagate, and the caller withholds the ack. If the
// rollback itself fails the store wedges (ErrStoreWedged): it stops
// accepting appends entirely, because the only safe repair for an
// unknown tail is the open-time torn-tail scan of the next process.
func (s *Store) Append(rec Record) error {
	if rec.V == 0 {
		rec.V = storeVersion
	}
	if rec.Time.IsZero() {
		rec.Time = time.Now()
	}
	b, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("jobs: encoding store record: %w", err)
	}
	b = append(b, '\n')
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("jobs: store is closed")
	}
	if s.wedged {
		return ErrStoreWedged
	}
	err = faultfs.Retry(storeRetries, storeBackoff, func() error {
		if _, werr := s.f.Write(b); werr != nil {
			if rerr := s.rollbackLocked(); rerr != nil {
				return rerr // permanent by construction: ends the retry loop
			}
			return werr
		}
		return nil
	})
	if err != nil {
		if s.wedged {
			return err
		}
		return fmt.Errorf("jobs: appending store record: %w", err)
	}
	durable := rec.terminal() || rec.Type == RecSubmitted || rec.MonitorRecord()
	if durable {
		if err := faultfs.Retry(storeRetries, storeBackoff, func() error { return s.f.Sync() }); err != nil {
			// The bytes reached the file but not stable storage, so the
			// ack cannot be given. Roll the record back out: a record that
			// was never acknowledged must not reappear after a restart as
			// if it had been.
			if rerr := s.rollbackLocked(); rerr != nil {
				return rerr
			}
			return fmt.Errorf("jobs: syncing store log: %w", err)
		}
	}
	s.off += int64(len(b))
	s.appends++
	return nil
}

// rollbackLocked restores the log to the last consistent append offset
// after a torn write, wedging the store if the repair fails. Caller
// holds s.mu.
func (s *Store) rollbackLocked() error {
	if terr := s.f.Truncate(s.off); terr != nil {
		s.wedged = true
		return fmt.Errorf("%w: truncate to offset %d: %v", ErrStoreWedged, s.off, terr)
	}
	if _, serr := s.f.Seek(s.off, 0); serr != nil {
		s.wedged = true
		return fmt.Errorf("%w: seek to offset %d: %v", ErrStoreWedged, s.off, serr)
	}
	s.rollbks++
	return nil
}

// Wedged reports whether a failed rollback has wedged the store.
func (s *Store) Wedged() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.wedged
}

// Rollbacks returns the number of torn appends rolled back in place.
func (s *Store) Rollbacks() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rollbks
}

// Appends returns the number of records appended since open.
func (s *Store) Appends() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.appends
}

// Close syncs and closes the log file. Further appends fail.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if err := s.f.Sync(); err != nil {
		_ = s.f.Close() // the sync error is the one worth reporting
		return fmt.Errorf("jobs: syncing store log: %w", err)
	}
	if err := s.f.Close(); err != nil {
		return fmt.Errorf("jobs: closing store log: %w", err)
	}
	return nil
}
