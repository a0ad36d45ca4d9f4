package registry

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faultfs"
	"repro/internal/lru"
)

// SpillExt is the filename extension of spilled datasets. A spill file
// holds exactly the canonicalized CSV bytes of one dataset, stored
// under its content address: the path is the checksum, so verification
// on read is re-hashing the contents and comparing against the name.
const SpillExt = ".spill"

// QuarantineDir is the subdirectory (inside the spill directory) that
// corrupt spill files are moved into. A quarantined file keeps its
// content-address name so operators can inspect what rotted, and so
// DELETE /datasets/{hash} can purge it.
const QuarantineDir = "quarantine"

// ErrCorrupt marks a spill file whose contents no longer hash to its
// content address. The file has been quarantined; callers treat the
// dataset as absent from the disk tier.
var ErrCorrupt = errors.New("registry: spill file corrupt (checksum mismatch)")

// spillRetries / spillBackoff bound the retry-with-backoff loop around
// each spill write: transient errors (EINTR, EAGAIN, ETIMEDOUT) are
// retried a few times, permanent ones (ENOSPC, EIO) fail fast.
const (
	spillRetries = 3
	spillBackoff = 2 * time.Millisecond
)

// SpillFileName returns the on-disk file name (not path) for a spilled
// dataset.
func SpillFileName(h Hash) string { return string(h) + SpillExt }

// SpillStats is the /statsz slice of the disk tier, the middle rung of
// the degradation ladder (memory hit → disk hit → durable summary →
// gone).
type SpillStats struct {
	Files  int   `json:"files"`
	Bytes  int64 `json:"bytes"`
	Budget int64 `json:"budget_bytes"`
	// Writes counts datasets spilled on eviction; WriteErrors counts
	// spill attempts that failed (the dataset stayed in memory).
	Writes      int64 `json:"writes"`
	WriteErrors int64 `json:"write_errors"`
	// Loads counts disk fall-through hits (a registry Get served by
	// re-parsing a spill file); LoadErrors counts unreadable files.
	Loads      int64 `json:"loads"`
	LoadErrors int64 `json:"load_errors"`
	// Quarantined counts checksum mismatches: the file was moved to the
	// quarantine directory instead of being served.
	Quarantined int64 `json:"quarantined"`
	// Evictions counts spill files removed by the disk byte budget.
	Evictions int64 `json:"evictions"`
}

// Spill is the disk tier beneath the in-memory registry: a directory of
// canonicalized CSV files named by content address, with its own byte
// budget and LRU eviction. Writes are crash-safe (temp file + fsync +
// rename), reads are verified (re-hash and compare against the name;
// mismatches are quarantined, never served). All file I/O goes through
// a faultfs.FS so the failure behavior is testable.
//
// All methods are safe for concurrent use.
type Spill struct {
	dir string
	fs  faultfs.FS

	// index holds the resident spill files, each charged its size
	// against the disk budget (<= 0 means unlimited); front = most
	// recently written or loaded. mu makes publishing a file (its
	// rename), its index update and the file removals its budget trim
	// triggers one step.
	mu    sync.Mutex
	index *lru.Cache[Hash, struct{}]

	writes      atomic.Int64
	writeErrors atomic.Int64
	loads       atomic.Int64
	loadErrors  atomic.Int64
	quarantined atomic.Int64
	tmpSeq      atomic.Int64
}

// OpenSpill opens (creating if needed) the spill tier rooted at dir,
// bounded by budgetBytes (<= 0 for unlimited), with all file I/O routed
// through fsys (faultfs.OS() in production). Spill files already in the
// directory — survivors of a previous process — are indexed by
// modification time, oldest first, so the disk LRU resumes where it
// left off.
func OpenSpill(dir string, budgetBytes int64, fsys faultfs.FS) (*Spill, error) {
	if fsys == nil {
		fsys = faultfs.OS()
	}
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("registry: creating spill dir: %w", err)
	}
	if err := fsys.MkdirAll(filepath.Join(dir, QuarantineDir), 0o755); err != nil {
		return nil, fmt.Errorf("registry: creating quarantine dir: %w", err)
	}
	s := &Spill{dir: dir, fs: fsys, index: lru.New[Hash, struct{}](budgetBytes)}
	if err := s.scan(); err != nil {
		return nil, err
	}
	return s, nil
}

// scan rebuilds the index from the directory contents at open.
func (s *Spill) scan() error {
	ents, err := s.fs.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("registry: scanning spill dir: %w", err)
	}
	type aged struct {
		h    Hash
		size int64
		mod  time.Time
	}
	var found []aged
	for _, ent := range ents {
		name := ent.Name()
		if ent.IsDir() || !strings.HasSuffix(name, SpillExt) {
			// Leftover temp files from a crash mid-spill are garbage by
			// construction (the rename never happened); sweep them.
			if strings.HasPrefix(name, ".tmp-") {
				_ = s.fs.Remove(filepath.Join(s.dir, name)) // best-effort cleanup
			}
			continue
		}
		info, err := ent.Info()
		if err != nil {
			continue // raced with a concurrent delete; skip
		}
		found = append(found, aged{
			h:    Hash(strings.TrimSuffix(name, SpillExt)),
			size: info.Size(),
			mod:  info.ModTime(),
		})
	}
	sort.Slice(found, func(i, j int) bool { return found[i].mod.Before(found[j].mod) })
	for _, f := range found {
		// Oldest first: each Add leaves the newest at the front.
		s.index.Add(f.h, struct{}{}, f.size)
	}
	return nil
}

// Dir returns the spill directory.
func (s *Spill) Dir() string { return s.dir }

// path returns the final on-disk path for h.
func (s *Spill) path(h Hash) string { return filepath.Join(s.dir, SpillFileName(h)) }

// store writes the canonicalized CSV bytes of h crash-safely: a unique
// temp file is written and fsynced, then renamed over the final
// content-addressed name, so a reader never observes a partial spill
// file. Transient write errors are retried with backoff (a fresh temp
// file per attempt keeps the sequence idempotent); permanent errors
// clean up the temp file and fail loudly. A failed store leaves the
// disk tier exactly as it was.
func (s *Spill) store(h Hash, raw []byte) error {
	err := faultfs.Retry(spillRetries, spillBackoff, func() error {
		return s.writeOnce(h, raw)
	})
	if err != nil {
		s.writeErrors.Add(1)
		return err
	}
	s.writes.Add(1)
	return nil
}

// writeOnce is one attempt of the temp + fsync + rename protocol. The
// temp write and fsync run unlocked; publishing the file and indexing it
// are one step under s.mu. Otherwise another hash's budget trim could
// run in between, pick this hash's older index entry as its victim and
// delete the file just renamed into place, leaving the index listing a
// file that is gone.
func (s *Spill) writeOnce(h Hash, raw []byte) error {
	tmp := filepath.Join(s.dir, fmt.Sprintf(".tmp-%s-%d", h, s.tmpSeq.Add(1)))
	f, err := s.fs.OpenFile(tmp, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("registry: creating spill temp file: %w", err)
	}
	cleanup := func() { _ = s.fs.Remove(tmp) } // best-effort: scan sweeps stragglers
	if _, err := f.Write(raw); err != nil {
		_ = f.Close() // the write error is the one worth reporting
		cleanup()
		return fmt.Errorf("registry: writing spill file: %w", err)
	}
	if err := f.Sync(); err != nil {
		_ = f.Close() // the sync error is the one worth reporting
		cleanup()
		return fmt.Errorf("registry: syncing spill file: %w", err)
	}
	if err := f.Close(); err != nil {
		cleanup()
		return fmt.Errorf("registry: closing spill file: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.fs.Rename(tmp, s.path(h)); err != nil {
		cleanup()
		return fmt.Errorf("registry: publishing spill file: %w", err)
	}
	// A re-spill of a resident hash (same content) only refreshes its
	// recency. The disk budget then evicts the oldest files, sparing
	// this one (mirroring the memory tier's carve-out: one dataset
	// larger than the whole disk budget still spills).
	s.index.Add(h, struct{}{}, int64(len(raw)))
	for _, old := range s.index.Trim(h) {
		_ = s.fs.Remove(s.path(old)) // best-effort: scan reconciles at next open
	}
	return nil
}

// load reads the spilled bytes for h, verifying the checksum: the
// contents must hash back to h. On mismatch the file is quarantined and
// ErrCorrupt is returned — corrupt data is reported, never served. A
// missing file is a plain miss (fs.ErrNotExist).
func (s *Spill) load(h Hash) ([]byte, error) {
	raw, err := s.fs.ReadFile(s.path(h))
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, err
		}
		s.loadErrors.Add(1)
		return nil, fmt.Errorf("registry: reading spill file: %w", err)
	}
	if hashCanonical(raw) != h {
		s.quarantine(h)
		return nil, fmt.Errorf("%w: %s", ErrCorrupt, h)
	}
	s.index.Get(h) // refresh recency
	s.loads.Add(1)
	return raw, nil
}

// quarantine moves a corrupt spill file out of serving position. The
// move keeps the content-address name so the evidence is inspectable
// and deletable; if even the move fails the file is removed outright —
// a corrupt file must never be served again.
func (s *Spill) quarantine(h Hash) {
	s.quarantined.Add(1)
	if err := s.fs.Rename(s.path(h), filepath.Join(s.dir, QuarantineDir, SpillFileName(h))); err != nil {
		_ = s.fs.Remove(s.path(h)) // last resort: drop it
	}
	s.index.Remove(h)
}

// remove deletes the spill file and any quarantined copy of h,
// reporting whether either existed — the disk half of a total
// DELETE /datasets/{hash}.
func (s *Spill) remove(h Hash) bool {
	existed := s.index.Remove(h)
	if err := s.fs.Remove(s.path(h)); err == nil {
		existed = true
	}
	if err := s.fs.Remove(filepath.Join(s.dir, QuarantineDir, SpillFileName(h))); err == nil {
		existed = true
	}
	return existed
}

// Stats snapshots the disk-tier counters.
func (s *Spill) Stats() SpillStats {
	ix := s.index.Stats()
	return SpillStats{
		Files:       ix.Entries,
		Bytes:       ix.Cost,
		Budget:      ix.Budget,
		Writes:      s.writes.Load(),
		WriteErrors: s.writeErrors.Load(),
		Loads:       s.loads.Load(),
		LoadErrors:  s.loadErrors.Load(),
		Quarantined: s.quarantined.Load(),
		Evictions:   ix.Evictions,
	}
}
