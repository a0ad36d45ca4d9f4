package registry

import (
	"bytes"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/faultfs"
)

// spilledRegistry builds a small registry with a spill tier in a
// temp dir, tight enough that registering several datasets forces
// evictions through the disk tier.
func spilledRegistry(t *testing.T, memBudget, diskBudget int64, fsys faultfs.FS) (*Registry, *Spill) {
	t.Helper()
	sp, err := OpenSpill(t.TempDir(), diskBudget, fsys)
	if err != nil {
		t.Fatal(err)
	}
	r := New(memBudget)
	r.AttachSpill(sp, dataset.CSVOptions{})
	return r, sp
}

// spillFiles lists the content addresses with a spill file on disk.
func spillFiles(t *testing.T, dir string) []Hash {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []Hash
	for _, ent := range ents {
		if strings.HasSuffix(ent.Name(), SpillExt) {
			out = append(out, Hash(strings.TrimSuffix(ent.Name(), SpillExt)))
		}
	}
	return out
}

// TestSpillOnEvictServesEveryDataset is the headline ladder property:
// with a spill tier attached, a byte-budget eviction is not data loss —
// every registered dataset remains retrievable, the evicted ones via a
// verified disk load that promotes them back into memory.
func TestSpillOnEvictServesEveryDataset(t *testing.T) {
	r, sp := spilledRegistry(t, 1024, 0, nil)
	const n = 12
	var hashes []Hash
	for i := 0; i < n; i++ {
		e, _, err := r.Register(uniqueCSV(i), dataset.CSVOptions{})
		if err != nil {
			t.Fatal(err)
		}
		hashes = append(hashes, e.Hash)
	}
	st := r.Stats()
	if st.Evictions == 0 {
		t.Fatal("budget produced no evictions; test needs a tighter budget")
	}
	if st.Spill == nil || st.Spill.Writes == 0 {
		t.Fatalf("evictions spilled nothing: %+v", st.Spill)
	}
	if got := spillFiles(t, sp.Dir()); len(got) == 0 {
		t.Fatal("no spill files on disk after evictions")
	}
	for i, h := range hashes {
		e, ok := r.Get(h)
		if !ok {
			t.Fatalf("dataset %d (%s) lost after eviction", i, h)
		}
		if e.Hash != h || e.Data.NumRows() != 1 {
			t.Fatalf("dataset %d came back wrong: hash=%s rows=%d", i, e.Hash, e.Data.NumRows())
		}
	}
	st = r.Stats()
	if st.Spill.Loads == 0 {
		t.Error("retrieval loop never fell through to disk")
	}
	// The counter invariant survives the extra tier: every Get and
	// Register charged exactly one of hits/misses.
	lookups := int64(2 * n) // n Registers + n Gets
	if st.Hits+st.Misses != lookups {
		t.Errorf("hits(%d) + misses(%d) = %d, want %d lookups",
			st.Hits, st.Misses, st.Hits+st.Misses, lookups)
	}
}

// TestSpillSurvivesRestart: a fresh registry over the same spill dir
// serves datasets spilled by the previous one — the disk tier is the
// crash-durable rung of the ladder.
func TestSpillSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	sp, err := OpenSpill(dir, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	r := New(512)
	r.AttachSpill(sp, dataset.CSVOptions{})
	var hashes []Hash
	for i := 0; i < 8; i++ {
		e, _, err := r.Register(uniqueCSV(i), dataset.CSVOptions{})
		if err != nil {
			t.Fatal(err)
		}
		hashes = append(hashes, e.Hash)
	}
	if len(spillFiles(t, dir)) == 0 {
		t.Fatal("nothing spilled before the restart")
	}

	// "Restart": new registry, new spill index over the same directory.
	sp2, err := OpenSpill(dir, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	r2 := New(0)
	r2.AttachSpill(sp2, dataset.CSVOptions{})
	served := 0
	for _, h := range hashes {
		if e, ok := r2.Get(h); ok {
			if e.Hash != h {
				t.Fatalf("restart served wrong dataset for %s", h)
			}
			served++
		}
	}
	if want := len(spillFiles(t, dir)); served < want {
		t.Errorf("restart served %d datasets, want at least the %d on disk", served, want)
	}
}

// TestSpillChecksumMismatchQuarantines: a spill file whose bytes no
// longer hash to its name is never served — the Get misses, the file
// moves to quarantine/, and the counter records it.
func TestSpillChecksumMismatchQuarantines(t *testing.T) {
	r, sp := spilledRegistry(t, 512, 0, nil)
	for i := 0; i < 8; i++ {
		if _, _, err := r.Register(uniqueCSV(i), dataset.CSVOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	onDisk := spillFiles(t, sp.Dir())
	if len(onDisk) == 0 {
		t.Fatal("nothing spilled")
	}
	victim := onDisk[0]
	if err := os.WriteFile(sp.path(victim), []byte("rotten,bits\nx,1\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	if _, ok := r.Get(victim); ok {
		t.Fatal("corrupt spill file was served")
	}
	if st := sp.Stats(); st.Quarantined != 1 {
		t.Errorf("quarantined = %d, want 1", st.Quarantined)
	}
	qpath := filepath.Join(sp.Dir(), QuarantineDir, SpillFileName(victim))
	if _, err := os.Stat(qpath); err != nil {
		t.Errorf("corrupt file not in quarantine: %v", err)
	}
	if _, err := os.Stat(sp.path(victim)); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("corrupt file still in serving position: %v", err)
	}
	// The hash is gone from every serving tier; a second Get is a plain
	// miss, not a second quarantine.
	if _, ok := r.Get(victim); ok {
		t.Fatal("quarantined dataset re-served")
	}
	if st := sp.Stats(); st.Quarantined != 1 {
		t.Errorf("second miss re-quarantined: %d", st.Quarantined)
	}
}

// TestSpillENOSPCKeepsServingFromMemory is the chaos arm the ladder's
// "no tier transition loses data" claim rests on: when every spill
// write fails with ENOSPC, eviction is refused, the registry runs over
// budget, and all datasets keep being served from memory.
func TestSpillENOSPCKeepsServingFromMemory(t *testing.T) {
	inj := faultfs.NewInjector(faultfs.OS(), 1)
	inj.Inject(faultfs.Fault{Op: faultfs.OpWrite, Path: ".tmp-", Times: -1, Err: syscall.ENOSPC})
	r, sp := spilledRegistry(t, 512, 0, inj)
	var hashes []Hash
	for i := 0; i < 8; i++ {
		e, _, err := r.Register(uniqueCSV(i), dataset.CSVOptions{})
		if err != nil {
			t.Fatal(err)
		}
		hashes = append(hashes, e.Hash)
	}
	st := r.Stats()
	if st.Spill.WriteErrors == 0 {
		t.Fatal("no spill attempt hit the injected ENOSPC; budget too loose")
	}
	if st.Spill.Writes != 0 {
		t.Errorf("writes = %d under permanent ENOSPC, want 0", st.Spill.Writes)
	}
	if st.Evictions != 0 {
		t.Errorf("evictions = %d, want 0 — an unspillable victim must stay resident", st.Evictions)
	}
	if st.Bytes <= 512 {
		t.Errorf("bytes = %d, expected over-budget residency to be visible", st.Bytes)
	}
	if files := spillFiles(t, sp.Dir()); len(files) != 0 {
		t.Errorf("spill files appeared despite ENOSPC: %v", files)
	}
	for i, h := range hashes {
		if _, ok := r.Get(h); !ok {
			t.Fatalf("dataset %d lost during ENOSPC — eviction dropped the only copy", i)
		}
	}
}

// TestSpillTransientWriteRetries: EINTR during the spill write is
// retried with a fresh temp file and the spill ultimately lands.
func TestSpillTransientWriteRetries(t *testing.T) {
	inj := faultfs.NewInjector(faultfs.OS(), 1)
	inj.Inject(faultfs.Fault{Op: faultfs.OpWrite, Path: ".tmp-", Times: 2, Err: syscall.EINTR})
	r, sp := spilledRegistry(t, 512, 0, inj)
	for i := 0; i < 8; i++ {
		if _, _, err := r.Register(uniqueCSV(i), dataset.CSVOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	st := sp.Stats()
	if st.Writes == 0 {
		t.Fatal("no spill completed despite transient-only faults")
	}
	if st.WriteErrors != 0 {
		t.Errorf("write_errors = %d, want 0 — EINTR must be absorbed by retry", st.WriteErrors)
	}
	// No torn temp files left behind by the failed attempts.
	ents, err := os.ReadDir(sp.Dir())
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range ents {
		if strings.HasPrefix(ent.Name(), ".tmp-") {
			t.Errorf("stale temp file %s after retried spill", ent.Name())
		}
	}
}

// TestRemoveIsTotal: Remove purges memory, the spill file, and any
// quarantined copy; nothing can re-materialize the dataset afterwards.
func TestRemoveIsTotal(t *testing.T) {
	r, sp := spilledRegistry(t, 512, 0, nil)
	var hashes []Hash
	for i := 0; i < 8; i++ {
		e, _, err := r.Register(uniqueCSV(i), dataset.CSVOptions{})
		if err != nil {
			t.Fatal(err)
		}
		hashes = append(hashes, e.Hash)
	}
	if len(spillFiles(t, sp.Dir())) == 0 {
		t.Fatal("nothing spilled")
	}
	for _, h := range hashes {
		if !r.Remove(h) {
			t.Errorf("Remove(%s) = false for a registered dataset", h)
		}
	}
	if got := spillFiles(t, sp.Dir()); len(got) != 0 {
		t.Fatalf("spill files survive Remove: %v", got)
	}
	for _, h := range hashes {
		if _, ok := r.Get(h); ok {
			t.Fatalf("dataset %s re-materialized after Remove", h)
		}
		if r.Remove(h) {
			t.Errorf("second Remove(%s) = true", h)
		}
	}

	// A quarantined copy is also part of the dataset's footprint.
	e, _, err := r.Register(uniqueCSV(99), dataset.CSVOptions{})
	if err != nil {
		t.Fatal(err)
	}
	qpath := filepath.Join(sp.Dir(), QuarantineDir, SpillFileName(e.Hash))
	if err := os.WriteFile(qpath, []byte("rot"), 0o644); err != nil {
		t.Fatal(err)
	}
	if !r.Remove(e.Hash) {
		t.Fatal("Remove of dataset with quarantined copy = false")
	}
	if _, err := os.Stat(qpath); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("quarantined copy survives Remove: %v", err)
	}
}

// TestSpillDiskBudget: the disk tier has its own LRU — oldest spill
// files are deleted once the disk byte budget is exceeded, sparing the
// file just written.
func TestSpillDiskBudget(t *testing.T) {
	sp, err := OpenSpill(t.TempDir(), 200, nil)
	if err != nil {
		t.Fatal(err)
	}
	var hashes []Hash
	for i := 0; i < 6; i++ {
		raw := Canonicalize(uniqueCSV(i))
		h := HashBytes(raw)
		if err := sp.store(h, raw); err != nil {
			t.Fatal(err)
		}
		hashes = append(hashes, h)
	}
	st := sp.Stats()
	if st.Evictions == 0 {
		t.Fatal("disk budget produced no evictions")
	}
	if st.Bytes > 200 {
		t.Errorf("disk tier at %d bytes, budget 200", st.Bytes)
	}
	if len(spillFiles(t, sp.Dir())) != st.Files {
		t.Errorf("index says %d files, disk disagrees", st.Files)
	}
	// The newest spill survives; the oldest is gone.
	if _, err := sp.load(hashes[len(hashes)-1]); err != nil {
		t.Errorf("newest spill evicted: %v", err)
	}
	if _, err := sp.load(hashes[0]); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("oldest spill still loadable: %v", err)
	}
}

// renameHookFS runs hook once, right after the real rename that
// publishes target: the window in which another store could interleave
// with the store publishing target.
type renameHookFS struct {
	faultfs.FS
	target string
	hook   func()
}

func (f *renameHookFS) Rename(oldpath, newpath string) error {
	err := f.FS.Rename(oldpath, newpath)
	if hook := f.hook; err == nil && newpath == f.target && hook != nil {
		f.hook = nil
		hook()
	}
	return err
}

// TestSpillRespillSurvivesConcurrentTrim: a re-spill of h publishes its
// file while h's older index entry is the oldest on disk. A store of
// another hash whose budget trim runs right after that rename, whenever
// the spill lock is free, must not delete the file just published: every
// indexed hash keeps its file. The interleaving is forced by the rename
// hook, with no sleeps.
func TestSpillRespillSurvivesConcurrentTrim(t *testing.T) {
	raws := make([][]byte, 3)
	hashes := make([]Hash, 3)
	var total int64
	for i := range raws {
		raws[i] = Canonicalize(uniqueCSV(i))
		hashes[i] = HashBytes(raws[i])
		total += int64(len(raws[i]))
	}
	h, x, b := hashes[0], hashes[1], hashes[2]
	// Any two files fit the budget; all three do not.
	fsys := &renameHookFS{FS: faultfs.OS()}
	sp, err := OpenSpill(t.TempDir(), total-1, fsys)
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{0, 1} {
		if err := sp.store(hashes[i], raws[i]); err != nil {
			t.Fatal(err)
		}
	}

	deferred := false
	fsys.target = sp.path(h)
	fsys.hook = func() {
		if !sp.mu.TryLock() {
			deferred = true // the lock is held: the trim must wait its turn
			return
		}
		sp.mu.Unlock()
		if err := sp.store(b, raws[2]); err != nil {
			t.Error(err)
		}
	}
	if err := sp.store(h, raws[0]); err != nil {
		t.Fatal(err)
	}
	if deferred {
		if err := sp.store(b, raws[2]); err != nil {
			t.Fatal(err)
		}
	}

	indexed := 0
	for _, k := range []Hash{h, x, b} {
		if _, ok := sp.index.Get(k); !ok {
			continue
		}
		indexed++
		if _, err := os.Stat(sp.path(k)); err != nil {
			t.Errorf("index lists %s but its spill file is gone: %v", k, err)
		}
	}
	if indexed != 2 {
		t.Errorf("%d hashes indexed, want 2 under a two-file budget", indexed)
	}
	if _, err := sp.load(h); err != nil {
		t.Errorf("re-spilled dataset not loadable: %v", err)
	}
}

// TestOpenSpillSweepsTempFiles: temp files left by a crash mid-spill
// are garbage by construction and are swept at open.
func TestOpenSpillSweepsTempFiles(t *testing.T) {
	dir := t.TempDir()
	stale := filepath.Join(dir, ".tmp-deadbeef-3")
	if err := os.WriteFile(stale, []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	raw := Canonicalize(uniqueCSV(0))
	if err := os.WriteFile(filepath.Join(dir, SpillFileName(HashBytes(raw))), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	sp, err := OpenSpill(dir, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stale); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("stale temp file survived open: %v", err)
	}
	if st := sp.Stats(); st.Files != 1 {
		t.Errorf("scan indexed %d files, want 1", st.Files)
	}
	if _, err := sp.load(HashBytes(raw)); err != nil {
		t.Errorf("pre-existing spill file not loadable: %v", err)
	}
}

// TestSpillReadErrorIsCountedMiss: an EIO on the spill read is a miss
// plus a load_errors tick — never a crash, never stale data.
func TestSpillReadErrorIsCountedMiss(t *testing.T) {
	inj := faultfs.NewInjector(faultfs.OS(), 1)
	r, sp := spilledRegistry(t, 512, 0, inj)
	var hashes []Hash
	for i := 0; i < 8; i++ {
		e, _, err := r.Register(uniqueCSV(i), dataset.CSVOptions{})
		if err != nil {
			t.Fatal(err)
		}
		hashes = append(hashes, e.Hash)
	}
	onDisk := spillFiles(t, sp.Dir())
	if len(onDisk) == 0 {
		t.Fatal("nothing spilled")
	}
	inj.Inject(faultfs.Fault{Op: faultfs.OpReadFile, Path: SpillExt, Times: -1, Err: syscall.EIO})
	if _, ok := r.Get(onDisk[0]); ok {
		t.Fatal("Get served a dataset whose spill read failed")
	}
	if st := sp.Stats(); st.LoadErrors == 0 {
		t.Error("EIO read not counted in load_errors")
	}
	_ = hashes
}

// TestConcurrentEvictorsNeverLoseData: concurrent Registers over a
// tight budget run budget enforcement from several goroutines at once.
// Each victim's spill-then-evict cycle holds the hash's key lock, so
// two evictors can never double-peek one victim and have the loser —
// finding the entry already evicted — delete the spill file the winner
// just wrote. The observable property: no dataset is ever silently
// lost; every registered hash stays retrievable from some tier.
func TestConcurrentEvictorsNeverLoseData(t *testing.T) {
	r, _ := spilledRegistry(t, 1024, 0, nil)
	const workers, each = 8, 16
	hashes := make([][]Hash, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				e, _, err := r.Register(uniqueCSV(w*each+i), dataset.CSVOptions{})
				if err != nil {
					t.Error(err)
					return
				}
				hashes[w] = append(hashes[w], e.Hash)
			}
		}(w)
	}
	wg.Wait()
	if st := r.Stats(); st.Evictions == 0 {
		t.Fatal("budget produced no evictions; test needs a tighter budget")
	}
	for w := range hashes {
		for i, h := range hashes[w] {
			if _, ok := r.Get(h); !ok {
				t.Fatalf("worker %d dataset %d (%s) lost under concurrent eviction", w, i, h)
			}
		}
	}
}

// TestRemoveDuringPromotionStaysRemoved: a Remove that lands in the
// middle of a disk promotion must still be total. The injected read
// latency holds the promotion open while Remove arrives; the per-hash
// lock makes Remove wait for the promotion and then delete its result,
// instead of letting the promotion re-insert a dataset whose deletion
// was already acknowledged.
func TestRemoveDuringPromotionStaysRemoved(t *testing.T) {
	inj := faultfs.NewInjector(faultfs.OS(), 1)
	inj.Inject(faultfs.Fault{Op: faultfs.OpReadFile, Path: SpillExt, Times: -1, Delay: 50 * time.Millisecond})
	// A 1-byte budget evicts everything except the newest insert, so
	// after the second Register the first dataset lives on disk only.
	r, sp := spilledRegistry(t, 1, 0, inj)
	a, _, err := r.Register(uniqueCSV(0), dataset.CSVOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.Register(uniqueCSV(1), dataset.CSVOptions{}); err != nil {
		t.Fatal(err)
	}
	if len(spillFiles(t, sp.Dir())) == 0 {
		t.Fatal("setup: nothing spilled")
	}

	promoted := make(chan struct{})
	go func() {
		defer close(promoted)
		r.Get(a.Hash) // promotion, held open by the injected read latency
	}()
	time.Sleep(10 * time.Millisecond) // let the promotion reach the slow read
	if !r.Remove(a.Hash) {
		t.Error("Remove = false for a dataset resident on disk")
	}
	<-promoted

	if _, ok := r.Get(a.Hash); ok {
		t.Fatal("dataset re-materialized after Remove raced a promotion")
	}
	for _, h := range spillFiles(t, sp.Dir()) {
		if h == a.Hash {
			t.Fatal("spill file survives a Remove that raced a promotion")
		}
	}
}

// TestNoSpillBehaviorUnchanged pins that a registry without a spill
// tier carries no raw bytes: the Entry budget charge is identical to
// the pre-spill implementation.
func TestNoSpillBehaviorUnchanged(t *testing.T) {
	plain := New(0)
	e, _, err := plain.Register([]byte(csvA), dataset.CSVOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if e.raw != nil {
		t.Error("registry without spill tier retained raw bytes")
	}
	if want := datasetBytes(e.Data); e.Bytes != want {
		t.Errorf("entry charged %d bytes, want %d (no raw overhead)", e.Bytes, want)
	}

	withSpill, _ := spilledRegistry(t, 0, 0, nil)
	e2, _, err := withSpill.Register([]byte(csvA), dataset.CSVOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(e2.raw, Canonicalize([]byte(csvA))) {
		t.Error("spill-attached entry must retain the canonical bytes")
	}
	if want := datasetBytes(e2.Data) + int64(len(e2.raw)); e2.Bytes != want {
		t.Errorf("entry charged %d bytes, want %d (dataset + raw)", e2.Bytes, want)
	}
}
