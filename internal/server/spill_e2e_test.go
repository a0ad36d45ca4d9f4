package server

import (
	"bytes"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"

	"repro/internal/faultfs"
	"repro/internal/jobs"
	"repro/internal/registry"
)

// spillSeed keeps the fault-injection e2e arms deterministic while the
// fault-injection verify tier varies them via DIVEX_FAULT_SEED.
func spillSeed(t *testing.T) int64 {
	t.Helper()
	s := os.Getenv("DIVEX_FAULT_SEED")
	if s == "" {
		return 1
	}
	var seed int64
	for _, c := range s {
		if c < '0' || c > '9' {
			t.Fatalf("DIVEX_FAULT_SEED=%q is not a positive integer", s)
		}
		seed = seed*10 + int64(c-'0')
	}
	return seed
}

// durableSpillServer wires the full -store-dir + -spill-dir stack: a
// memory-budgeted registry whose evictions spill to spillDir through
// fsys, and a durable engine recovering the WAL in walDir.
func durableSpillServer(t *testing.T, walDir, spillDir string, memBudget int64, fsys faultfs.FS) http.Handler {
	t.Helper()
	reg := registry.New(memBudget)
	sp, err := registry.OpenSpill(spillDir, 0, fsys)
	if err != nil {
		t.Fatal(err)
	}
	reg.AttachSpill(sp, CSVOptions())
	engine, err := jobs.New(jobs.Config{Registry: reg, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := engine.Recover(walDir); err != nil {
		t.Fatal(err)
	}
	return newTestServer(t, Options{Registry: reg, Engine: engine}).Handler()
}

// fillerCSV is a parseable upload bulky enough that a handful of them
// overflow a small registry budget and force evictions.
func fillerCSV(i int) string {
	return fmt.Sprintf("a,b\nf%d,%s\n", i, strings.Repeat("z", 2048))
}

// evictUnderPressure uploads filler datasets until hash's spill file
// appears — the memory-pressure eviction of the acceptance scenario.
func evictUnderPressure(t *testing.T, h http.Handler, spillDir, hash string) {
	t.Helper()
	for i := 0; i < 16; i++ {
		if w := do(t, h, http.MethodPost, "/datasets", fillerCSV(i)); w.Code != http.StatusOK {
			t.Fatalf("filler upload = %d: %s", w.Code, w.Body.String())
		}
		if _, err := os.Stat(filepath.Join(spillDir, registry.SpillFileName(registry.Hash(hash)))); err == nil {
			return
		}
	}
	t.Fatalf("dataset %s never spilled under memory pressure", hash)
}

// runJobToDone registers sampleCSV, submits a job over it, waits for
// completion and returns (dataset hash, job id, result bytes).
func runJobToDone(t *testing.T, h http.Handler) (string, string, []byte) {
	t.Helper()
	w := do(t, h, http.MethodPost, "/datasets", sampleCSV)
	if w.Code != http.StatusOK {
		t.Fatalf("POST /datasets = %d: %s", w.Code, w.Body.String())
	}
	hash := decode[datasetJSON](t, w).Hash
	w = do(t, h, http.MethodPost, "/jobs?dataset="+hash+"&support=0.05&metric=FPR,FNR&eps=0.01&alpha=0.1", "")
	if w.Code != http.StatusAccepted {
		t.Fatalf("POST /jobs = %d: %s", w.Code, w.Body.String())
	}
	id := decode[jobJSON](t, w).ID
	if st := pollJob(t, h, id); st.State != "done" {
		t.Fatalf("job: %+v", st)
	}
	w = do(t, h, http.MethodGet, "/jobs/"+id+"/result", "")
	if w.Code != http.StatusOK {
		t.Fatalf("pre-crash GET result = %d: %s", w.Code, w.Body.String())
	}
	return hash, id, append([]byte(nil), w.Body.Bytes()...)
}

// TestSpillRestartServesByteIdenticalResult is the acceptance scenario
// for the disk tier, end to end over HTTP with faultfs active: the
// dataset is evicted under memory pressure (with a transient disk fault
// injected mid-spill), the server crashes, and the restarted server —
// with NOBODY re-uploading anything — serves GET /jobs/{id}/result
// byte-identical to the pre-crash response by re-mining from the
// checksummed spill file.
func TestSpillRestartServesByteIdenticalResult(t *testing.T) {
	walDir, spillDir := t.TempDir(), t.TempDir()
	inj := faultfs.NewInjector(faultfs.OS(), spillSeed(t))
	// One transient fault mid-spill: the retry loop must absorb it.
	inj.Inject(faultfs.Fault{Op: faultfs.OpWrite, Path: ".tmp-", Err: syscall.EINTR, Short: 9})
	h1 := durableSpillServer(t, walDir, spillDir, 4096, inj)

	hash, id, before := runJobToDone(t, h1)
	evictUnderPressure(t, h1, spillDir, hash)

	// Crash: the restarted process sees the synced WAL and the spill dir.
	h2 := durableSpillServer(t, snapshotWAL(t, walDir), spillDir, 4096,
		faultfs.NewInjector(faultfs.OS(), spillSeed(t)))

	w := do(t, h2, http.MethodGet, "/jobs/"+id+"/result", "")
	if w.Code != http.StatusOK {
		t.Fatalf("post-restart GET result = %d: %s", w.Code, w.Body.String())
	}
	if !bytes.Equal(w.Body.Bytes(), before) {
		t.Errorf("post-restart result differs from pre-crash bytes:\npre:  %s\npost: %s",
			before, w.Body.Bytes())
	}
	if decode[degradedJSON](t, w).Degraded {
		t.Error("spill-backed result carries a degraded marker")
	}
	stats := decode[statszJSON](t, do(t, h2, http.MethodGet, "/statsz", ""))
	if stats.Ladder.DiskLoads == 0 {
		t.Errorf("statsz ladder = %+v, want at least one disk load", stats.Ladder)
	}
	if stats.Jobs.Rehydrated != 1 {
		t.Errorf("statsz jobs.rehydrated = %d, want 1", stats.Jobs.Rehydrated)
	}
	if stats.Ladder.Degraded != 0 || stats.Ladder.Gone != 0 {
		t.Errorf("full-result serve moved degraded/gone counters: %+v", stats.Ladder)
	}
}

// TestSpillCorruptionDegradesExplicitly is the other acceptance arm:
// same crash/restart, but the spill file is corrupted on disk. The
// result endpoint must serve the durable summary with "degraded": true
// — never the corrupt bytes — and the quarantine counter must move.
func TestSpillCorruptionDegradesExplicitly(t *testing.T) {
	walDir, spillDir := t.TempDir(), t.TempDir()
	h1 := durableSpillServer(t, walDir, spillDir, 4096, faultfs.NewInjector(faultfs.OS(), spillSeed(t)))
	hash, id, _ := runJobToDone(t, h1)
	evictUnderPressure(t, h1, spillDir, hash)

	spillPath := filepath.Join(spillDir, registry.SpillFileName(registry.Hash(hash)))
	if err := os.WriteFile(spillPath, []byte("group,region,truth,pred\nX,x,1,0\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	h2 := durableSpillServer(t, snapshotWAL(t, walDir), spillDir, 4096,
		faultfs.NewInjector(faultfs.OS(), spillSeed(t)))
	w := do(t, h2, http.MethodGet, "/jobs/"+id+"/result", "")
	if w.Code != http.StatusOK {
		t.Fatalf("GET result over corrupt spill = %d, want 200 (degraded summary): %s",
			w.Code, w.Body.String())
	}
	deg := decode[degradedJSON](t, w)
	if !deg.Degraded || deg.Reason == "" {
		t.Fatalf("payload = %+v, want an explicit degraded marker with a reason", deg)
	}
	if deg.Rows != 14 {
		t.Errorf("degraded payload lost the summary: %+v", deg)
	}
	stats := decode[statszJSON](t, do(t, h2, http.MethodGet, "/statsz", ""))
	if stats.Ladder.Quarantined != 1 {
		t.Errorf("statsz ladder.quarantined_spills = %d, want 1", stats.Ladder.Quarantined)
	}
	if stats.Ladder.Degraded != 1 {
		t.Errorf("statsz ladder.degraded_results = %d, want 1", stats.Ladder.Degraded)
	}
	qpath := filepath.Join(spillDir, registry.QuarantineDir, registry.SpillFileName(registry.Hash(hash)))
	if _, err := os.Stat(qpath); err != nil {
		t.Errorf("corrupt spill file not quarantined: %v", err)
	}
}

// TestDeleteDatasetPurgesSpill: DELETE /datasets/{hash} is total — it
// removes the spill file too, so a post-delete result fetch degrades to
// the durable summary instead of resurrecting the dataset from disk.
func TestDeleteDatasetPurgesSpill(t *testing.T) {
	walDir, spillDir := t.TempDir(), t.TempDir()
	h1 := durableSpillServer(t, walDir, spillDir, 4096, nil)
	hash, id, _ := runJobToDone(t, h1)
	evictUnderPressure(t, h1, spillDir, hash)

	h2 := durableSpillServer(t, snapshotWAL(t, walDir), spillDir, 4096, nil)
	if w := do(t, h2, http.MethodDelete, "/datasets/"+hash, ""); w.Code != http.StatusOK {
		t.Fatalf("DELETE /datasets = %d: %s", w.Code, w.Body.String())
	}
	if _, err := os.Stat(filepath.Join(spillDir, registry.SpillFileName(registry.Hash(hash)))); err == nil {
		t.Fatal("spill file survives DELETE /datasets")
	}

	// The rehydrate path must NOT find stale disk data: summary only.
	w := do(t, h2, http.MethodGet, "/jobs/"+id+"/result", "")
	if w.Code != http.StatusOK {
		t.Fatalf("post-delete GET result = %d: %s", w.Code, w.Body.String())
	}
	deg := decode[degradedJSON](t, w)
	if !deg.Degraded {
		t.Fatalf("post-delete result not degraded — served from where? %s", w.Body.String())
	}
	// Delete is also idempotently final across the quarantine tier.
	if w := do(t, h2, http.MethodDelete, "/datasets/"+hash, ""); w.Code != http.StatusNotFound {
		t.Errorf("double delete = %d, want 404", w.Code)
	}
}
