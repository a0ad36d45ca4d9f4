package jobs

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/registry"
)

// The checked-in fixture testdata/v1_jobs.wal was written by the v1
// record format, whose done records carried only the result summary —
// no spec, no dataset hash. These tests pin the migration contract: a
// v1 log replays cleanly under the v2 reader, its done jobs fold to
// summary-only (never a hard failure, never an accidental recompute),
// and new appends to the same log are written as v2.

// stageV1Fixture copies the fixture log into a fresh store directory.
func stageV1Fixture(t *testing.T) string {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "v1_jobs.wal"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, WALName), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestRecoverReplaysV1Log(t *testing.T) {
	dir := stageV1Fixture(t)
	e, n := recoveredEngine(t, dir)
	if n != 2 {
		t.Fatalf("Recover returned %d jobs from the v1 fixture, want 2", n)
	}

	done, ok := e.Get("legacy-done")
	if !ok {
		t.Fatal("v1 done job not recovered")
	}
	st := done.Snapshot()
	if st.State != StateDone || !st.Recovered {
		t.Fatalf("v1 done job status = %+v, want done+recovered", st)
	}
	sum := done.Summary()
	if sum == nil || sum.Rows != 14 || len(sum.Metrics) != 1 || sum.Metrics[0].Metric != "FPR" {
		t.Fatalf("v1 summary = %+v, want the durable digest from the log", sum)
	}
	if snap := done.Partial(); snap == nil || snap.Seq != 3 {
		t.Errorf("v1 partial snapshot = %+v, want reattached with seq 3", snap)
	}

	failed, ok := e.Get("legacy-failed")
	if !ok {
		t.Fatal("v1 failed job not recovered")
	}
	if fst := failed.Snapshot(); fst.State != StateFailed || fst.Err == "" {
		t.Errorf("v1 failed job status = %+v, want failed with its recorded error", fst)
	}
}

func TestV1DoneRecordFoldsToSummaryOnly(t *testing.T) {
	dir := stageV1Fixture(t)
	// Even with a registry that could serve the mine, a v1 done record
	// must not recompute: it never recorded what to recompute from.
	reg := registry.New(0)
	if _, _, err := reg.Register([]byte(sampleCSV), dataset.CSVOptions{TrimSpace: true}); err != nil {
		t.Fatal(err)
	}
	e, _ := recoveredEngineWith(t, dir, reg)
	job, _ := e.Get("legacy-done")
	if job.Recomputable() {
		t.Fatal("v1 done record reported recomputable")
	}
	if _, err := job.Result(); !errors.Is(err, ErrNoResult) {
		t.Errorf("Result() err = %v, want ErrNoResult", err)
	}
	if _, err := e.Rehydrate(context.Background(), job); !errors.Is(err, ErrNoResult) {
		t.Errorf("Rehydrate err = %v, want ErrNoResult (summary-only fold)", err)
	}
	if job.Summary() == nil {
		t.Error("summary-only fold lost the summary")
	}
}

// TestV1LogUpgradesInPlace recovers a v1 log, runs a new job through the
// same store, and asserts the mixed-version log replays again with the
// new done record carrying its spec — the in-place upgrade path of a
// long-lived store directory.
func TestV1LogUpgradesInPlace(t *testing.T) {
	dir := stageV1Fixture(t)
	reg := registry.New(0)
	entry, _, err := reg.Register([]byte(sampleCSV), dataset.CSVOptions{TrimSpace: true})
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(Config{Registry: reg, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Recover(dir); err != nil {
		t.Fatal(err)
	}
	job, err := e.Submit(sampleSpec(entry.Hash))
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, job); st.State != StateDone {
		t.Fatalf("new job on a v1 store: %+v", st)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := e.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	st2 := openTestStore(t, dir)
	defer func() {
		if err := st2.Close(); err != nil {
			t.Error(err)
		}
	}()
	recs := st2.Replay()
	var v1done, v2done *Record
	for i := range recs {
		if recs[i].Type != RecDone {
			continue
		}
		switch recs[i].Job {
		case "legacy-done":
			v1done = &recs[i]
		case job.ID():
			v2done = &recs[i]
		}
	}
	if v1done == nil || v1done.Spec != nil || v1done.V != 1 {
		t.Errorf("v1 done record = %+v, want spec-less v1", v1done)
	}
	if v2done == nil || v2done.Spec == nil || v2done.V != storeVersion {
		t.Fatalf("new done record = %+v, want v%d with a spec", v2done, storeVersion)
	}
	if v2done.Spec.Dataset != entry.Hash || v2done.Spec.TruthCol != "truth" {
		t.Errorf("new done record spec = %+v, want the submitted spec", v2done.Spec)
	}
}

// TestDoneRecordWithoutSummaryIsNotARecipe: earlier v2 builds wrote the
// synthesized spec of an explore or significance job onto its done
// record, with no summary beside it. Recovery must not take that spec
// for a re-mine recipe, which would serve an analysis report in place
// of the job's outcome, and Rehydrate must name the job's kind.
func TestDoneRecordWithoutSummaryIsNotARecipe(t *testing.T) {
	reg := registry.New(0)
	entry, _, err := reg.Register([]byte(sampleCSV), dataset.CSVOptions{TrimSpace: true})
	if err != nil {
		t.Fatal(err)
	}
	for kind, alpha := range map[string]string{"explore": "0", "significance": "0.05"} {
		t.Run(kind, func(t *testing.T) {
			spec := fmt.Sprintf(`{"Dataset":%q,"TruthCol":"truth","PredCol":"pred","Support":0.05,"Metrics":["ER"],"Epsilon":0,"TopK":10,"Alpha":%s,"Timeout":0}`,
				entry.Hash, alpha)
			log := fmt.Sprintf(`{"v":2,"type":"submitted","job":"j","time":"2026-01-01T00:00:00Z","spec":%s}
{"v":2,"type":"running","job":"j","time":"2026-01-01T00:00:01Z"}
{"v":2,"type":"done","job":"j","time":"2026-01-01T00:00:02Z","spec":%s}
`, spec, spec)
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, WALName), []byte(log), 0o644); err != nil {
				t.Fatal(err)
			}
			e, _ := recoveredEngineWith(t, dir, reg)
			job, _ := e.Get("j")
			if job.Recomputable() {
				t.Fatal("spec without a summary taken for a re-mine recipe")
			}
			_, err := e.Rehydrate(context.Background(), job)
			if !errors.Is(err, ErrNoResult) || !strings.Contains(err.Error(), kind) {
				t.Errorf("Rehydrate err = %v, want ErrNoResult naming %s", err, kind)
			}
			if got := e.Stats().Rehydrated; got != 0 {
				t.Errorf("rehydrated = %d, want 0", got)
			}
		})
	}
}
