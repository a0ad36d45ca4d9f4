package jobs

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/fpm"
)

func TestTrackerNilSafe(t *testing.T) {
	var tr *Tracker
	tr.Progress(1, 2) // must not panic
	tr.Partial(Snapshot{Done: 1, Total: 2})
	tr = &Tracker{} // no job attached: also a no-op
	tr.Progress(1, 2)
	tr.Partial(Snapshot{Done: 1, Total: 2})
}

func TestTrackerSeqMonotonicUnderConcurrency(t *testing.T) {
	job := &Job{id: "x"}
	var persistMu sync.Mutex
	var persisted []int64
	tr := &Tracker{
		job: job,
		persist: func(s *Snapshot) {
			persistMu.Lock()
			persisted = append(persisted, s.Seq)
			persistMu.Unlock()
		},
	}

	// Writers publish concurrently while a poller checks that the seq it
	// observes through Job.Partial never goes backwards — the contract
	// the /jobs/{id}/partial endpoint exposes to clients.
	stop := make(chan struct{})
	var pollerErr error
	var pollerWG sync.WaitGroup
	pollerWG.Add(1)
	go func() {
		defer pollerWG.Done()
		var last int64
		for {
			select {
			case <-stop:
				return
			default:
			}
			if s := job.Partial(); s != nil {
				if s.Seq < last {
					pollerErr = fmt.Errorf("seq went backwards: %d after %d", s.Seq, last)
					return
				}
				last = s.Seq
			}
		}
	}()

	const writers, perWriter = 4, 50
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				tr.Partial(Snapshot{Done: i, Total: perWriter})
			}
		}()
	}
	wg.Wait()
	close(stop)
	pollerWG.Wait()
	if pollerErr != nil {
		t.Fatal(pollerErr)
	}

	final := job.Partial()
	if final == nil || final.Seq != writers*perWriter {
		t.Fatalf("final seq = %+v, want %d", final, writers*perWriter)
	}
	// SnapshotEvery <= 0 persists every update, and each persisted seq is
	// distinct.
	if len(persisted) != writers*perWriter {
		t.Fatalf("persisted %d snapshots, want %d", len(persisted), writers*perWriter)
	}
	seen := make(map[int64]bool, len(persisted))
	for _, s := range persisted {
		if seen[s] {
			t.Fatalf("seq %d persisted twice", s)
		}
		seen[s] = true
	}
}

func TestTrackerPersistCadence(t *testing.T) {
	job := &Job{id: "x"}
	var persisted int
	tr := &Tracker{
		job:     job,
		every:   time.Hour,
		persist: func(*Snapshot) { persisted++ },
	}
	for i := 0; i < 10; i++ {
		tr.Partial(Snapshot{Done: i, Total: 10})
	}
	if persisted != 1 {
		t.Errorf("persisted %d snapshots under a 1h cadence, want 1 (the first)", persisted)
	}
	// The in-memory snapshot still advanced on every update.
	if s := job.Partial(); s == nil || s.Seq != 10 {
		t.Errorf("in-memory seq = %+v, want 10", s)
	}
}

// sampleTxDB builds the TxDB RunAnalysis would mine for sampleCSV.
func sampleTxDB(t *testing.T) *fpm.TxDB {
	t.Helper()
	d, err := dataset.ReadCSV(strings.NewReader(sampleCSV), dataset.CSVOptions{TrimSpace: true})
	if err != nil {
		t.Fatal(err)
	}
	db, err := confusionDB(d, "truth", "pred")
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestPartialAccumLeaderboard(t *testing.T) {
	db := sampleTxDB(t)
	spec := Spec{Metrics: []string{"FPR"}, TopK: 3}
	acc := newPartialAccum(db, spec, nil)
	if acc.top == nil {
		t.Fatal("FPR undefined on sample data")
	}

	// Mine the real patterns, then feed them through the accumulator in
	// two batches and check the leaderboard invariants after each.
	all, err := fpm.FPGrowth{}.Mine(context.Background(), db, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) < 4 {
		t.Fatalf("only %d patterns mined; the test needs more", len(all))
	}
	mid := len(all) / 2
	var snap Snapshot
	for i, batch := range [][]fpm.FrequentPattern{all[:mid], all[mid:]} {
		prevPatterns := snap.Patterns
		snap = acc.add(batch, i+1, 2)
		if snap.Patterns <= prevPatterns {
			t.Errorf("batch %d: pattern count %d not increasing from %d", i, snap.Patterns, prevPatterns)
		}
		if len(snap.Top) > spec.TopK {
			t.Errorf("batch %d: leaderboard has %d entries, cap %d", i, len(snap.Top), spec.TopK)
		}
		for j := 1; j < len(snap.Top); j++ {
			if math.Abs(snap.Top[j].Divergence) > math.Abs(snap.Top[j-1].Divergence) {
				t.Errorf("batch %d: leaderboard not sorted by |divergence| at %d", i, j)
			}
		}
		if snap.Metric != "FPR" {
			t.Errorf("batch %d: metric = %q", i, snap.Metric)
		}
	}
	if snap.Patterns != int64(len(all)) {
		t.Errorf("final pattern count %d, want %d", snap.Patterns, len(all))
	}

	// After all batches the whole leaderboard must equal the full
	// result's summary: same patterns, same order, same statistics.
	res, err := core.Explore(db, 0.0, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := summarize(res, spec).Metrics[0].Top
	if len(want) != spec.TopK {
		t.Fatalf("summary has %d patterns, the test needs %d", len(want), spec.TopK)
	}
	if !reflect.DeepEqual(snap.Top, want) {
		t.Errorf("final leaderboard differs from the summary:\ngot  %+v\nwant %+v", snap.Top, want)
	}
}

// labeledData appends g's truth and prediction as Boolean columns, the
// shape RunAnalysis expects.
func labeledData(g *datagen.Generated) *dataset.Dataset {
	d := g.Data.Clone()
	d.Attrs = append(d.Attrs,
		dataset.Attribute{Name: "truth", Values: []string{"0", "1"}},
		dataset.Attribute{Name: "pred", Values: []string{"0", "1"}})
	code := func(v bool) int32 {
		if v {
			return 1
		}
		return 0
	}
	for r := range d.Rows {
		d.Rows[r] = append(d.Rows[r], code(g.Truth[r]), code(g.Pred[r]))
	}
	return d
}

// TestFinalPartialMatchesSummary: the parallel miner emits batches from
// several workers in an order that varies run to run, and patterns tie
// on |divergence|. The snapshot published after the last batch must
// still equal the job's own summary, pattern for pattern, so the
// leaderboard has to break ties as Result.TopK does, not by arrival.
func TestFinalPartialMatchesSummary(t *testing.T) {
	for _, name := range []string{"heart", "german"} {
		g, err := datagen.ByName(name, 2021)
		if err != nil {
			t.Fatal(err)
		}
		data := labeledData(g)
		for _, metric := range []string{"FPR", "FNR", "ER"} {
			for _, k := range []int{1, 10} {
				t.Run(fmt.Sprintf("%s/%s/k=%d", name, metric, k), func(t *testing.T) {
					spec := Spec{TruthCol: "truth", PredCol: "pred", Support: 0.1, Metrics: []string{metric}, TopK: k}
					tr := &Tracker{job: &Job{}}
					res, err := RunAnalysis(context.Background(), data, spec, tr)
					if err != nil {
						t.Fatal(err)
					}
					last := tr.job.Partial()
					if last == nil || last.Patterns != int64(res.NumPatterns()) {
						t.Fatalf("last snapshot %+v has not seen all %d patterns", last, res.NumPatterns())
					}
					want := summarize(res, spec).Metrics[0].Top
					if !reflect.DeepEqual(last.Top, want) {
						t.Errorf("last snapshot differs from the summary:\ngot  %+v\nwant %+v", last.Top, want)
					}
				})
			}
		}
	}
}

func TestPartialGrowsMonotonicallyDuringJob(t *testing.T) {
	// An analyze func that publishes a stream of snapshots while a
	// concurrent poller (standing in for GET /jobs/{id}/partial clients)
	// asserts seq, done and patterns never regress.
	const steps = 40
	analyze := func(ctx context.Context, _ *dataset.Dataset, _ Spec, tr *Tracker) (*core.Result, error) {
		for i := 1; i <= steps; i++ {
			tr.Partial(Snapshot{Done: i, Total: steps, Patterns: int64(i * 3)})
			tr.Progress(i, steps)
		}
		return nil, context.Canceled // terminal without needing a real result
	}
	e, h := testEngine(t, Config{Workers: 1, Analyze: analyze})
	job, err := e.Submit(sampleSpec(h))
	if err != nil {
		t.Fatal(err)
	}

	var last Snapshot
	observe := func() {
		if s := job.Partial(); s != nil {
			if s.Seq < last.Seq || s.Done < last.Done || s.Patterns < last.Patterns {
				t.Fatalf("partial regressed: %+v after %+v", s, last)
			}
			last = *s
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		observe()
		if job.Snapshot().State.Terminal() {
			break
		}
	}
	// One more read after the terminal state: the whole job may have run
	// between the last observation and the terminal check.
	observe()
	if last.Seq != steps || last.Done != steps {
		t.Errorf("final partial = %+v, want seq=done=%d", last, steps)
	}
}

// TestTrackerLastPersistedIsLive drives Partial and Progress from
// several goroutines, as fpm.Parallel and permtest do, with every update
// persisted. The last snapshot written through must be the one readers
// see, so a recovered job reattaches exactly the live snapshot; and
// progress must end at the largest count reported, whichever call lands
// last.
func TestTrackerLastPersistedIsLive(t *testing.T) {
	job := &Job{id: "x"}
	var persistMu sync.Mutex
	var persisted []int64
	tr := &Tracker{
		job: job,
		persist: func(s *Snapshot) {
			persistMu.Lock()
			persisted = append(persisted, s.Seq)
			persistMu.Unlock()
		},
	}
	const writers, perWriter = 8, 200
	const total = writers * perWriter
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				done := w*perWriter + i + 1
				tr.Partial(Snapshot{Done: done, Total: total})
				tr.Progress(done, total)
			}
		}(w)
	}
	wg.Wait()

	final := job.Partial()
	if final == nil || final.Seq != total {
		t.Fatalf("final seq = %+v, want %d", final, total)
	}
	if len(persisted) != total {
		t.Fatalf("persisted %d snapshots, want %d", len(persisted), total)
	}
	if last := persisted[len(persisted)-1]; last != final.Seq {
		t.Errorf("last persisted seq = %d, live seq = %d", last, final.Seq)
	}
	for i := 1; i < len(persisted); i++ {
		if persisted[i] <= persisted[i-1] {
			t.Fatalf("persisted seq %d after %d", persisted[i], persisted[i-1])
		}
	}
	if got := job.progressDone.Load(); got != total {
		t.Errorf("progress done = %d, want the maximum %d", got, total)
	}
	if got := job.progressTotal.Load(); got != total {
		t.Errorf("progress total = %d, want %d", got, total)
	}
}

// TestPartialAccumDoneMonotone: subproblem completions can reach the
// accumulator out of order; its snapshots' Done must never go back.
func TestPartialAccumDoneMonotone(t *testing.T) {
	db := sampleTxDB(t)
	acc := newPartialAccum(db, Spec{Metrics: []string{"FPR"}}, nil)
	last := 0
	for _, done := range []int{1, 3, 2, 4} {
		snap := acc.add(nil, done, 4)
		if snap.Done < last {
			t.Fatalf("Done went from %d to %d", last, snap.Done)
		}
		last = snap.Done
	}
	if last != 4 {
		t.Errorf("final Done = %d, want 4", last)
	}
}
