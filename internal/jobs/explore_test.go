package jobs

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/registry"
)

func sampleExploreSpec(h registry.Hash) ExploreSpec {
	return ExploreSpec{
		Dataset:  h,
		TruthCol: "truth",
		PredCol:  "pred",
		Support:  0.05,
		Metric:   "ER",
		TopK:     10,
	}
}

// TestExploreMatchesFullAnalysis: an unbudgeted explore must agree with
// the exhaustive analysis pipeline's |Δ| leaderboard exactly.
func TestExploreMatchesFullAnalysis(t *testing.T) {
	e, h := testEngine(t, Config{Workers: 1})
	out, err := e.Explore(context.Background(), sampleExploreSpec(h))
	if err != nil {
		t.Fatal(err)
	}
	if out.Reason != "exhausted" || out.Partial || out.CacheHit || out.Sampled {
		t.Fatalf("unbudgeted explore outcome: %+v", out)
	}
	if out.Metric != "ER" || len(out.Top) == 0 {
		t.Fatalf("outcome: %+v", out)
	}

	res, err := e.Analyze(context.Background(), Spec{
		Dataset: h, TruthCol: "truth", PredCol: "pred", Support: 0.05, Metrics: []string{"ER"},
	})
	if err != nil {
		t.Fatal(err)
	}
	m, _ := core.MetricByName("ER")
	want := res.TopK(m, 10, core.ByAbsDivergence)
	if len(out.Top) != len(want) {
		t.Fatalf("%d patterns, full analysis ranks %d", len(out.Top), len(want))
	}
	for i, p := range out.Top {
		wantNames := make([]string, len(want[i].Items))
		for j, it := range want[i].Items {
			wantNames[j] = res.DB.Catalog.Name(it)
		}
		if !reflect.DeepEqual(p.Items, wantNames) ||
			p.Support != want[i].Support || p.Rate != want[i].Rate ||
			p.Divergence != want[i].Divergence || p.T != want[i].T {
			t.Fatalf("rank %d: %+v, full analysis %+v (%v)", i, p, want[i], wantNames)
		}
		if p.SupportLo != p.Support || p.DivergenceHi != p.Divergence {
			t.Fatalf("rank %d: exact run has non-degenerate bounds: %+v", i, p)
		}
	}
}

// TestExploreCacheAndBudgets: complete outcomes are cached (budgets
// excluded from the key), budgeted/partial outcomes are not, and a
// cached complete outcome truthfully serves a budgeted re-ask.
func TestExploreCacheAndBudgets(t *testing.T) {
	e, h := testEngine(t, Config{Workers: 1})
	spec := sampleExploreSpec(h)

	first, err := e.Explore(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	mines := e.ExploreStatsSnapshot().Mines

	again, err := e.Explore(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if !again.CacheHit || again.Partial {
		t.Fatalf("repeat explore: cache_hit=%v partial=%v", again.CacheHit, again.Partial)
	}
	if !reflect.DeepEqual(again.Top, first.Top) {
		t.Fatal("cached outcome differs from the original")
	}
	if got := e.ExploreStatsSnapshot().Mines; got != mines {
		t.Fatalf("cache hit ran a mine: %d -> %d", mines, got)
	}

	// A budgeted re-ask of the same (cached, complete) question is a
	// cache hit too — and is NOT partial, because the cached answer is
	// complete.
	budgeted := spec
	budgeted.MaxPatterns = 1
	b, err := e.Explore(context.Background(), budgeted)
	if err != nil {
		t.Fatal(err)
	}
	if !b.CacheHit || b.Partial {
		t.Fatalf("budgeted re-ask of cached question: %+v", b)
	}

	// A budgeted first-ask of a NEW question mines, truncates, and must
	// not be cached.
	fresh := spec
	fresh.Support = 0.25
	fresh.MaxPatterns = 1
	p1, err := e.Explore(context.Background(), fresh)
	if err != nil {
		t.Fatal(err)
	}
	if p1.CacheHit || !p1.Partial || p1.Reason != "budget" || p1.Visited != 1 {
		t.Fatalf("budgeted first ask: %+v", p1)
	}
	p2, err := e.Explore(context.Background(), fresh)
	if err != nil {
		t.Fatal(err)
	}
	if p2.CacheHit {
		t.Fatal("a partial outcome was served from the cache")
	}
}

// TestExpandPerformsNoMine is the no-re-mine guarantee: navigation
// moves the expand counters, never the mine counter, and each
// refinement carries exact statistics.
func TestExpandPerformsNoMine(t *testing.T) {
	e, h := testEngine(t, Config{Workers: 1})
	spec := sampleExploreSpec(h)
	out, err := e.Explore(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	mines := e.ExploreStatsSnapshot().Mines

	// Expand the root, then drill the top pattern's first refinement.
	root, err := e.Expand(ExpandSpec{
		Dataset: h, TruthCol: "truth", PredCol: "pred", Support: 0.05, Metric: "ER",
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(root.Refinements) == 0 {
		t.Fatal("root expand found no singletons")
	}
	drill, err := e.Expand(ExpandSpec{
		Dataset: h, TruthCol: "truth", PredCol: "pred", Support: 0.05, Metric: "ER",
		Pattern: root.Refinements[0].Items, Attr: "region",
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range drill.Refinements {
		if len(r.Items) != 2 {
			t.Fatalf("drill refinement %v is not parent+1", r.Items)
		}
	}

	st := e.ExploreStatsSnapshot()
	if st.Mines != mines {
		t.Fatalf("expand/drill ran a mine: %d -> %d", mines, st.Mines)
	}
	if st.Expands != 2 {
		t.Fatalf("expand counter = %d, want 2", st.Expands)
	}
	if st.Sessions < 1 || st.Navigation.RowsScanned == 0 {
		t.Fatalf("navigation stats not accounted: %+v", st)
	}

	// Cross-check a refinement against the explore leaderboard: the
	// root singletons include every size-1 leaderboard pattern with the
	// same statistics.
	byName := map[string]ExplorePattern{}
	for _, r := range root.Refinements {
		byName[r.Items[0]] = r
	}
	for _, p := range out.Top {
		if len(p.Items) != 1 {
			continue
		}
		r, ok := byName[p.Items[0]]
		if !ok {
			t.Fatalf("leaderboard singleton %v missing from root expand", p.Items)
		}
		if r.Support != p.Support || r.Rate != p.Rate || r.Divergence != p.Divergence || r.T != p.T {
			t.Fatalf("singleton %v: expand %+v, explore %+v", p.Items, r, p)
		}
	}
}

// TestSubmitExploreStreams: the async path runs an exploration through
// the job lifecycle, and the final partial-result snapshot carries the
// completion reason.
func TestSubmitExploreStreams(t *testing.T) {
	e, h := testEngine(t, Config{Workers: 1})
	job, err := e.Submit(sampleExploreSpec(h))
	if err != nil {
		t.Fatal(err)
	}
	st := waitTerminal(t, job)
	if st.State != StateDone {
		t.Fatalf("explore job ended %s (%s)", st.State, st.Err)
	}
	out := outcomeOf[*ExploreOutcome](t, job)
	if out.Reason != "exhausted" || len(out.Top) == 0 {
		t.Fatalf("async outcome: %+v", out)
	}
	snap := job.Partial()
	if snap == nil {
		t.Fatal("explore job published no snapshot")
	}
	if snap.Reason != "exhausted" {
		t.Fatalf("final snapshot reason %q, want exhausted", snap.Reason)
	}
	if len(snap.Top) == 0 || snap.Patterns != out.Visited {
		t.Fatalf("final snapshot: %+v", snap)
	}
	// The job holds its own normalized spec, which has no alpha.
	if spec, ok := job.Work().(ExploreSpec); !ok || spec.Metric != "ER" || spec.TopK != 10 {
		t.Fatalf("explore job work = %#v", job.Work())
	}
}

func TestExploreValidation(t *testing.T) {
	e, h := testEngine(t, Config{Workers: 1})
	ctx := context.Background()
	bad := func(mutate func(*ExploreSpec)) error {
		s := sampleExploreSpec(h)
		mutate(&s)
		_, err := e.Explore(ctx, s)
		return err
	}
	cases := map[string]func(*ExploreSpec){
		"support":  func(s *ExploreSpec) { s.Support = 1.5 },
		"metric":   func(s *ExploreSpec) { s.Metric = "nope" },
		"budget":   func(s *ExploreSpec) { s.BudgetMS = -1 },
		"conf":     func(s *ExploreSpec) { s.Confidence = 1 },
		"dataset":  func(s *ExploreSpec) { s.Dataset = "missing" },
		"truthcol": func(s *ExploreSpec) { s.TruthCol = "ghost" },
	}
	for name, mutate := range cases {
		if err := bad(mutate); !errors.Is(err, ErrBadInput) {
			t.Errorf("%s: error %v, want ErrBadInput", name, err)
		}
	}
	if _, err := e.Expand(ExpandSpec{
		Dataset: h, TruthCol: "truth", PredCol: "pred", Support: 0.05,
		Pattern: []string{"group=A", "group=B"},
	}); !errors.Is(err, ErrBadInput) {
		t.Errorf("doubly-bound expand: %v", err)
	}
}

// TestRefusedQueriesCountNoWork: an /explore and an expand whose metric
// is undefined on the whole dataset (FPR on a table with no actual
// negatives) are refused as bad input and leave the mine, expand and
// navigation counters where they were.
func TestRefusedQueriesCountNoWork(t *testing.T) {
	reg := registry.New(0)
	entry, _, err := reg.Register([]byte("g,truth,pred\na,1,1\na,1,0\nb,1,1\nb,1,1\nc,1,0\nc,1,1\n"), dataset.CSVOptions{})
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(Config{Registry: reg, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := e.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()
	h := entry.Hash
	spec := ExploreSpec{Dataset: h, TruthCol: "truth", PredCol: "pred", Support: 0.1, Metric: "FPR"}
	if _, err := e.Explore(context.Background(), spec); !errors.Is(err, ErrBadInput) {
		t.Fatalf("FPR explore without actual negatives: %v, want ErrBadInput", err)
	}
	if _, err := e.Expand(ExpandSpec{Dataset: h, TruthCol: "truth", PredCol: "pred", Support: 0.1, Metric: "FPR"}); !errors.Is(err, ErrBadInput) {
		t.Fatalf("FPR expand without actual negatives: %v, want ErrBadInput", err)
	}
	if st := e.ExploreStatsSnapshot(); st.Mines != 0 || st.Expands != 0 || st.Navigation.Expands != 0 || st.Navigation.Misses != 0 {
		t.Fatalf("refused queries counted as work: mines %d, expands %d, navigation %+v", st.Mines, st.Expands, st.Navigation)
	}
}

// binaryTable registers a seeded table of rows rows over attrs binary
// attributes and random truth and pred columns: at a low support its
// lattice is far too large to mine in seconds.
func binaryTable(t *testing.T, reg *registry.Registry, rows, attrs int) registry.Hash {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	var sb strings.Builder
	for a := 0; a < attrs; a++ {
		fmt.Fprintf(&sb, "a%d,", a)
	}
	sb.WriteString("truth,pred\n")
	for r := 0; r < rows; r++ {
		for a := 0; a < attrs+2; a++ {
			sb.WriteByte("01"[rng.Intn(2)])
			if a < attrs+1 {
				sb.WriteByte(',')
			}
		}
		sb.WriteByte('\n')
	}
	entry, _, err := reg.Register([]byte(sb.String()), dataset.CSVOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return entry.Hash
}

// startLongExplore submits an unbudgeted explore of a 3,000 × 24 binary
// table at s = 0.002 to an engine whose job timeout is 3 s, and returns
// once the job has run for 200 ms.
func startLongExplore(t *testing.T) (*Engine, *Job) {
	t.Helper()
	reg := registry.New(0)
	h := binaryTable(t, reg, 3000, 24)
	e, err := New(Config{Registry: reg, Workers: 1, DefaultTimeout: 3 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	job, err := e.Submit(ExploreSpec{Dataset: h, TruthCol: "truth", PredCol: "pred", Support: 0.002, Metric: "ER"})
	if err != nil {
		t.Fatal(err)
	}
	for job.Snapshot().State == StateQueued {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(200 * time.Millisecond)
	return e, job
}

// TestCancelStopsExploreMine: DELETE reaches the anytime mine. A
// canceled unbudgeted explore ends canceled at once, instead of mining
// on until its timeout cuts it and ending done.
func TestCancelStopsExploreMine(t *testing.T) {
	e, job := startLongExplore(t)
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = e.Shutdown(ctx)
	}()
	canceledAt := time.Now()
	if _, err := e.Cancel(job.ID()); err != nil {
		t.Fatal(err)
	}
	for !job.Snapshot().State.Terminal() && time.Since(canceledAt) < 5*time.Second {
		time.Sleep(time.Millisecond)
	}
	st := job.Snapshot()
	if took := st.Finished.Sub(canceledAt); st.State != StateCanceled || took > time.Second {
		t.Fatalf("canceled explore ended %s (%q) %v after DELETE, want canceled within 1s", st.State, st.Err, took)
	}
	if !strings.Contains(st.Err, context.Canceled.Error()) {
		t.Errorf("canceled explore's error = %q, want the context's", st.Err)
	}
}

// TestShutdownDeadlineStopsExploreMine: Shutdown's deadline reaches the
// anytime mine, so a drain under a 100 ms deadline returns at once
// instead of waiting out the running explore's timeout.
func TestShutdownDeadlineStopsExploreMine(t *testing.T) {
	e, job := startLongExplore(t)
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	if err := e.Shutdown(ctx); err == nil {
		t.Error("shutdown met its deadline despite a running explore")
	}
	if took := time.Since(start); took > time.Second {
		t.Errorf("shutdown with a 100ms deadline returned after %v, want within 1s", took)
	}
	if st := job.Snapshot(); st.State != StateCanceled {
		t.Errorf("running explore ended %s (%q), want canceled by shutdown", st.State, st.Err)
	}
}
