package jobs

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/registry"
)

func sigSpec(h registry.Hash) SignificanceSpec {
	return SignificanceSpec{
		Dataset:  h,
		TruthCol: "truth",
		PredCol:  "pred",
		Support:  0.1,
		Metric:   "FPR",
		Method:   MethodWY,
		Alpha:    0.1,
		// sampleCSV has 14 rows: small B keeps the suite fast.
		Permutations: 200,
		Seed:         5,
		TopK:         10,
	}
}

func TestSignificanceSync(t *testing.T) {
	e, h := testEngine(t, Config{Workers: 1})
	for _, method := range []string{MethodWY, MethodPermFDR, MethodBH} {
		spec := sigSpec(h)
		spec.Method = method
		out, err := e.Significance(context.Background(), spec)
		if err != nil {
			t.Fatalf("%s: %v", method, err)
		}
		if out.Method != method || out.Metric != "FPR" || out.CacheHit {
			t.Fatalf("%s: outcome shape %+v", method, out)
		}
		if out.Hypotheses == 0 {
			t.Fatalf("%s: no hypotheses", method)
		}
		if method == MethodBH {
			if out.Permutations != 0 {
				t.Errorf("bh: permutations %d want 0", out.Permutations)
			}
		} else if out.Permutations != 200 {
			t.Errorf("%s: permutations %d want 200", method, out.Permutations)
		}
		if len(out.Top) > out.Rejected {
			t.Errorf("%s: reported %d of %d rejected", method, len(out.Top), out.Rejected)
		}
		for _, p := range out.Top {
			if p.AdjP < p.P-1e-15 || len(p.Items) == 0 {
				t.Errorf("%s: malformed pattern %+v", method, p)
			}
		}
	}
}

func TestSignificanceExhaustiveTinyDataset(t *testing.T) {
	// sampleCSV has 14 rows — over the exhaustive row cap, and 14! is
	// over the permutation cap, so exhaustive mode must be rejected as
	// bad input, not crash.
	e, h := testEngine(t, Config{Workers: 1})
	spec := sigSpec(h)
	spec.Exhaustive = true
	spec.Permutations = 0
	if _, err := e.Significance(context.Background(), spec); !errors.Is(err, ErrBadInput) {
		t.Fatalf("exhaustive over the row cap: %v, want ErrBadInput", err)
	}
}

// TestSignificanceExhaustiveRespectsPermutationCap: an exhaustive query
// runs n! permutations, so the cap applies to n!. Under a cap of 500 a
// 5-row table (120 orderings) runs and a 6-row one (720) is refused as
// bad input before any permutation runs.
func TestSignificanceExhaustiveRespectsPermutationCap(t *testing.T) {
	e, _ := testEngine(t, Config{Workers: 1, MaxPermutations: 500})
	rows := []string{"A,0,1", "A,1,1", "B,0,0", "B,1,0", "A,0,0", "B,1,1"}
	for _, c := range []struct {
		rows int
		ok   bool
	}{{5, true}, {6, false}} {
		csv := "group,truth,pred\n" + strings.Join(rows[:c.rows], "\n") + "\n"
		entry, _, err := e.cfg.Registry.Register([]byte(csv), dataset.CSVOptions{TrimSpace: true})
		if err != nil {
			t.Fatal(err)
		}
		spec := SignificanceSpec{Dataset: entry.Hash, TruthCol: "truth", PredCol: "pred", Exhaustive: true}
		out, err := e.Significance(context.Background(), spec)
		if c.ok {
			if err != nil || out.Permutations != 120 {
				t.Fatalf("%d rows: outcome %+v, err %v; want 120 permutations", c.rows, out, err)
			}
		} else if !errors.Is(err, ErrBadInput) {
			t.Fatalf("%d rows: err %v, want ErrBadInput", c.rows, err)
		}
	}
	if got := e.SignificanceStatsSnapshot().Permutations; got != 120 {
		t.Errorf("%d permutations run, want the 5-row table's 120 alone", got)
	}
}

func TestSignificanceCacheHit(t *testing.T) {
	e, h := testEngine(t, Config{Workers: 1})
	spec := sigSpec(h)
	first, err := e.Significance(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	second, err := e.Significance(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if first.CacheHit || !second.CacheHit {
		t.Fatalf("cache hits: first=%v second=%v", first.CacheHit, second.CacheHit)
	}
	// The hit is a copy with only CacheHit flipped.
	second.CacheHit = false
	if second.Rejected != first.Rejected || second.Hypotheses != first.Hypotheses ||
		len(second.Top) != len(first.Top) {
		t.Fatalf("cache returned a different outcome: %+v vs %+v", second, first)
	}
	st := e.SignificanceStatsSnapshot()
	if st.Queries != 2 || st.Runs != 1 {
		t.Errorf("stats: %d queries %d runs, want 2/1", st.Queries, st.Runs)
	}
	if st.Permutations != 200 {
		t.Errorf("stats: %d permutations tallied, want 200", st.Permutations)
	}
	if st.Cache.Hits != 1 || st.Cache.Misses != 1 {
		t.Errorf("cache stats: %+v", st.Cache)
	}
	// An equivalent analytic spec collapses its permutation knobs: two
	// bh specs differing only in seed share one cache entry.
	a, b := sigSpec(h), sigSpec(h)
	a.Method, b.Method = MethodBH, MethodBH
	b.Seed, b.Permutations = 999, 777
	if _, err := e.Significance(context.Background(), a); err != nil {
		t.Fatal(err)
	}
	out, err := e.Significance(context.Background(), b)
	if err != nil {
		t.Fatal(err)
	}
	if !out.CacheHit {
		t.Error("normalized bh specs did not share a cache entry")
	}
}

func TestSignificanceValidation(t *testing.T) {
	e, h := testEngine(t, Config{Workers: 1, MaxPermutations: 500})
	cases := []struct {
		name   string
		mutate func(*SignificanceSpec)
	}{
		{"bad support", func(s *SignificanceSpec) { s.Support = 1.5 }},
		{"bad alpha", func(s *SignificanceSpec) { s.Alpha = 1 }},
		{"negative permutations", func(s *SignificanceSpec) { s.Permutations = -1 }},
		{"over permutation limit", func(s *SignificanceSpec) { s.Permutations = 501 }},
		{"unknown method", func(s *SignificanceSpec) { s.Method = "bonferroni" }},
		{"unknown metric", func(s *SignificanceSpec) { s.Metric = "nope" }},
		{"unknown truth column", func(s *SignificanceSpec) { s.TruthCol = "missing" }},
	}
	for _, c := range cases {
		spec := sigSpec(h)
		c.mutate(&spec)
		if _, err := e.Significance(context.Background(), spec); !errors.Is(err, ErrBadInput) {
			t.Errorf("%s: err %v, want ErrBadInput", c.name, err)
		}
	}
	// Defaults: zero alpha, method, metric, topk and permutations all
	// resolve rather than error.
	spec := SignificanceSpec{Dataset: h, Support: 0.1, TruthCol: "truth", PredCol: "pred", Permutations: 100}
	out, err := e.Significance(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if out.Method != MethodWY || out.Metric != "ER" || out.Alpha != 0.05 {
		t.Errorf("defaults: %+v", out)
	}
}

func TestSignificanceUnknownDataset(t *testing.T) {
	e, _ := testEngine(t, Config{Workers: 1})
	spec := sigSpec(registry.Hash("sha256:deadbeef"))
	if _, err := e.Significance(context.Background(), spec); err == nil {
		t.Fatal("unknown dataset accepted")
	}
}

func TestSubmitSignificanceLifecycle(t *testing.T) {
	e, h := testEngine(t, Config{Workers: 2})
	job, err := e.Submit(sigSpec(h))
	if err != nil {
		t.Fatal(err)
	}
	st := waitTerminal(t, job)
	if st.State != StateDone {
		t.Fatalf("state %s (err %q)", st.State, st.Err)
	}
	out := outcomeOf[*SignificanceOutcome](t, job)
	if out.Method != MethodWY || out.Permutations != 200 || out.Hypotheses == 0 {
		t.Fatalf("outcome: %+v", out)
	}
	// The final snapshot closes the stream.
	snap := job.Partial()
	if snap == nil || snap.Reason != "complete" {
		t.Fatalf("final snapshot: %+v", snap)
	}
	// The job holds its own normalized spec. An analysis job's outcome
	// is its mined result.
	if spec, ok := job.Work().(SignificanceSpec); !ok || spec.Alpha != 0.1 || spec.Metric != "FPR" || spec.TopK != 10 {
		t.Errorf("significance job work = %#v", job.Work())
	}
	plain, err := e.Submit(sampleSpec(h))
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, plain)
	outcomeOf[*core.Result](t, plain)
}

func TestSubmitSignificanceValidatesEarly(t *testing.T) {
	e, h := testEngine(t, Config{Workers: 1})
	spec := sigSpec(h)
	spec.Alpha = 2
	if _, err := e.Submit(spec); !errors.Is(err, ErrBadInput) {
		t.Fatalf("bad alpha submitted: %v", err)
	}
}

func TestSignificanceStatsInEngineStats(t *testing.T) {
	e, h := testEngine(t, Config{Workers: 1})
	if _, err := e.Significance(context.Background(), sigSpec(h)); err != nil {
		t.Fatal(err)
	}
	s := e.Stats()
	if s.Significance.Queries != 1 || s.Significance.Runs != 1 {
		t.Errorf("engine stats significance slice: %+v", s.Significance)
	}
}
