package divexplorer

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/experiments"
)

// publicFixture builds a small dataset through the public API only.
func publicFixture(t testing.TB) (*Data, []bool, []bool) {
	t.Helper()
	b := NewDataBuilder("group", "region")
	var truth, pred []bool
	add := func(g, r string, tv, pv bool, n int) {
		for i := 0; i < n; i++ {
			if err := b.Add(g, r); err != nil {
				t.Fatal(err)
			}
			truth = append(truth, tv)
			pred = append(pred, pv)
		}
	}
	add("A", "north", false, true, 8) // FP cluster in group A
	add("A", "north", false, false, 2)
	add("A", "south", false, true, 3)
	add("A", "south", false, false, 7)
	add("B", "north", false, true, 1)
	add("B", "north", false, false, 9)
	add("B", "south", true, true, 6)
	add("B", "south", true, false, 4)
	b.SortDomains()
	d, err := b.Dataset()
	if err != nil {
		t.Fatal(err)
	}
	return d, truth, pred
}

func TestPublicPipeline(t *testing.T) {
	d, truth, pred := publicFixture(t)
	exp, err := NewClassifierExplorer(d, truth, pred)
	if err != nil {
		t.Fatal(err)
	}
	res, err := exp.Explore(0.05)
	if err != nil {
		t.Fatal(err)
	}
	top := res.TopK(FPR, 3, ByDivergence)
	if len(top) == 0 {
		t.Fatal("no patterns")
	}
	if !strings.Contains(res.Format(top[0].Items), "group=A") {
		t.Errorf("top FPR pattern = %s, want to involve group=A", res.Format(top[0].Items))
	}
	// Shapley through the public surface.
	is, err := res.Itemset("group=A", "region=north")
	if err != nil {
		t.Fatal(err)
	}
	cs, err := res.LocalShapley(is, FPR)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, c := range cs {
		sum += c.Value
	}
	div, ok := res.Divergence(is, FPR)
	if !ok {
		t.Fatal("itemset infrequent")
	}
	if diff := sum - div; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("Shapley efficiency violated: %v vs %v", sum, div)
	}
	// Global divergence and corrective items run.
	if g := res.GlobalDivergence(FPR); len(g) == 0 {
		t.Error("empty global divergence")
	}
	_ = res.CorrectiveItems(FPR)
	// Lattice.
	l, err := res.Lattice(is, FPR, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(l.ASCII(), "group=A") {
		t.Error("lattice rendering missing items")
	}
}

func TestExploreMinerOption(t *testing.T) {
	d, truth, pred := publicFixture(t)
	exp, err := NewClassifierExplorer(d, truth, pred)
	if err != nil {
		t.Fatal(err)
	}
	ap, err := exp.Explore(0.05, WithMiner("apriori"))
	if err != nil {
		t.Fatal(err)
	}
	fg, err := exp.Explore(0.05, WithMiner("fpgrowth"))
	if err != nil {
		t.Fatal(err)
	}
	if ap.NumPatterns() != fg.NumPatterns() {
		t.Errorf("miners disagree: %d vs %d", ap.NumPatterns(), fg.NumPatterns())
	}
	par, err := exp.Explore(0.05, WithMiner("fpgrowth-parallel"))
	if err != nil {
		t.Fatal(err)
	}
	if par.NumPatterns() != fg.NumPatterns() {
		t.Error("parallel disagrees with fpgrowth")
	}
	for _, name := range []string{"carpenter", "eclat"} {
		if _, err := exp.Explore(0.05, WithMiner(name)); err == nil {
			t.Errorf("unknown miner %q accepted", name)
		}
	}
}

// TestExploreTopKMatchesResultTopK: the streaming leaderboard is the
// exhaustive ranking's prefix, ties included. heart and german at
// s=0.1 carry many patterns whose divergences tie exactly, which is
// where a heap ordered by the ranking key alone disagreed.
func TestExploreTopKMatchesResultTopK(t *testing.T) {
	for _, name := range []string{"heart", "german"} {
		gen, err := datagen.ByName(name, experiments.Seed)
		if err != nil {
			t.Fatal(err)
		}
		exp, err := NewClassifierExplorer(gen.Data, gen.Truth, gen.Pred)
		if err != nil {
			t.Fatal(err)
		}
		res, err := exp.Explore(0.1)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range []Metric{FPR, FNR, ErrorRate} {
			for _, order := range []RankOrder{ByDivergence, ByAbsDivergence, ByNegDivergence} {
				for _, k := range []int{1, 10} {
					got, err := exp.ExploreTopK(0.1, m, k, order)
					if err != nil {
						t.Fatal(err)
					}
					if want := res.TopK(m, k, order); !reflect.DeepEqual(got, want) {
						t.Errorf("%s %s order=%v k=%d: ExploreTopK differs from Result.TopK\n got %v\nwant %v",
							name, m.Name, order, k, got, want)
					}
				}
			}
		}
	}
}

func TestOutcomeExplorer(t *testing.T) {
	d, truth, _ := publicFixture(t)
	// Outcome = ground truth positive rate: OutcomeT where truth, else F.
	exp, err := NewOutcomeExplorer(d, func(row int) Outcome {
		if truth[row] {
			return OutcomeTrue
		}
		return OutcomeFalse
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := exp.Explore(0.05)
	if err != nil {
		t.Fatal(err)
	}
	// group=B region=south is the only positive region.
	is, err := res.Itemset("group=B", "region=south")
	if err != nil {
		t.Fatal(err)
	}
	div, ok := res.Divergence(is, OutcomeRate)
	if !ok || div <= 0 {
		t.Errorf("positive-rate divergence = %v, %v; want positive", div, ok)
	}
	// Invalid outcome function values are rejected.
	if _, err := NewOutcomeExplorer(d, func(int) Outcome { return 9 }); err == nil {
		t.Error("invalid outcome value accepted")
	}
	if _, err := NewOutcomeExplorer(d, nil); err == nil {
		t.Error("nil outcome function accepted")
	}
}

func TestReadCSVAndBoolColumn(t *testing.T) {
	in := "x,label,pred\na,1,0\nb,0,1\na,true,false\n"
	d, err := ReadCSV(strings.NewReader(in), CSVOptions{})
	if err != nil {
		t.Fatal(err)
	}
	truth, err := ParseBoolColumn(d, "label")
	if err != nil {
		t.Fatal(err)
	}
	if !truth[0] || truth[1] || !truth[2] {
		t.Errorf("truth = %v", truth)
	}
	if _, err := ParseBoolColumn(d, "x"); err == nil {
		t.Error("non-Boolean column parsed")
	}
	if _, err := ParseBoolColumn(d, "ghost"); err == nil {
		t.Error("unknown column parsed")
	}
}

func TestDiscretizeHelpers(t *testing.T) {
	in := "v,cat\n1,a\n2,a\n3,b\n4,b\n5,a\n6,b\n"
	d, err := ReadCSV(strings.NewReader(in), CSVOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ew, err := DiscretizeEqualWidth(d, "v", 2)
	if err != nil {
		t.Fatal(err)
	}
	if got := ew.Attrs[ew.AttrIndex("v")].Cardinality(); got != 2 {
		t.Errorf("equal-width bins = %d, want 2", got)
	}
	ef, err := DiscretizeEqualFrequency(d, "v", 3)
	if err != nil {
		t.Fatal(err)
	}
	if got := ef.Attrs[ef.AttrIndex("v")].Cardinality(); got < 2 {
		t.Errorf("equal-frequency bins = %d, want >= 2", got)
	}
	cp, err := DiscretizeCutPoints(d, "v", []float64{3})
	if err != nil {
		t.Fatal(err)
	}
	if got := cp.Attrs[cp.AttrIndex("v")].Cardinality(); got != 2 {
		t.Errorf("cut-point bins = %d, want 2", got)
	}
	// Errors surface cleanly.
	if _, err := DiscretizeEqualWidth(d, "cat", 2); err == nil {
		t.Error("non-numeric column discretized")
	}
	if _, err := DiscretizeEqualWidth(d, "ghost", 2); err == nil {
		t.Error("unknown column discretized")
	}
}

func TestMetricsHelpers(t *testing.T) {
	if len(Metrics()) < 9 {
		t.Errorf("Metrics() lists %d metrics", len(Metrics()))
	}
	m, err := MetricByName("ACC")
	if err != nil || m.Name != "ACC" {
		t.Errorf("MetricByName(ACC) = %v, %v", m, err)
	}
}

// The embedded core analyses are reachable through the public Result:
// FDR-significant patterns, Bayesian credible ranking, Monte Carlo
// Shapley, and CSV export.
func TestPublicAdvancedAnalyses(t *testing.T) {
	d, truth, pred := publicFixture(t)
	exp, err := NewClassifierExplorer(d, truth, pred)
	if err != nil {
		t.Fatal(err)
	}
	res, err := exp.Explore(0.05)
	if err != nil {
		t.Fatal(err)
	}
	sig := res.SignificantPatterns(FPR, 0.1, ByAbsDivergence)
	for _, s := range sig {
		if s.AdjP < s.P-1e-15 {
			t.Error("adjusted p below raw p")
		}
	}
	cred := res.TopKCredible(FPR, 3, 0.95)
	if len(cred) == 0 {
		t.Fatal("no credible ranking")
	}
	if !(cred[0].RateLo <= cred[0].Rate && cred[0].Rate <= cred[0].RateHi) {
		t.Error("credible interval malformed")
	}
	is, err := res.Itemset("group=A", "region=north")
	if err != nil {
		t.Fatal(err)
	}
	exact, err := res.LocalShapley(is, FPR)
	if err != nil {
		t.Fatal(err)
	}
	approx, err := res.ApproxLocalShapley(is, FPR, ApproxShapleyConfig{Permutations: 2000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := range exact {
		diff := exact[i].Value - approx[i].Value
		if diff < -0.03 || diff > 0.03 {
			t.Errorf("approx Shapley off: %v vs %v", approx[i].Value, exact[i].Value)
		}
	}
	var buf strings.Builder
	if err := res.WriteCSV(&buf, FPR, ByDivergence); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "itemset,") {
		t.Error("CSV export malformed")
	}
}

func TestDiscretizeMDLPPublic(t *testing.T) {
	b := NewDataBuilder("v", "other")
	var labels []bool
	for i := 0; i < 200; i++ {
		x := float64(i)
		if err := b.Add(fmt.Sprintf("%g", x), "c"); err != nil {
			t.Fatal(err)
		}
		labels = append(labels, x >= 100)
	}
	d, err := b.Dataset()
	if err != nil {
		t.Fatal(err)
	}
	out, err := DiscretizeMDLP(d, "v", labels)
	if err != nil {
		t.Fatal(err)
	}
	if got := out.Attrs[out.AttrIndex("v")].Cardinality(); got != 2 {
		t.Errorf("MDLP bins = %d, want 2 for a single threshold", got)
	}
	if _, err := DiscretizeMDLP(d, "v", labels[:5]); err == nil {
		t.Error("mismatched labels accepted")
	}
}
