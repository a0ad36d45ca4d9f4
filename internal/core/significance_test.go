package core

import (
	"math"
	"testing"
)

func TestCredibleIntervalBracketsRate(t *testing.T) {
	db := fixtureDB(t)
	r := explore(t, db, 0.05)
	for _, p := range r.Patterns {
		rate := FPR.Rate(p.Tally)
		if math.IsNaN(rate) {
			continue
		}
		lo, hi := r.CredibleInterval(p.Tally, FPR, 0.95)
		if !(lo <= hi && lo >= 0 && hi <= 1) {
			t.Fatalf("malformed interval [%v, %v]", lo, hi)
		}
		// The posterior mean always lies inside the equal-tailed interval.
		mean := r.PosteriorRate(p.Tally, FPR).Mean()
		if mean < lo || mean > hi {
			t.Fatalf("posterior mean %v outside [%v, %v]", mean, lo, hi)
		}
	}
}

func TestPValueMatchesTStat(t *testing.T) {
	db := fixtureDB(t)
	r := explore(t, db, 0.05)
	g1, _ := r.Lookup(mustItemset(t, db, "g=1"))
	p := r.PValue(g1.Tally, FPR)
	if p <= 0 || p >= 1 {
		t.Fatalf("p-value %v out of range", p)
	}
	// Larger |t| -> smaller p, on synthetic tallies.
	var weak, strong [8]int64
	weak[ClassFP], weak[ClassTN] = 6, 4
	strong[ClassFP], strong[ClassTN] = 60, 40
	if r.PValue(strong, FPR) >= r.PValue(weak, FPR) {
		t.Error("p-value did not shrink with more evidence")
	}
}

func TestSignificantPatternsFDR(t *testing.T) {
	db := randomClassifierDB(t, 8, 3, 2, 400)
	r := explore(t, db, 0.02)
	sig := r.SignificantPatterns(ErrorRate, 0.05, ByAbsDivergence)
	all := r.RankAll(ErrorRate, ByAbsDivergence)
	if len(sig) > len(all) {
		t.Fatal("more significant patterns than patterns")
	}
	for _, s := range sig {
		if s.P > 0.05 && s.AdjP > 0.05 {
			// BH can reject p-values above q only in rare step-up
			// configurations; adjusted values must still be <= q-ish.
			t.Errorf("rejected pattern with p=%v adj=%v", s.P, s.AdjP)
		}
		if s.AdjP < s.P-1e-15 {
			t.Errorf("adjusted p %v below raw %v", s.AdjP, s.P)
		}
	}
	// A stricter q never yields more rejections.
	strict := r.SignificantPatterns(ErrorRate, 0.001, ByAbsDivergence)
	if len(strict) > len(sig) {
		t.Errorf("q=0.001 rejected %d > q=0.05 rejected %d", len(strict), len(sig))
	}
}

// On the planted fixture, the planted divergent subgroup survives FDR
// while random noise patterns mostly do not.
func TestSignificantPatternsFindPlanted(t *testing.T) {
	r := correctiveFixture(t)
	db := r.DB
	sig := r.SignificantPatterns(FPR, 0.05, ByDivergence)
	if len(sig) == 0 {
		t.Fatal("no significant patterns")
	}
	found := false
	g1hi := mustItemset(t, db, "g=1", "p=many")
	for _, s := range sig {
		if s.Items.Equal(g1hi) {
			found = true
		}
	}
	if !found {
		t.Error("planted subgroup (g=1, p=many) not significant")
	}
}

func TestDescribeCredible(t *testing.T) {
	r := correctiveFixture(t)
	db := r.DB
	is := mustItemset(t, db, "g=1", "p=many")
	dc, err := r.DescribeCredible(is, FPR, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if !(dc.RateLo < dc.Rate && dc.Rate < dc.RateHi) {
		t.Errorf("interval [%v, %v] does not bracket rate %v", dc.RateLo, dc.RateHi, dc.Rate)
	}
	// Strongly divergent subgroup: posterior sign probability near 1.
	if dc.PosteriorSign < 0.95 {
		t.Errorf("PosteriorSign = %v, want near 1", dc.PosteriorSign)
	}
	// Errors propagate.
	if _, err := r.DescribeCredible(mustItemset(t, db, "g=1").Union(mustItemset(t, db, "g=0")), FPR, 0.95); err == nil {
		t.Error("nonsense itemset accepted")
	}
}

func TestTopKCredible(t *testing.T) {
	r := correctiveFixture(t)
	top := r.TopKCredible(FPR, 4, 0.95)
	if len(top) == 0 {
		t.Fatal("empty credible ranking")
	}
	for i := 1; i < len(top); i++ {
		if top[i].PosteriorSign > top[i-1].PosteriorSign+1e-12 {
			t.Errorf("credible ranking not sorted at %d", i)
		}
	}
	// The top entry must be on the divergent side with high probability.
	if top[0].PosteriorSign < 0.9 {
		t.Errorf("top credible pattern has sign prob %v", top[0].PosteriorSign)
	}
}
