package core

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/fpm"
	"repro/internal/permtest"
	"repro/internal/stats"
)

// Permutation-grounded significance (DESIGN.md §15). The analytic
// Benjamini–Hochberg pass in significance.go treats the itemset tests
// as if they were independent; overlapping itemsets are anything but.
// The machinery here resamples instead: outcome labels are permuted
// (covers are invariant, so each permutation is one tally re-fold via
// internal/permtest), and either the Westfall–Young step-down max-T
// construction controls the family-wise error rate under the true
// dependence structure, or BH runs over the raw permutation p-values
// (permutation FDR).

// PermutationOutcome is one full permutation test over every pattern on
// which the metric is defined.
type PermutationOutcome struct {
	// Tested annotates each hypothesis — in mining order — with its raw
	// permutation p-value (P) and Westfall–Young adjusted p-value (AdjP).
	Tested []Significant
	// Permutations is the number actually run; Exhaustive marks the
	// exact small-N enumeration regime.
	Permutations int
	Exhaustive   bool
}

// PermutationTest runs Westfall–Young max-T permutation testing over
// the Welch statistics of every mined pattern on which the metric is
// defined (the same hypothesis set RankAll scores). The context cancels
// the permutation schedule within one permutation per worker.
func (r *Result) PermutationTest(ctx context.Context, m Metric, cfg permtest.Config) (*PermutationOutcome, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	itemsets := make([]fpm.Itemset, 0, len(r.Patterns))
	ranked := make([]Ranked, 0, len(r.Patterns))
	for _, p := range r.Patterns {
		if rk, ok := r.ranked(p, m); ok {
			itemsets = append(itemsets, p.Items)
			ranked = append(ranked, rk)
		}
	}
	eng, err := permtest.New(r.DB, itemsets, m.Pos, m.Neg)
	if err != nil {
		return nil, fmt.Errorf("core: permutation test: %w", err)
	}
	pr, err := eng.Run(ctx, cfg)
	if err != nil {
		return nil, err
	}
	out := &PermutationOutcome{
		Tested:       make([]Significant, len(ranked)),
		Permutations: pr.Permutations,
		Exhaustive:   pr.Exhaustive,
	}
	for i, rk := range ranked {
		out.Tested[i] = Significant{Ranked: rk, P: pr.RawP[i], AdjP: pr.AdjP[i]}
	}
	return out, nil
}

// SignificantPatternsWY returns the patterns surviving Westfall–Young
// family-wise error control at level alpha, sorted by the given order.
// It is the permutation-grounded counterpart of SignificantPatterns:
// AdjP is the step-down max-T adjusted p-value, valid under the
// dependence between overlapping itemsets.
func (r *Result) SignificantPatternsWY(ctx context.Context, m Metric, alpha float64, order RankOrder, cfg permtest.Config) ([]Significant, error) {
	po, err := r.PermutationTest(ctx, m, cfg)
	if err != nil {
		return nil, err
	}
	out := make([]Significant, 0, len(po.Tested))
	for _, s := range po.Tested {
		if s.AdjP <= alpha {
			out = append(out, s)
		}
	}
	sortSignificant(out, order)
	return out, nil
}

// SignificantPatternsPermFDR returns the patterns surviving
// Benjamini–Hochberg FDR control at level q over the raw permutation
// p-values, sorted by the given order — analytic-free FDR: the per-test
// p-values come from resampling, only the multiplicity correction is
// BH. AdjP carries the BH-adjusted permutation p-value.
func (r *Result) SignificantPatternsPermFDR(ctx context.Context, m Metric, q float64, order RankOrder, cfg permtest.Config) ([]Significant, error) {
	po, err := r.PermutationTest(ctx, m, cfg)
	if err != nil {
		return nil, err
	}
	pvals := make([]float64, len(po.Tested))
	for i, s := range po.Tested {
		pvals[i] = s.P
	}
	reject, adjusted := stats.BenjaminiHochberg(pvals, q)
	out := make([]Significant, 0, len(po.Tested))
	for i, s := range po.Tested {
		if reject[i] {
			s.AdjP = adjusted[i]
			out = append(out, s)
		}
	}
	sortSignificant(out, order)
	return out, nil
}

// sortSignificant orders significant patterns with the RankAll
// comparator, so every significance API reports in ranking order.
func sortSignificant(out []Significant, order RankOrder) {
	sort.Slice(out, func(i, j int) bool {
		return rankedBetter(&out[i].Ranked, &out[j].Ranked, order)
	})
}

// MaxEntBaseline is the independence-model significance baseline of a
// pattern's support: how far the observed support deviates from the
// maximum-entropy (independence) model over the pattern's items, fit by
// IPF on the singleton marginals. A pattern whose support the
// independence model already explains (large P) is structurally
// unremarkable no matter how divergent its outcome rate; a tiny P marks
// genuine item interaction.
type MaxEntBaseline struct {
	ExpectedSupport float64 // model-expected relative support
	Observed        float64 // observed relative support
	Leverage        float64 // observed − expected
	P               float64 // two-sided binomial tail under the model
	Iterations      int     // IPF sweeps to convergence
}

// MaxEntBaselineOf fits the baseline for one frequent itemset. Every
// singleton of a frequent itemset is itself frequent (downward
// closure), so the marginals are always available from the result.
func (r *Result) MaxEntBaselineOf(is fpm.Itemset) (MaxEntBaseline, error) {
	if len(is) == 0 {
		return MaxEntBaseline{}, fmt.Errorf("core: max-entropy baseline of the empty itemset is trivial")
	}
	p, ok := r.Lookup(is)
	if !ok {
		return MaxEntBaseline{}, fmt.Errorf("core: itemset %s not frequent at support %v",
			r.DB.Catalog.Format(is), r.MinSup)
	}
	n := int64(r.DB.NumRows())
	marg := make([]float64, 0, len(is))
	for _, it := range is {
		sp, ok := r.Lookup(fpm.Itemset{it})
		if !ok {
			return MaxEntBaseline{}, fmt.Errorf("core: singleton %s missing from the result (corrupt pattern set?)",
				r.DB.Catalog.Format(fpm.Itemset{it}))
		}
		pj := float64(sp.Tally.Total()) / float64(n)
		if pj >= 1 {
			continue // a universal item constrains nothing
		}
		marg = append(marg, pj)
	}
	expected, iters := 1.0, 0
	if len(marg) > 0 {
		cells, it, err := stats.MaxEntIPF(marg, 0, 0)
		if err != nil {
			return MaxEntBaseline{}, fmt.Errorf("core: max-entropy fit: %w", err)
		}
		expected = cells[len(cells)-1]
		iters = it
	}
	obsCount := p.Tally.Total()
	observed := float64(obsCount) / float64(n)
	return MaxEntBaseline{
		ExpectedSupport: expected,
		Observed:        observed,
		Leverage:        observed - expected,
		P:               stats.BinomialTwoSidedP(n, obsCount, expected),
		Iterations:      iters,
	}, nil
}
