package core

import (
	"context"
	"fmt"
	"math"
	"sort"

	"repro/internal/fpm"
	"repro/internal/stats"
)

// Pattern is one frequent itemset together with its outcome tally.
type Pattern struct {
	Items fpm.Itemset
	Tally fpm.Tally
}

// Result holds the output of one exploration: every frequent itemset with
// its tally, indexed for O(1) subset lookups. All divergence, Shapley,
// corrective and pruning computations are served from here without
// touching the data again.
type Result struct {
	DB       *fpm.TxDB
	MinSup   float64
	MinCount int64
	Miner    string

	Patterns []Pattern
	index    map[string]int
	// parents is the parent index (DESIGN.md §17): walking Patterns in
	// order, each pattern's |Items| entries give the position in Patterns
	// of the pattern without its j-th item, emptyParent for the empty
	// itemset and missingParent when that subset was not mined. Built
	// once by newResult and never mutated.
	parents []int32
	total   fpm.Tally
}

// Options configures an exploration.
type Options struct {
	// Miner selects the frequent-pattern-mining algorithm; FP-growth when
	// nil, matching the paper's experimental setup.
	Miner fpm.Miner
}

// Explore runs Algorithm 1: mine all itemsets with support >= minSup and
// collect their outcome tallies.
func Explore(db *fpm.TxDB, minSup float64, opts Options) (*Result, error) {
	// lint:ignore ctxflow Explore is the documented no-cancellation compatibility shim over ExploreContext; cancelable callers use ExploreContext directly
	return ExploreContext(context.Background(), db, minSup, opts)
}

// ExploreContext is Explore under a context: when the configured miner
// supports cancellation (fpm.ContextMiner), a canceled context aborts the
// mine at the next tree-recursion boundary and the error wraps ctx.Err().
// The async job engine and the HTTP server use this so canceled jobs and
// disconnected clients stop burning CPU.
//
// lint:hot
func ExploreContext(ctx context.Context, db *fpm.TxDB, minSup float64, opts Options) (*Result, error) {
	if minSup < 0 || minSup > 1 {
		return nil, fmt.Errorf("core: support threshold %v out of [0,1]", minSup)
	}
	miner := opts.Miner
	if miner == nil {
		miner = fpm.FPGrowth{}
	}
	minCount := fpm.MinCount(db.NumRows(), minSup)
	mined, err := fpm.MineWith(ctx, miner, db, minCount)
	if err != nil {
		return nil, fmt.Errorf("core: mining: %w", err)
	}
	patterns := make([]Pattern, len(mined))
	for i, p := range mined {
		patterns[i] = Pattern{Items: p.Items, Tally: p.Tally}
	}
	return newResult(db, minSup, minCount, miner.Name(), patterns), nil
}

// NumPatterns returns the number of frequent itemsets found (excluding
// the empty itemset).
func (r *Result) NumPatterns() int { return len(r.Patterns) }

// Total returns the tally of the whole dataset (the empty itemset).
func (r *Result) Total() fpm.Tally { return r.total }

// Lookup finds the mined pattern for an itemset. The empty itemset is
// always found and maps to the dataset totals.
func (r *Result) Lookup(is fpm.Itemset) (Pattern, bool) {
	if len(is) == 0 {
		return Pattern{Items: nil, Tally: r.total}, true
	}
	// Keys of up to 32 items are built on the stack, and a map index with
	// a string(bytes) key does not allocate.
	var key [4 * 32]byte
	i, ok := r.index[string(appendKey(key[:0], is))]
	if !ok {
		return Pattern{}, false
	}
	return r.Patterns[i], true
}

// Support returns the relative support of a tally.
func (r *Result) Support(t fpm.Tally) float64 {
	return float64(t.Total()) / float64(r.DB.NumRows())
}

// Rate returns the raw outcome rate k⁺/(k⁺+k⁻) of a tally under metric m
// (Eq. 2). When no instance has a non-⊥ outcome the rate is undefined and
// NaN is returned.
func (r *Result) Rate(t fpm.Tally, m Metric) float64 {
	kp, kn := m.Counts(t)
	if kp+kn == 0 {
		return math.NaN()
	}
	return float64(kp) / float64(kp+kn)
}

// PosteriorRate returns the Bayesian posterior over the rate (Sec. 3.3),
// which is well defined even for all-⊥ tallies.
func (r *Result) PosteriorRate(t fpm.Tally, m Metric) stats.PosteriorRate {
	kp, kn := m.Counts(t)
	return stats.NewPosteriorRate(float64(kp), float64(kn))
}

// GlobalRate returns f(D), the metric's rate over the whole dataset.
func (r *Result) GlobalRate(m Metric) float64 { return r.Rate(r.total, m) }

// safeRate returns the raw rate when defined and falls back to the
// posterior mean otherwise, so lattice-wide aggregates (Shapley sums,
// global divergence) stay finite. The fallback only triggers on itemsets
// where the metric is entirely ⊥.
func (r *Result) safeRate(t fpm.Tally, m Metric) float64 {
	if rate := r.Rate(t, m); !math.IsNaN(rate) {
		return rate
	}
	return r.PosteriorRate(t, m).Mean()
}

// DivergenceOfTally returns Δ_f for a tally: rate(t) − rate(D) (Eq. 1),
// with the safeRate fallback for all-⊥ tallies.
func (r *Result) DivergenceOfTally(t fpm.Tally, m Metric) float64 {
	return r.safeRate(t, m) - r.safeRate(r.total, m)
}

// Divergence returns Δ_f(I) for a frequent itemset (Eq. 1). The second
// return is false if the itemset is not frequent (not in the result).
// The empty itemset has divergence 0 by definition.
func (r *Result) Divergence(is fpm.Itemset, m Metric) (float64, bool) {
	if len(is) == 0 {
		return 0, true
	}
	p, ok := r.Lookup(is)
	if !ok {
		return 0, false
	}
	return r.DivergenceOfTally(p.Tally, m), true
}

// TStat returns the Welch t-statistic comparing the posterior rate on the
// tally with the posterior rate on the whole dataset (Sec. 3.3).
func (r *Result) TStat(t fpm.Tally, m Metric) float64 {
	return stats.WelchTPosterior(r.PosteriorRate(t, m), r.PosteriorRate(r.total, m))
}

// Ranked is a pattern annotated with the statistics used for ranking and
// reporting.
type Ranked struct {
	Items      fpm.Itemset
	Tally      fpm.Tally
	Support    float64
	Rate       float64
	Divergence float64
	T          float64
}

// ranked builds the annotation for one pattern; ok is false when the
// metric is undefined (all ⊥) on the pattern.
func (r *Result) ranked(p Pattern, m Metric) (Ranked, bool) {
	rate := r.Rate(p.Tally, m)
	if math.IsNaN(rate) {
		return Ranked{}, false
	}
	return Ranked{
		Items:      p.Items,
		Tally:      p.Tally,
		Support:    r.Support(p.Tally),
		Rate:       rate,
		Divergence: r.DivergenceOfTally(p.Tally, m),
		T:          r.TStat(p.Tally, m),
	}, true
}

// Describe annotates an arbitrary frequent itemset. It fails when the
// itemset is not frequent or the metric is undefined on it.
func (r *Result) Describe(is fpm.Itemset, m Metric) (Ranked, error) {
	p, ok := r.Lookup(is)
	if !ok {
		return Ranked{}, fmt.Errorf("core: itemset %s not frequent at support %v",
			r.DB.Catalog.Format(is), r.MinSup)
	}
	rk, ok := r.ranked(p, m)
	if !ok {
		return Ranked{}, fmt.Errorf("core: metric %s undefined on %s (all outcomes ⊥)",
			m.Name, r.DB.Catalog.Format(is))
	}
	return rk, nil
}

// RankOrder selects the sort direction for TopK.
type RankOrder int

const (
	// ByDivergence ranks by divergence descending (the paper's tables).
	ByDivergence RankOrder = iota
	// ByAbsDivergence ranks by |divergence| descending.
	ByAbsDivergence
	// ByNegDivergence ranks by divergence ascending (most negative first).
	ByNegDivergence
)

// TopK returns the k most divergent patterns under the metric and order:
// the first k of RankAll, selected in O(n log k) without annotating or
// sorting the rest. Patterns on which the metric is undefined are
// skipped. Ties break by higher t-statistic (more statistically
// significant first), then higher support, then lexicographic itemset
// order, for determinism. k <= 0 yields an empty result.
//
// lint:hot
func (r *Result) TopK(m Metric, k int, order RankOrder) []Ranked {
	return r.selectRanked(m, k, order, nil)
}

// selectRanked returns the k best patterns under rankedBetter among those
// keep marks (every pattern when keep is nil), best first.
func (r *Result) selectRanked(m Metric, k int, order RankOrder, keep []bool) []Ranked {
	if k <= 0 {
		return []Ranked{}
	}
	sel := newBestK(k, len(r.Patterns), func(a, b *Ranked) bool { return rankedBetter(a, b, order) })
	global := r.safeRate(r.total, m)
	for i := range r.Patterns {
		p := &r.Patterns[i]
		if keep != nil && !keep[i] {
			continue
		}
		rate := r.Rate(p.Tally, m)
		if math.IsNaN(rate) {
			continue
		}
		// A pattern whose key is already below the weakest kept one cannot
		// enter, so it skips the Welch t of a full annotation. rate−global
		// is DivergenceOfTally on a defined tally.
		if w := sel.weakest(); w != nil && orderKey(order, rate-global) < orderKey(order, w.Divergence) {
			continue
		}
		rk, _ := r.ranked(*p, m)
		sel.offer(rk)
	}
	return sel.sorted()
}

// RankAll annotates and sorts all patterns under the metric and order.
func (r *Result) RankAll(m Metric, order RankOrder) []Ranked {
	rs := make([]Ranked, 0, len(r.Patterns))
	for _, p := range r.Patterns {
		if rk, ok := r.ranked(p, m); ok {
			rs = append(rs, rk)
		}
	}
	sort.Slice(rs, func(i, j int) bool {
		return rankedBetter(&rs[i], &rs[j], order)
	})
	return rs
}

// NumDefined counts the patterns on which the metric is defined: the
// patterns RankAll ranks, and the hypotheses a significance test over
// them makes.
func (r *Result) NumDefined(m Metric) int {
	n := 0
	for i := range r.Patterns {
		if definedOn(r.Patterns[i].Tally, m) {
			n++
		}
	}
	return n
}

// definedOn reports whether the metric has at least one non-⊥ outcome
// on the tally, i.e. whether Rate is a number.
func definedOn(t fpm.Tally, m Metric) bool {
	kp, kn := m.Counts(t)
	return kp+kn != 0
}

// orderKey is the primary ranking key of a divergence under an order.
func orderKey(order RankOrder, div float64) float64 {
	switch order {
	case ByAbsDivergence:
		return math.Abs(div)
	case ByNegDivergence:
		return -div
	default:
		return div
	}
}

// rankedBetter is the one total order every API that reports patterns in
// ranking order uses — TopK, RankAll, the significance APIs and the
// anytime heap: ranking key descending, then Welch t descending, then
// support descending, then lexicographic itemset. Because it is total,
// the top-k set under it is unique no matter what order candidates
// arrive in.
func rankedBetter(a, b *Ranked, order RankOrder) bool {
	ka, kb := orderKey(order, a.Divergence), orderKey(order, b.Divergence)
	// lint:ignore floatcmp exact tie-break on computed sort keys keeps ordering deterministic
	if ka != kb {
		return ka > kb
	}
	// lint:ignore floatcmp exact tie-break on computed sort keys keeps ordering deterministic
	if a.T != b.T {
		return a.T > b.T
	}
	// lint:ignore floatcmp exact tie-break on computed sort keys keeps ordering deterministic
	if a.Support != b.Support {
		return a.Support > b.Support
	}
	return lessItemsets(a.Items, b.Items)
}

func lessItemsets(a, b fpm.Itemset) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

// FrequentItems returns all frequent single items.
func (r *Result) FrequentItems() []fpm.Item {
	var out []fpm.Item
	for _, p := range r.Patterns {
		if len(p.Items) == 1 {
			out = append(out, p.Items[0])
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// IndividualDivergence returns the divergence Δ(α) of each frequent
// single item — the "individual" measure contrasted with global
// divergence in Sec. 4.4. Items on which the metric is undefined are
// reported with NaN.
func (r *Result) IndividualDivergence(m Metric) map[fpm.Item]float64 {
	out := make(map[fpm.Item]float64)
	for _, p := range r.Patterns {
		if len(p.Items) == 1 {
			out[p.Items[0]] = r.individual(p.Tally, m)
		}
	}
	return out
}

// individual is the divergence of a singleton's tally, NaN when the
// metric is undefined on it.
func (r *Result) individual(t fpm.Tally, m Metric) float64 {
	if !definedOn(t, m) {
		return math.NaN()
	}
	return r.DivergenceOfTally(t, m)
}
