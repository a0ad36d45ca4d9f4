// Package permtest implements Westfall–Young max-T permutation testing
// over the Welch statistics of mined itemsets (DESIGN.md §15).
//
// The engine permutes outcome labels only. Itemset covers and supports
// depend on attribute values alone, so a label permutation changes no
// cover: each pass writes the permuted labelling once as an fpm.Split,
// and every hypothesis is then one fpm.CoverIndex fold — two
// AND-and-popcount passes for a bitset cover, one code byte per covered
// row for a row list — with no re-mining and no allocation on the warm
// path. The folded counts are integers, so every statistic is
// bit-identical to a per-row tally. Per permutation the engine computes
// every hypothesis's Welch statistic under the permuted labels and folds
// the successive maxima (over the hypotheses ranked by observed
// statistic, weakest to strongest) into step-down exceedance counts;
// those counts become monotone family-wise-error-controlling adjusted
// p-values. Per-hypothesis raw exceedance counts are tracked in the same
// sweep for the permutation-FDR variant.
//
// Determinism: permutation b always draws the same label shuffle,
// seeded from (Config.Seed, b), regardless of which worker claims it,
// and per-worker integer counts merge by addition — so results are
// byte-identical across runs and across any worker count.
package permtest

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/fpm"
	"repro/internal/stats"
)

// DefaultPermutations is the sampled-mode permutation count when the
// config leaves it zero.
const DefaultPermutations = 1000

// MaxExhaustiveRows bounds exhaustive enumeration: n! label orderings
// are enumerated, so n must stay tiny (10! ≈ 3.6M is the ceiling).
const MaxExhaustiveRows = 10

// Config shapes one permutation run.
type Config struct {
	// Permutations is the number B of sampled label permutations;
	// DefaultPermutations when <= 0. Ignored in exhaustive mode.
	Permutations int
	// Seed drives the deterministic shuffle stream. The same seed gives
	// byte-identical p-values for any worker count.
	Seed int64
	// Workers bounds the worker pool; runtime.GOMAXPROCS(0) when <= 0.
	Workers int
	// Exhaustive enumerates all n! label orderings instead of sampling;
	// requires n <= MaxExhaustiveRows. Adjusted p-values are then exact
	// (the small-N oracle regime), not Monte-Carlo estimates.
	Exhaustive bool
	// Progress, when non-nil, is called after each completed permutation
	// with (done, total). It may be called concurrently from several
	// workers and must be cheap and non-blocking.
	Progress func(done, total int)
}

// Result carries the permutation outcome, every slice aligned with the
// itemset list the engine was built over.
type Result struct {
	// Permutations is the number of permutations actually run (n! in
	// exhaustive mode); Exhaustive records which estimator applies.
	Permutations int
	Exhaustive   bool
	// T is the observed Welch statistic of each hypothesis.
	T []float64
	// RawP is the per-hypothesis raw permutation p-value: the fraction
	// of permutations whose statistic reaches the observed one. Sampled
	// runs use the add-one estimator (1+count)/(B+1); exhaustive runs
	// count/B exactly (the identity arrangement is enumerated).
	RawP []float64
	// AdjP is the Westfall–Young step-down adjusted p-value, monotone
	// along the observed-statistic ranking. Rejecting AdjP <= alpha
	// controls the family-wise error rate at alpha under the complete
	// null, accounting for the dependence between overlapping itemsets.
	AdjP []float64
}

// Engine is an immutable prepared permutation test: the cover index,
// the observed statistics and the step-down ranking. Build once with
// New, run any number of times with Run.
type Engine struct {
	covers     *fpm.CoverIndex
	base       []uint8 // observed labels (private copy)
	pos, neg   uint16  // the metric's class masks
	globalPost stats.PosteriorRate
	obsT       []float64 // observed statistics, input order
	order      []int32   // hypothesis indexes, descending obsT
	n, m       int
}

// New prepares a permutation test for the given itemsets over db. The
// pos/neg masks select the outcome classes forming the metric's
// positive and negative counts (core.Metric's representation); they
// must be non-empty and disjoint, and the metric must be defined on the
// whole dataset. The label total is permutation-invariant, so the
// global posterior is fixed here once.
func New(db *fpm.TxDB, itemsets []fpm.Itemset, pos, neg uint16) (*Engine, error) {
	if db.NumRows() == 0 {
		return nil, fmt.Errorf("permtest: empty database")
	}
	if pos == 0 || neg == 0 || pos&neg != 0 {
		return nil, fmt.Errorf("permtest: class masks must be non-empty and disjoint (pos=%#x neg=%#x)", pos, neg)
	}
	total := db.TotalTally()
	gp, gn := total.Masked(pos), total.Masked(neg)
	if gp+gn == 0 {
		return nil, fmt.Errorf("permtest: metric undefined on the whole dataset (every outcome ⊥)")
	}
	e := &Engine{
		covers:     fpm.BuildCoverIndex(db, itemsets),
		base:       append([]uint8(nil), db.Classes...),
		pos:        pos,
		neg:        neg,
		globalPost: stats.NewPosteriorRate(float64(gp), float64(gn)),
		n:          db.NumRows(),
		m:          len(itemsets),
	}
	observed := e.covers.NewSplit()
	observed.Fill(e.base, pos, neg)
	e.obsT = make([]float64, e.m)
	for i := range e.obsT {
		e.obsT[i] = e.statOf(i, observed)
	}
	e.order = make([]int32, e.m)
	for i := range e.order {
		e.order[i] = int32(i)
	}
	sort.Slice(e.order, func(a, b int) bool {
		ia, ib := e.order[a], e.order[b]
		// lint:ignore floatcmp exact tie-break on computed sort keys keeps ordering deterministic
		if e.obsT[ia] != e.obsT[ib] {
			return e.obsT[ia] > e.obsT[ib]
		}
		return ia < ib
	})
	return e, nil
}

// Hypotheses returns the number of itemsets under test.
func (e *Engine) Hypotheses() int { return e.m }

// ObservedT returns the observed Welch statistic of hypothesis i.
func (e *Engine) ObservedT(i int) float64 { return e.obsT[i] }

// statOf computes the Welch statistic of hypothesis i under the
// labelling s: the cover index folds the hypothesis's positive and
// negative counts, then the posterior is compared against the
// (permutation-invariant) global rate. This is the exact computation
// core.Result.TStat performs, and New scores the observed labels
// through the same fold, so observed statistics and permuted ones are
// bit-for-bit comparable.
//
// lint:hot
func (e *Engine) statOf(i int, s *fpm.Split) float64 {
	kp, kn := e.covers.Fold(i, s)
	return stats.WelchTPosterior(stats.NewPosteriorRate(float64(kp), float64(kn)), e.globalPost)
}

// Run executes the permutation schedule across a bounded worker pool.
// Workers claim permutation indexes off a shared atomic work index (the
// fpm parallel-mine pattern) and fold exceedance counts into private
// reusable buffers, merged by addition at the end — deterministic for
// any worker count. A canceled context aborts within one permutation
// per worker and returns an error wrapping ctx.Err().
func (e *Engine) Run(ctx context.Context, cfg Config) (*Result, error) {
	b := cfg.Permutations
	if b <= 0 {
		b = DefaultPermutations
	}
	var fact []uint64
	if cfg.Exhaustive {
		if e.n > MaxExhaustiveRows {
			return nil, fmt.Errorf("permtest: exhaustive enumeration needs <= %d rows, database has %d", MaxExhaustiveRows, e.n)
		}
		fact = factorials(e.n)
		b = int(fact[e.n])
	}
	res := &Result{
		Permutations: b,
		Exhaustive:   cfg.Exhaustive,
		T:            append([]float64(nil), e.obsT...),
		RawP:         make([]float64, e.m),
		AdjP:         make([]float64, e.m),
	}
	if e.m == 0 {
		return res, nil
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > b {
		workers = b
	}

	run := &permRun{ctx: ctx, total: b, progress: cfg.Progress}
	ws := make([]*permWorker, workers)
	var wg sync.WaitGroup
	for i := range ws {
		ws[i] = newPermWorker(e, cfg.Seed, fact)
		wg.Add(1)
		go ws[i].run(run, &wg)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("permtest: run canceled: %w", err)
	}

	wyCount := make([]int64, e.m)
	rawCount := make([]int64, e.m)
	for _, w := range ws {
		for j := 0; j < e.m; j++ {
			wyCount[j] += w.wyCount[j]
			rawCount[j] += w.rawCount[j]
		}
	}
	add, den := 1.0, float64(b)+1
	if cfg.Exhaustive {
		add, den = 0, float64(b)
	}
	for i := 0; i < e.m; i++ {
		res.RawP[i] = (add + float64(rawCount[i])) / den
	}
	for j, p := range wyAdjust(wyCount, add, den) {
		res.AdjP[e.order[j]] = p
	}
	return res, nil
}

// permRun is the shared state of one run: the atomic work index workers
// claim permutations from, and the completion counter feeding Progress.
type permRun struct {
	ctx      context.Context
	total    int
	next     atomic.Int64
	done     atomic.Int64
	progress func(done, total int)
}

// wyAdjust converts per-rank step-down exceedance counts into adjusted
// p-values: the estimator (add+count)/den per rank, then the monotone
// enforcement max over all stronger ranks, so a weaker hypothesis can
// never carry a smaller adjusted p-value than a stronger one.
func wyAdjust(wyCount []int64, add, den float64) []float64 {
	adj := make([]float64, len(wyCount))
	prev := 0.0
	for j, c := range wyCount {
		p := (add + float64(c)) / den
		if p < prev {
			p = prev
		}
		prev = p
		adj[j] = p
	}
	return adj
}

// factorials returns [0!, 1!, ..., n!]; n <= MaxExhaustiveRows keeps
// every entry well inside uint64.
func factorials(n int) []uint64 {
	f := make([]uint64, n+1)
	f[0] = 1
	for i := 1; i <= n; i++ {
		f[i] = f[i-1] * uint64(i)
	}
	return f
}
