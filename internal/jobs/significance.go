package jobs

import (
	"context"
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/permtest"
	"repro/internal/registry"
)

// The permutation-grounded significance tier (DESIGN.md §15).
// Significance queries mine (or reuse) the full lattice through the
// engine's result cache, then run multiple-testing control over every
// pattern: Westfall–Young max-T permutation FWER control, permutation
// FDR (BH over raw permutation p-values), or the analytic BH pass.
// Permutation progress streams through the job tracker, and complete
// outcomes are LRU-cached — the whole computation is deterministic
// given the spec, so a cached outcome is always truthful.

// Significance-testing methods.
const (
	// MethodWY is Westfall–Young step-down max-T permutation testing:
	// family-wise error control at Alpha, valid under the dependence
	// between overlapping itemsets.
	MethodWY = "wy"
	// MethodPermFDR is Benjamini–Hochberg FDR control at Alpha over the
	// raw permutation p-values.
	MethodPermFDR = "perm-fdr"
	// MethodBH is the analytic path: BH over two-sided Welch p-values,
	// no resampling.
	MethodBH = "bh"
)

// SignificanceSpec describes one significance query.
type SignificanceSpec struct {
	Dataset  registry.Hash
	TruthCol string
	PredCol  string
	Support  float64
	// Metric is the divergence metric under test ("ER" when empty).
	Metric string
	// Method selects the multiple-testing procedure (MethodWY when
	// empty).
	Method string
	// Alpha is the FWER level (wy) or FDR level (perm-fdr, bh); 0.05
	// when zero.
	Alpha float64
	// Permutations is the sampled permutation count B;
	// permtest.DefaultPermutations when zero. Ignored by MethodBH and in
	// exhaustive mode.
	Permutations int
	// Seed drives the deterministic permutation stream.
	Seed int64
	// Exhaustive enumerates all n! label orderings (tiny datasets only).
	Exhaustive bool
	// TopK bounds the reported surviving patterns; 20 when zero.
	TopK int
	// Baseline additionally fits the max-entropy (independence-model)
	// support baseline for each reported pattern.
	Baseline bool
}

// CacheKey identifies the cached outcome for a spec. Every field
// changes the answer, so every field is included; validateSignificance
// normalizes the method-irrelevant permutation knobs first so
// equivalent analytic specs collapse to one entry.
func (s SignificanceSpec) CacheKey() string {
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	parts := []string{
		"significance", string(s.Dataset), s.TruthCol, s.PredCol,
		f(s.Support), s.Metric, s.Method, f(s.Alpha),
		strconv.Itoa(s.Permutations), strconv.FormatInt(s.Seed, 10),
		strconv.FormatBool(s.Exhaustive), strconv.Itoa(s.TopK),
		strconv.FormatBool(s.Baseline),
	}
	return strings.Join(parts, "\x1f")
}

// MaxEntInfo is the max-entropy baseline slice of a reported pattern.
type MaxEntInfo struct {
	ExpectedSupport float64 `json:"expected_support"`
	Observed        float64 `json:"observed_support"`
	Leverage        float64 `json:"leverage"`
	P               float64 `json:"p"`
	Iterations      int     `json:"iterations"`
}

// SignificantPattern is one surviving pattern on the wire.
type SignificantPattern struct {
	Items      []string    `json:"itemset"`
	Support    float64     `json:"support"`
	Rate       float64     `json:"rate"`
	Divergence float64     `json:"divergence"`
	T          float64     `json:"t"`
	P          float64     `json:"p"`
	AdjP       float64     `json:"adj_p"`
	MaxEnt     *MaxEntInfo `json:"maxent,omitempty"`
}

// SignificanceOutcome is the result of one significance query.
type SignificanceOutcome struct {
	Metric string  `json:"metric"`
	Method string  `json:"method"`
	Alpha  float64 `json:"alpha"`
	// Permutations is the number actually run (n! in exhaustive mode);
	// zero for the analytic method.
	Permutations int  `json:"permutations,omitempty"`
	Exhaustive   bool `json:"exhaustive,omitempty"`
	// Hypotheses counts every pattern under test; Rejected counts the
	// survivors (of which at most TopK are reported).
	Hypotheses int                  `json:"hypotheses"`
	Rejected   int                  `json:"rejected"`
	GlobalRate float64              `json:"global_rate"`
	Top        []SignificantPattern `json:"top"`
	CacheHit   bool                 `json:"cache_hit"`
}

// SignificanceStats is the /statsz slice for the significance tier.
type SignificanceStats struct {
	// Queries counts significance queries; Runs counts the ones that
	// actually computed (the rest were cache hits); Permutations totals
	// the label permutations executed.
	Queries      int64      `json:"queries"`
	Runs         int64      `json:"runs"`
	Permutations int64      `json:"permutations"`
	Cache        CacheStats `json:"cache"`
}

// validateSignificance normalizes and checks a spec, resolving the
// metric. Method-irrelevant knobs are zeroed so the cache key collapses
// equivalent specs.
func (e *Engine) validateSignificance(s *SignificanceSpec) (core.Metric, error) {
	if s.Support < 0 || s.Support > 1 {
		return core.Metric{}, fmt.Errorf("%w: support %v out of [0,1]", ErrBadInput, s.Support)
	}
	// lint:ignore floatcmp the zero value is the explicit "use the default" sentinel
	if s.Alpha == 0 {
		s.Alpha = 0.05
	}
	if s.Alpha <= 0 || s.Alpha >= 1 {
		return core.Metric{}, fmt.Errorf("%w: alpha %v out of (0,1)", ErrBadInput, s.Alpha)
	}
	if s.TopK <= 0 {
		s.TopK = 20
	}
	if s.Permutations < 0 {
		return core.Metric{}, fmt.Errorf("%w: negative permutation count", ErrBadInput)
	}
	if s.Method == "" {
		s.Method = MethodWY
	}
	switch s.Method {
	case MethodBH:
		// The analytic path draws no permutations; normalize the knobs so
		// equivalent specs share one cache entry.
		s.Permutations, s.Seed, s.Exhaustive = 0, 0, false
	case MethodWY, MethodPermFDR:
		if s.Exhaustive {
			s.Permutations = 0 // the schedule is n!, not B
		} else if s.Permutations == 0 {
			s.Permutations = permtest.DefaultPermutations
		}
		if max := e.maxPermutations(); s.Permutations > max {
			return core.Metric{}, fmt.Errorf("%w: %d permutations over the limit %d", ErrBadInput, s.Permutations, max)
		}
	default:
		return core.Metric{}, fmt.Errorf("%w: unknown significance method %q", ErrBadInput, s.Method)
	}
	if s.Metric == "" {
		s.Metric = "ER"
	}
	m, err := core.MetricByName(s.Metric)
	if err != nil {
		return core.Metric{}, fmt.Errorf("%w: %v", ErrBadInput, err)
	}
	s.Metric = m.Name
	return m, nil
}

// maxPermutations returns the configured permutation-count ceiling.
func (e *Engine) maxPermutations() int {
	if e.cfg.MaxPermutations > 0 {
		return e.cfg.MaxPermutations
	}
	return 100000
}

// Significance answers one significance query synchronously, consulting
// the outcome cache first.
func (e *Engine) Significance(ctx context.Context, spec SignificanceSpec) (*SignificanceOutcome, error) {
	return e.significance(ctx, spec, nil)
}

// significance is the shared sync/async implementation; tr may be nil.
func (e *Engine) significance(ctx context.Context, spec SignificanceSpec, tr *Tracker) (*SignificanceOutcome, error) {
	m, err := e.validateSignificance(&spec)
	if err != nil {
		return nil, err
	}
	e.sigQueries.Add(1)
	key := spec.CacheKey()
	e.sigMu.Lock()
	if v, ok := e.sigCache.get(key); ok {
		e.sigMu.Unlock()
		out := *v.(*SignificanceOutcome)
		out.CacheHit = true
		return &out, nil
	}
	e.sigMu.Unlock()

	// The mined lattice is shared with the analysis tier through the
	// result cache: a significance query after an /analyze of the same
	// dataset re-mines nothing.
	jspec := Spec{
		Dataset: spec.Dataset, TruthCol: spec.TruthCol, PredCol: spec.PredCol,
		Support: spec.Support, Metrics: []string{m.Name},
	}
	res, _, err := e.analyzeCached(ctx, jspec, nil)
	if err != nil {
		return nil, err
	}
	rate := res.GlobalRate(m)
	if math.IsNaN(rate) {
		return nil, fmt.Errorf("%w: metric %s undefined on the whole dataset", ErrBadInput, m.Name)
	}
	e.sigRuns.Add(1)

	out := &SignificanceOutcome{
		Metric:     m.Name,
		Method:     spec.Method,
		Alpha:      spec.Alpha,
		Hypotheses: res.NumDefined(m),
		GlobalRate: rate,
	}
	var sig []core.Significant
	if spec.Method == MethodBH {
		sig = res.SignificantPatterns(m, spec.Alpha, core.ByAbsDivergence)
	} else {
		cfg := permtest.Config{
			Permutations: spec.Permutations,
			Seed:         spec.Seed,
			Exhaustive:   spec.Exhaustive,
		}
		if tr != nil {
			cfg.Progress = tr.Progress
		}
		if spec.Method == MethodWY {
			sig, err = res.SignificantPatternsWY(ctx, m, spec.Alpha, core.ByAbsDivergence, cfg)
		} else {
			sig, err = res.SignificantPatternsPermFDR(ctx, m, spec.Alpha, core.ByAbsDivergence, cfg)
		}
		if err != nil {
			if ctx.Err() != nil {
				return nil, err
			}
			return nil, fmt.Errorf("%w: %v", ErrBadInput, err)
		}
		out.Exhaustive = spec.Exhaustive
		out.Permutations = spec.Permutations
		if spec.Exhaustive {
			out.Permutations = 1
			for i := 2; i <= res.DB.NumRows(); i++ {
				out.Permutations *= i
			}
		}
		e.sigPerms.Add(int64(out.Permutations))
	}

	out.Rejected = len(sig)
	if len(sig) > spec.TopK {
		sig = sig[:spec.TopK]
	}
	out.Top = make([]SignificantPattern, 0, len(sig))
	for _, s := range sig {
		sp := SignificantPattern{
			Items:      itemNameList(res.DB.Catalog, s.Items),
			Support:    s.Support,
			Rate:       s.Rate,
			Divergence: s.Divergence,
			T:          s.T,
			P:          s.P,
			AdjP:       s.AdjP,
		}
		if spec.Baseline && len(s.Items) > 0 {
			if mb, err := res.MaxEntBaselineOf(s.Items); err == nil {
				sp.MaxEnt = &MaxEntInfo{
					ExpectedSupport: mb.ExpectedSupport,
					Observed:        mb.Observed,
					Leverage:        mb.Leverage,
					P:               mb.P,
					Iterations:      mb.Iterations,
				}
			}
		}
		out.Top = append(out.Top, sp)
	}

	if tr != nil {
		// Final snapshot: the surviving leaderboard plus the completion
		// marker, so pollers of the partial endpoint see closure.
		top := make([]PartialPattern, len(out.Top))
		for i, sp := range out.Top {
			top[i] = PartialPattern{
				Items: sp.Items, Support: sp.Support,
				Rate: sp.Rate, Divergence: sp.Divergence,
			}
		}
		tr.Partial(Snapshot{
			Patterns: int64(out.Hypotheses),
			Metric:   m.Name,
			Top:      top,
			Reason:   "complete",
		})
	}

	e.sigMu.Lock()
	e.sigCache.put(key, out)
	e.sigMu.Unlock()
	return out, nil
}

// SignificanceStatsSnapshot returns the significance-tier counters.
func (e *Engine) SignificanceStatsSnapshot() SignificanceStats {
	e.sigMu.Lock()
	defer e.sigMu.Unlock()
	return SignificanceStats{
		Queries:      e.sigQueries.Load(),
		Runs:         e.sigRuns.Load(),
		Permutations: e.sigPerms.Load(),
		Cache:        e.sigCache.stats(),
	}
}

// SubmitSignificance enqueues a significance query as an asynchronous
// job: it runs on the worker pool, streams permutation progress through
// the job's progress counters, and finishes with a final snapshot whose
// Reason is "complete". The job's Result() is never populated; the
// outcome is read with Job.Significance().
func (e *Engine) SubmitSignificance(spec SignificanceSpec) (*Job, error) {
	if _, err := e.validateSignificance(&spec); err != nil {
		return nil, err
	}
	id, err := newJobID()
	if err != nil {
		return nil, err
	}
	// The synthesized Spec keeps the WAL records and status endpoints
	// meaningful for significance jobs.
	jspec := Spec{
		Dataset: spec.Dataset, TruthCol: spec.TruthCol, PredCol: spec.PredCol,
		Support: spec.Support, Metrics: []string{spec.Metric}, TopK: spec.TopK,
		Alpha: spec.Alpha,
	}
	job := &Job{id: id, spec: jspec, sig: &spec, state: StateQueued, created: time.Now()}
	return e.enqueue(job, false)
}
