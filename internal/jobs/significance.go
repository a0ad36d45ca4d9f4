package jobs

import (
	"context"
	"fmt"
	"math"
	"strconv"

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
	// Tenant is an async job's admission identity, as in Spec; never in CacheKey.
	Tenant string
}

// CacheKey identifies the cached outcome for a spec. Every field but
// Tenant changes the answer, so each is included; validateSignificance
// normalizes the method-irrelevant permutation knobs first so
// equivalent analytic specs collapse to one entry.
func (s SignificanceSpec) CacheKey() string {
	return cacheKey("significance", string(s.Dataset), s.TruthCol, s.PredCol,
		ftoa(s.Support), s.Metric, s.Method, ftoa(s.Alpha),
		strconv.Itoa(s.Permutations), strconv.FormatInt(s.Seed, 10),
		strconv.FormatBool(s.Exhaustive), strconv.Itoa(s.TopK),
		strconv.FormatBool(s.Baseline))
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
			s.Permutations = 0 // the schedule is n!, not B; significance checks it
		} else if s.Permutations == 0 {
			s.Permutations = permtest.DefaultPermutations
		}
		if limit := e.maxPermutations(); s.Permutations > limit {
			return core.Metric{}, fmt.Errorf("%w: %d permutations over the limit %d", ErrBadInput, s.Permutations, limit)
		}
	default:
		return core.Metric{}, fmt.Errorf("%w: unknown significance method %q", ErrBadInput, s.Method)
	}
	return resolveMetric(&s.Metric)
}

// maxPermutations is the most label permutations one significance
// query may run (Config.MaxPermutations).
func (e *Engine) maxPermutations() int { return positiveOr(e.cfg.MaxPermutations, 100000) }

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
	if v, ok := e.sigCache.get(key); ok {
		out := *v
		out.CacheHit = true
		return &out, nil
	}

	// The mined lattice is shared with the analysis tier through the
	// result cache, keyed by the mine's inputs alone: a significance query
	// after an /analyze of the same dataset and support, under any
	// metrics, re-mines nothing.
	jspec := Spec{Dataset: spec.Dataset, TruthCol: spec.TruthCol, PredCol: spec.PredCol, Support: spec.Support}
	res, _, err := e.analyzeCached(ctx, jspec, nil)
	if err != nil {
		return nil, err
	}
	rate := res.GlobalRate(m)
	if math.IsNaN(rate) {
		return nil, fmt.Errorf("%w: metric %s undefined on the whole dataset", ErrBadInput, m.Name)
	}
	e.sigRuns.Add(1)

	// The permutation schedule: B sampled, or all n! orderings, which
	// only the mined table's row count fixes, so exhaustive mode meets
	// the cap here. The product stops as soon as it passes the cap.
	perms := spec.Permutations
	if spec.Exhaustive {
		limit := e.maxPermutations()
		perms = 1
		for i := 2; i <= res.DB.NumRows() && perms <= limit; i++ {
			perms *= i
		}
		if perms > limit {
			return nil, fmt.Errorf("%w: exhaustive enumeration of %d rows is over the limit of %d permutations", ErrBadInput, res.DB.NumRows(), limit)
		}
	}

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
		out.Permutations = perms
		e.sigPerms.Add(int64(perms))
	}

	out.Rejected = len(sig)
	if len(sig) > spec.TopK {
		sig = sig[:spec.TopK]
	}
	out.Top = make([]SignificantPattern, 0, len(sig))
	for _, s := range sig {
		sp := SignificantPattern{
			Items:      res.DB.Catalog.Names(s.Items),
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

	e.sigCache.put(key, out)
	return out, nil
}

// SignificanceStatsSnapshot returns the significance-tier counters.
func (e *Engine) SignificanceStatsSnapshot() SignificanceStats {
	return SignificanceStats{
		Queries:      e.sigQueries.Load(),
		Runs:         e.sigRuns.Load(),
		Permutations: e.sigPerms.Load(),
		Cache:        e.sigCache.stats(),
	}
}

// Source implements Work.
func (s SignificanceSpec) Source() (registry.Hash, string) { return s.Dataset, s.Tenant }

// prepare implements Work: validate and normalize.
func (s SignificanceSpec) prepare(e *Engine) (Work, error) {
	_, err := e.validateSignificance(&s)
	return s, err
}

// record implements Work: the outcome is small enough to log whole.
func (s SignificanceSpec) record(out any) Record {
	o, _ := out.(*SignificanceOutcome)
	return Record{Significance: &s, SignificanceOutcome: o}
}

// run implements Work, streaming permutation progress through tr.
func (s SignificanceSpec) run(ctx context.Context, e *Engine, tr *Tracker) (any, bool, error) {
	out, err := e.significance(ctx, s, tr)
	if err != nil {
		return nil, false, err
	}
	return out, out.CacheHit, nil
}
