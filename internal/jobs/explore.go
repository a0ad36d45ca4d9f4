package jobs

import (
	"context"
	"fmt"
	"math"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/fpm"
	"repro/internal/lattice"
	"repro/internal/registry"
)

// The anytime exploration tier (DESIGN.md §14). Explore queries run
// synchronously on the request goroutine — budgets keep them
// interactive — or asynchronously as a job (Engine.Submit), in which
// case top-K refinements stream through the partial-result Tracker and the final snapshot carries the completion
// reason. Expand/Drill navigation never mines at all: it is served by a
// per-dataset lattice.Explorer, which lays out the frequent items'
// covers on the first expand and turns a click on a pattern into one
// AND-and-popcount per candidate item, memoized in a conditional-tally
// cache.

// ExploreSpec describes one anytime exploration.
type ExploreSpec struct {
	Dataset  registry.Hash
	TruthCol string
	PredCol  string
	Support  float64
	// Metric is the single divergence metric to rank by (|Δ| order).
	Metric string
	TopK   int
	// BudgetMS bounds wall-clock time; 0 means no deadline.
	BudgetMS int64
	// MaxPatterns bounds the number of patterns visited; 0 means all.
	MaxPatterns int64
	// SampleRows, when > 0, mines a uniform row sample of that size and
	// annotates every estimate with confidence intervals.
	SampleRows int
	SampleSeed int64
	// Confidence for the error bounds (core.DefaultConfidence when 0).
	Confidence float64
	// Tenant is an async job's admission identity, as in Spec; never in CacheKey.
	Tenant string
}

// CacheKey identifies the cached outcome for a spec. Budgets are
// deliberately excluded: they bound how much of the answer gets
// computed, not what the answer is, so a cached *complete* outcome can
// serve any budget. Sampling parameters change the answer and are
// included.
func (s ExploreSpec) CacheKey() string {
	return cacheKey("explore", string(s.Dataset), s.TruthCol, s.PredCol,
		ftoa(s.Support), s.Metric, strconv.Itoa(s.TopK),
		strconv.Itoa(s.SampleRows), strconv.FormatInt(s.SampleSeed, 10), ftoa(s.Confidence))
}

// ExplorePattern is one ranked pattern on the explore wire format. The
// *Lo/*Hi interval fields are meaningful only on sampled runs; on exact
// runs they collapse to the point estimates.
type ExplorePattern struct {
	Items      []string `json:"itemset"`
	Support    float64  `json:"support"`
	Rate       float64  `json:"rate"`
	Divergence float64  `json:"divergence"`
	T          float64  `json:"t"`

	SupportLo    float64 `json:"support_lo"`
	SupportHi    float64 `json:"support_hi"`
	RateLo       float64 `json:"rate_lo"`
	RateHi       float64 `json:"rate_hi"`
	DivergenceLo float64 `json:"divergence_lo"`
	DivergenceHi float64 `json:"divergence_hi"`
}

// ExploreOutcome is the result of one anytime exploration.
type ExploreOutcome struct {
	Reason     string           `json:"reason"` // exhausted | deadline | budget
	Partial    bool             `json:"partial"`
	Visited    int64            `json:"patterns_visited"`
	Metric     string           `json:"metric"`
	GlobalRate float64          `json:"global_rate"`
	Top        []ExplorePattern `json:"top"`
	Sampled    bool             `json:"sampled"`
	SampleSize int              `json:"sample_size,omitempty"`
	Confidence float64          `json:"confidence,omitempty"`
	SupportEps float64          `json:"support_eps,omitempty"`
	CacheHit   bool             `json:"cache_hit"`
}

// ExpandSpec describes one lattice-navigation step: the frequent
// refinements of Pattern, optionally restricted to one attribute
// (Attr non-empty = drill).
type ExpandSpec struct {
	Dataset  registry.Hash
	TruthCol string
	PredCol  string
	Support  float64
	Metric   string
	// Pattern names the parent pattern's items ("attr=value"); empty
	// expands the root into the frequent singletons.
	Pattern []string
	// Attr, when non-empty, drills along that attribute only.
	Attr string
}

// ExpandOutcome is the result of one navigation step. Refinement
// statistics are exact (navigation never samples), so the interval
// fields of each ExplorePattern are degenerate.
type ExpandOutcome struct {
	Parent      []string         `json:"parent"`
	Metric      string           `json:"metric"`
	GlobalRate  float64          `json:"global_rate"`
	Refinements []ExplorePattern `json:"refinements"`
}

// ExploreStats is the /statsz slice for the anytime tier.
type ExploreStats struct {
	// Explores counts explore queries; Mines counts the ones that
	// actually ran an anytime mine (the rest were cache hits). Expands
	// counts navigation steps, which never mine by construction.
	Explores int64      `json:"explores"`
	Mines    int64      `json:"mines"`
	Expands  int64      `json:"expands"`
	Cache    CacheStats `json:"cache"`
	// Sessions counts resident per-dataset navigation sessions;
	// Navigation aggregates their conditional-tally cache counters.
	Sessions   int                   `json:"sessions"`
	Navigation lattice.ExplorerStats `json:"navigation"`
}

// session is one per-(dataset, labels) exploration context: the
// transaction database and the navigation explorer sharing its
// conditional-tally cache across requests.
type session struct {
	db  *fpm.TxDB
	nav *lattice.Explorer
}

// validateExplore normalizes and checks a spec, resolving the metric.
func (e *Engine) validateExplore(s *ExploreSpec) (core.Metric, error) {
	if s.Support < 0 || s.Support > 1 {
		return core.Metric{}, fmt.Errorf("%w: support %v out of [0,1]", ErrBadInput, s.Support)
	}
	if s.TopK <= 0 {
		s.TopK = 10
	}
	if s.BudgetMS < 0 || s.MaxPatterns < 0 || s.SampleRows < 0 {
		return core.Metric{}, fmt.Errorf("%w: negative budget", ErrBadInput)
	}
	if s.Confidence < 0 || s.Confidence >= 1 {
		return core.Metric{}, fmt.Errorf("%w: confidence %v out of [0,1)", ErrBadInput, s.Confidence)
	}
	return resolveMetric(&s.Metric)
}

// resolveMetric resolves a spec's metric name in place, "ER" when
// empty, and returns the metric.
func resolveMetric(name *string) (core.Metric, error) {
	if *name == "" {
		*name = "ER"
	}
	m, err := core.MetricByName(*name)
	if err != nil {
		return core.Metric{}, fmt.Errorf("%w: %v", ErrBadInput, err)
	}
	*name = m.Name
	return m, nil
}

// session returns the cached exploration context for a dataset and
// label-column pair, building the transaction database on first use.
func (e *Engine) session(ds registry.Hash, truthCol, predCol string) (*session, error) {
	key := cacheKey(string(ds), truthCol, predCol)
	if s, ok := e.sessions.get(key); ok {
		return s, nil
	}
	entry, ok := e.reg.Get(ds)
	if !ok {
		return nil, fmt.Errorf("%w: %w: %s", ErrBadInput, ErrDatasetGone, ds)
	}
	db, err := confusionDB(entry.Data, truthCol, predCol)
	if err != nil {
		return nil, err
	}
	// A concurrent builder of the same session may have stored first;
	// put then hands back its session, so all callers share one.
	return e.sessions.put(key, &session{db: db, nav: lattice.NewExplorer(db, 0)}), nil
}

// Explore answers one anytime exploration synchronously, consulting the
// outcome cache first. Only complete (exhausted) outcomes are cached —
// and because budgets only truncate, a cached complete outcome
// truthfully serves any budgeted re-ask of the same question, marked
// cache_hit with partial=false.
func (e *Engine) Explore(ctx context.Context, spec ExploreSpec) (*ExploreOutcome, error) {
	return e.explore(ctx, spec, nil)
}

// explore is the shared sync/async implementation; tr may be nil.
func (e *Engine) explore(ctx context.Context, spec ExploreSpec, tr *Tracker) (*ExploreOutcome, error) {
	m, err := e.validateExplore(&spec)
	if err != nil {
		return nil, err
	}
	e.explores.Add(1)
	key := spec.CacheKey()
	if v, ok := e.xcache.get(key); ok {
		out := *v
		out.CacheHit = true
		return &out, nil
	}

	sess, err := e.session(spec.Dataset, spec.TruthCol, spec.PredCol)
	if err != nil {
		return nil, err
	}

	// The surrounding context's deadline (job timeout, client timeout)
	// tightens the budget, so reaching it still yields a partial
	// outcome; its cancellation (DELETE, shutdown, a client gone) aborts
	// the mine.
	budget := fpm.AnytimeBudget{MaxPatterns: spec.MaxPatterns, Done: ctx.Done()}
	if spec.BudgetMS > 0 {
		budget.Deadline = time.Now().Add(time.Duration(spec.BudgetMS) * time.Millisecond)
	}
	if d, ok := ctx.Deadline(); ok && (budget.Deadline.IsZero() || d.Before(budget.Deadline)) {
		budget.Deadline = d
	}

	opts := core.AnytimeOptions{
		Budget:     budget,
		SampleRows: spec.SampleRows,
		SampleSeed: spec.SampleSeed,
		Confidence: spec.Confidence,
	}
	if tr != nil {
		opts.OnUpdate = func(top []core.RankedEstimate, visited int64) {
			tr.Partial(Snapshot{
				Patterns: visited,
				Metric:   m.Name,
				Top:      partialPatterns(sess.db.Catalog, top),
			})
		}
	}
	res, err := core.ExploreTopKAnytime(sess.db, spec.Support, m, spec.TopK, core.ByAbsDivergence, opts)
	if err != nil {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		return nil, fmt.Errorf("%w: %v", ErrBadInput, err)
	}
	e.exploreMines.Add(1) // a refused question mined nothing

	out := &ExploreOutcome{
		Reason:     res.Reason.String(),
		Partial:    res.Partial(),
		Visited:    res.Visited,
		Metric:     m.Name,
		GlobalRate: m.Rate(sess.db.TotalTally()),
		Top:        explorePatterns(sess.db.Catalog, res.Top),
		Sampled:    res.Sampled,
		Confidence: res.Confidence,
	}
	if res.Sampled {
		out.SampleSize = res.SampleSize
		out.SupportEps = res.SupportEps
	}
	if tr != nil {
		// Final snapshot: the settled leaderboard plus the completion
		// reason, the signal pollers key off to stop.
		tr.Partial(Snapshot{
			Patterns: res.Visited,
			Metric:   m.Name,
			Top:      partialPatterns(sess.db.Catalog, res.Top),
			Reason:   out.Reason,
		})
	}
	if res.Reason == fpm.ReasonExhausted {
		e.xcache.put(key, out)
	}
	return out, nil
}

// Expand answers one navigation step from the per-dataset explorer —
// cached conditional tallies, no mining.
func (e *Engine) Expand(spec ExpandSpec) (*ExpandOutcome, error) {
	xs := ExploreSpec{
		Dataset: spec.Dataset, TruthCol: spec.TruthCol, PredCol: spec.PredCol,
		Support: spec.Support, Metric: spec.Metric,
	}
	m, err := e.validateExplore(&xs)
	if err != nil {
		return nil, err
	}
	sess, err := e.session(spec.Dataset, spec.TruthCol, spec.PredCol)
	if err != nil {
		return nil, err
	}
	pattern, err := sess.db.Catalog.ItemsetByNames(spec.Pattern...)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadInput, err)
	}
	minCount := fpm.MinCount(sess.db.NumRows(), xs.Support)
	attr := -1
	if spec.Attr != "" {
		for a := 0; a < sess.db.Catalog.NumAttrs(); a++ {
			if sess.db.Catalog.AttrName(a) == spec.Attr {
				attr = a
				break
			}
		}
		if attr < 0 {
			return nil, fmt.Errorf("%w: unknown attribute %q", ErrBadInput, spec.Attr)
		}
	}
	total := sess.db.TotalTally()
	globalRate := m.Rate(total)
	if math.IsNaN(globalRate) {
		return nil, fmt.Errorf("%w: metric %s undefined on the whole dataset", ErrBadInput, m.Name)
	}

	var refs []lattice.Refinement
	if attr >= 0 {
		refs, err = sess.nav.Drill(pattern, attr, minCount)
	} else {
		refs, err = sess.nav.Expand(pattern, minCount)
	}
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadInput, err)
	}
	e.expands.Add(1)
	out := &ExpandOutcome{
		Parent:     sess.db.Catalog.Names(pattern),
		Metric:     m.Name,
		GlobalRate: globalRate,
	}
	// Refinements keep the explorer's item order; each is scored as
	// /analyze scores it, and its statistics are exact.
	scorer := core.NewLeaderboard(total, sess.db.NumRows(), m, 0, core.ByAbsDivergence)
	for _, r := range refs {
		if rk, ok := scorer.Rank(r.Items, r.Tally); ok {
			out.Refinements = append(out.Refinements, explorePattern(sess.db.Catalog, rk.Exact()))
		}
	}
	return out, nil
}

// ExploreStatsSnapshot returns the anytime-tier counters.
func (e *Engine) ExploreStatsSnapshot() ExploreStats {
	sessions := e.sessions.values()
	st := ExploreStats{
		Explores: e.explores.Load(),
		Mines:    e.exploreMines.Load(),
		Expands:  e.expands.Load(),
		Cache:    e.xcache.stats(),
		Sessions: len(sessions),
	}
	for _, s := range sessions {
		ns := s.nav.Stats()
		st.Navigation.Entries += ns.Entries
		st.Navigation.Hits += ns.Hits
		st.Navigation.Misses += ns.Misses
		st.Navigation.Evictions += ns.Evictions
		st.Navigation.RowsScanned += ns.RowsScanned
		st.Navigation.Expands += ns.Expands
		st.Navigation.Capacity = ns.Capacity
	}
	return st
}

// explorePatterns converts ranked estimates to the wire format.
func explorePatterns(cat *fpm.Catalog, top []core.RankedEstimate) []ExplorePattern {
	out := make([]ExplorePattern, len(top))
	for i, e := range top {
		out[i] = explorePattern(cat, e)
	}
	return out
}

// explorePattern converts one ranked estimate to the wire format.
func explorePattern(cat *fpm.Catalog, e core.RankedEstimate) ExplorePattern {
	return ExplorePattern{
		Items:        cat.Names(e.Items),
		Support:      e.Support,
		Rate:         e.Rate,
		Divergence:   e.Divergence,
		T:            e.T,
		SupportLo:    e.SupportLo,
		SupportHi:    e.SupportHi,
		RateLo:       e.RateLo,
		RateHi:       e.RateHi,
		DivergenceLo: e.DivergenceLo,
		DivergenceHi: e.DivergenceHi,
	}
}

// partialPatterns converts ranked estimates to snapshot entries.
func partialPatterns(cat *fpm.Catalog, top []core.RankedEstimate) []PartialPattern {
	out := make([]PartialPattern, len(top))
	for i, e := range top {
		out[i] = PartialPattern{
			Items:      cat.Names(e.Items),
			Support:    e.Support,
			Rate:       e.Rate,
			Divergence: e.Divergence,
		}
	}
	return out
}

// Source implements Work.
func (s ExploreSpec) Source() (registry.Hash, string) { return s.Dataset, s.Tenant }

// prepare implements Work: validate and normalize.
func (s ExploreSpec) prepare(e *Engine) (Work, error) {
	_, err := e.validateExplore(&s)
	return s, err
}

// record implements Work: the outcome is small enough to log whole.
func (s ExploreSpec) record(out any) Record {
	o, _ := out.(*ExploreOutcome)
	return Record{Explore: &s, ExploreOutcome: o}
}

// run implements Work, streaming the leaderboard through tr.
func (s ExploreSpec) run(ctx context.Context, e *Engine, tr *Tracker) (any, bool, error) {
	out, err := e.explore(ctx, s, tr)
	if err != nil {
		return nil, false, err
	}
	return out, out.CacheHit, nil
}
