package divexplorer

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/fpm"
	"repro/internal/htmlreport"
	"repro/internal/lattice"
)

// Explorer prepares a dataset + outcome encoding for divergence
// exploration. Build one with NewClassifierExplorer (confusion-matrix
// metrics) or NewOutcomeExplorer (a generic Boolean outcome function),
// then call Explore.
type Explorer struct {
	db *fpm.TxDB
}

// NewClassifierExplorer builds an explorer for classifier analysis: each
// instance is assigned its confusion cell (TP/FP/FN/TN) from the ground
// truth and the model's predictions, enabling every confusion-based
// metric (FPR, FNR, error rate, accuracy, ...) from a single exploration.
// The classifier itself is never consulted — the approach is model
// agnostic (paper Sec. 3.2).
func NewClassifierExplorer(d *Data, truth, pred []bool) (*Explorer, error) {
	classes, err := core.ConfusionClasses(truth, pred)
	if err != nil {
		return nil, err
	}
	db, err := fpm.NewTxDB(d, classes, core.NumConfusionClasses)
	if err != nil {
		return nil, err
	}
	return &Explorer{db: db}, nil
}

// NewOutcomeExplorer builds an explorer for an arbitrary Boolean outcome
// function o : D → {T, F, ⊥} (paper Def. 3.2); use the OutcomeRate
// metric with the resulting exploration.
func NewOutcomeExplorer(d *Data, o func(row int) Outcome) (*Explorer, error) {
	if o == nil {
		return nil, fmt.Errorf("divexplorer: nil outcome function")
	}
	classes := make([]uint8, d.NumRows())
	for r := range classes {
		v := o(r)
		if v > OutcomeBottom {
			return nil, fmt.Errorf("divexplorer: outcome function returned invalid value %d on row %d", v, r)
		}
		classes[r] = uint8(v)
	}
	db, err := fpm.NewTxDB(d, classes, core.NumOutcomeClasses)
	if err != nil {
		return nil, err
	}
	return &Explorer{db: db}, nil
}

// ExploreOption customizes an exploration.
type ExploreOption func(*core.Options) error

// WithMiner selects the frequent-pattern-mining algorithm: "fpgrowth"
// (default), "apriori", or "fpgrowth-parallel".
func WithMiner(name string) ExploreOption {
	return func(o *core.Options) error {
		switch name {
		case "fpgrowth":
			o.Miner = fpm.FPGrowth{}
		case "apriori":
			o.Miner = fpm.Apriori{}
		case "fpgrowth-parallel", "parallel":
			o.Miner = fpm.Parallel{}
		default:
			return fmt.Errorf("divexplorer: unknown miner %q (want fpgrowth, apriori, or fpgrowth-parallel)", name)
		}
		return nil
	}
}

// Explore runs Algorithm 1: it mines every itemset with support at least
// minSup, tallying outcome counts in the same pass, and returns a Result
// over which all divergence analyses are evaluated without touching the
// data again.
func (e *Explorer) Explore(minSup float64, opts ...ExploreOption) (*Result, error) {
	var o core.Options
	for _, opt := range opts {
		if err := opt(&o); err != nil {
			return nil, err
		}
	}
	res, err := core.Explore(e.db, minSup, o)
	if err != nil {
		return nil, err
	}
	return &Result{Result: res}, nil
}

// ExploreTopK streams the mining pass and returns only the k most
// divergent patterns for one metric, in O(k) memory. The answer equals
// Result.TopK on a full exploration, ties included, but it is
// leaderboard-only: Shapley, global divergence and corrective analyses
// need the full Explore result.
func (e *Explorer) ExploreTopK(minSup float64, m Metric, k int, order RankOrder) ([]Ranked, error) {
	res, err := core.ExploreTopKAnytime(e.db, minSup, m, k, order, core.AnytimeOptions{})
	if err != nil {
		return nil, err
	}
	out := make([]Ranked, len(res.Top))
	for i := range res.Top {
		out[i] = res.Top[i].Ranked
	}
	return out, nil
}

// Result gives access to every analysis of the paper over one
// exploration. It embeds the core engine result; see the methods of
// core.Result (TopK, LocalShapley, GlobalDivergence, CorrectiveItems,
// Prune, ...) plus the conveniences below.
type Result struct {
	*core.Result
}

// Itemset resolves "attr=value" strings into a canonical pattern.
func (r *Result) Itemset(names ...string) (Itemset, error) {
	return r.DB.Catalog.ItemsetByNames(names...)
}

// Format renders a pattern as "attr=value, attr=value".
func (r *Result) Format(is Itemset) string { return r.DB.Catalog.Format(is) }

// ItemName renders one item as "attr=value".
func (r *Result) ItemName(it Item) string { return r.DB.Catalog.Name(it) }

// Lattice materializes the subset lattice of a frequent pattern for
// visual exploration (paper Sec. 6.4): node divergences, corrective-
// phenomenon marks, and highlighting of nodes with |Δ| at or above
// threshold. Render with the lattice's ASCII or DOT methods.
func (r *Result) Lattice(target Itemset, m Metric, threshold float64) (*lattice.Lattice, error) {
	return lattice.Build(r.Result, target, m, threshold)
}

// Compare matches the frequent patterns of two explorations over the
// same schema — two data snapshots, or two models on the same data — and
// returns the per-pattern rate shifts with Bayesian significance,
// largest net movement first. Use it to localize drift or regression to
// specific subgroups rather than a single aggregate number.
func Compare(a, b *Result, m Metric) ([]PatternShift, error) {
	return core.Compare(a.Result, b.Result, m)
}

// HTMLReport renders a self-contained HTML report of the exploration;
// see internal/htmlreport for the section layout. An empty config uses
// sensible defaults (FPR and FNR, top 10 patterns).
func (r *Result) HTMLReport(cfg HTMLReportConfig) ([]byte, error) {
	return htmlreport.Render(r.Result, cfg)
}

// HTMLReportConfig configures HTMLReport.
type HTMLReportConfig = htmlreport.Config
