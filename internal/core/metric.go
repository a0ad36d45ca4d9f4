// Package core implements the paper's primary contribution: divergence of
// classification behavior over frequent itemsets (Sec. 3), its Bayesian
// statistical significance (Sec. 3.3), local Shapley item contributions
// (Sec. 4.1, Eq. 5), corrective items (Sec. 4.2), global item divergence
// (Sec. 4.3, Eq. 8), and redundancy pruning (Sec. 3.5).
//
// The engine runs Algorithm 1: a frequent-pattern miner (package fpm)
// threads per-itemset outcome tallies through its pass, and every metric
// is evaluated from those tallies without rescanning the data. One mining
// run therefore serves all metrics simultaneously.
package core

import (
	"fmt"
	"math"

	"repro/internal/fpm"
	"repro/internal/stats"
)

// Outcome classes for classifier analysis: the confusion cell of each
// instance, given ground truth v and prediction u.
const (
	ClassTP uint8 = iota // u ∧ v
	ClassFP              // u ∧ ¬v
	ClassFN              // ¬u ∧ v
	ClassTN              // ¬u ∧ ¬v

	// NumConfusionClasses is the K to pass to fpm.NewTxDB for classifier
	// analysis.
	NumConfusionClasses = 4
)

// Outcome classes for a generic Boolean outcome function o : D → {T,F,⊥}
// (Def. 3.2).
const (
	OutcomeT   uint8 = iota // o(x) = T
	OutcomeF                // o(x) = F
	OutcomeBot              // o(x) = ⊥

	// NumOutcomeClasses is the K for generic outcome analysis.
	NumOutcomeClasses = 3
)

// ConfusionClasses maps ground truth and predictions to per-row confusion
// classes, the outcome encoding used for classifier divergence analysis.
func ConfusionClasses(truth, pred []bool) ([]uint8, error) {
	if len(truth) != len(pred) {
		return nil, fmt.Errorf("core: %d truth labels vs %d predictions", len(truth), len(pred))
	}
	classes := make([]uint8, len(truth))
	for i := range truth {
		switch {
		case pred[i] && truth[i]:
			classes[i] = ClassTP
		case pred[i] && !truth[i]:
			classes[i] = ClassFP
		case !pred[i] && truth[i]:
			classes[i] = ClassFN
		default:
			classes[i] = ClassTN
		}
	}
	return classes, nil
}

// Metric is an outcome rate f over itemset tallies: the positive rate
// k⁺/(k⁺+k⁻) where k⁺ sums the tally over the Pos class mask and k⁻ over
// the Neg mask; classes in neither mask are ⊥ (excluded), exactly as in
// Def. 3.2. All the paper's performance measures are instances.
type Metric struct {
	Name string
	Pos  uint16 // class mask contributing to k⁺
	Neg  uint16 // class mask contributing to k⁻
}

// Confusion-based metrics (classifier analysis, K = 4).
var (
	// FPR is the false positive rate FP/(FP+TN).
	FPR = Metric{"FPR", 1 << ClassFP, 1 << ClassTN}
	// FNR is the false negative rate FN/(FN+TP).
	FNR = Metric{"FNR", 1 << ClassFN, 1 << ClassTP}
	// ErrorRate is the misclassification rate (FP+FN)/n.
	ErrorRate = Metric{"ER", 1<<ClassFP | 1<<ClassFN, 1<<ClassTP | 1<<ClassTN}
	// Accuracy is (TP+TN)/n.
	Accuracy = Metric{"ACC", 1<<ClassTP | 1<<ClassTN, 1<<ClassFP | 1<<ClassFN}
	// PPV is the positive predictive value (precision) TP/(TP+FP).
	PPV = Metric{"PPV", 1 << ClassTP, 1 << ClassFP}
	// TPR is the true positive rate (recall) TP/(TP+FN).
	TPR = Metric{"TPR", 1 << ClassTP, 1 << ClassFN}
	// TNR is the true negative rate TN/(TN+FP).
	TNR = Metric{"TNR", 1 << ClassTN, 1 << ClassFP}
	// FDR is the false discovery rate FP/(FP+TP).
	FDR = Metric{"FDR", 1 << ClassFP, 1 << ClassTP}
	// FOR is the false omission rate FN/(FN+TN).
	FOR = Metric{"FOR", 1 << ClassFN, 1 << ClassTN}
	// PredictedPositiveRate is (TP+FP)/n, the classifier's positive rate.
	PredictedPositiveRate = Metric{"PredPos", 1<<ClassTP | 1<<ClassFP, 1<<ClassFN | 1<<ClassTN}
	// TruePositiveShare is (TP+FN)/n, the ground-truth positive rate.
	TruePositiveShare = Metric{"TruePos", 1<<ClassTP | 1<<ClassFN, 1<<ClassFP | 1<<ClassTN}
)

// OutcomeRate is the positive rate of a generic Boolean outcome function
// encoded with OutcomeT/OutcomeF/OutcomeBot classes (K = 3).
var OutcomeRate = Metric{"rate", 1 << OutcomeT, 1 << OutcomeF}

// ConfusionMetrics lists all confusion-based metrics supported out of the
// box, in the order they are commonly reported.
func ConfusionMetrics() []Metric {
	return []Metric{FPR, FNR, ErrorRate, Accuracy, PPV, TPR, TNR, FDR, FOR,
		PredictedPositiveRate, TruePositiveShare}
}

// MetricByName resolves a metric by its (case-sensitive) name.
func MetricByName(name string) (Metric, error) {
	for _, m := range ConfusionMetrics() {
		if m.Name == name {
			return m, nil
		}
	}
	if name == OutcomeRate.Name {
		return OutcomeRate, nil
	}
	return Metric{}, fmt.Errorf("core: unknown metric %q", name)
}

// Counts splits a tally into the metric's (k⁺, k⁻) observation counts.
func (m Metric) Counts(t fpm.Tally) (kPos, kNeg int64) {
	return t.Masked(m.Pos), t.Masked(m.Neg)
}

// Rate returns the metric's raw rate k⁺/(k⁺+k⁻) on a tally (Eq. 2):
// NaN when no instance has a non-⊥ outcome, where the rate is
// undefined.
func (m Metric) Rate(t fpm.Tally) float64 {
	kp, kn := m.Counts(t)
	if kp+kn == 0 {
		return math.NaN()
	}
	return float64(kp) / float64(kp+kn)
}

// posterior returns the Bayesian posterior over the metric's rate on a
// tally (Sec. 3.3), which is well defined even for all-⊥ tallies.
func (m Metric) posterior(t fpm.Tally) stats.PosteriorRate {
	kp, kn := m.Counts(t)
	return stats.NewPosteriorRate(float64(kp), float64(kn))
}

// safeRate returns the raw rate when defined and falls back to the
// posterior mean otherwise, so lattice-wide aggregates (Shapley sums,
// global divergence) stay finite. The fallback only triggers on tallies
// where the metric is entirely ⊥.
func (m Metric) safeRate(t fpm.Tally) float64 {
	if rate := m.Rate(t); !math.IsNaN(rate) {
		return rate
	}
	return m.posterior(t).Mean()
}

// Validate checks that the metric's masks are non-empty and disjoint.
func (m Metric) Validate() error {
	if m.Pos == 0 || m.Neg == 0 {
		return fmt.Errorf("core: metric %q has an empty class mask", m.Name)
	}
	if m.Pos&m.Neg != 0 {
		return fmt.Errorf("core: metric %q has overlapping class masks", m.Name)
	}
	return nil
}
