package core

import (
	"fmt"
	"math"

	"repro/internal/fpm"
)

// Group-fairness summary: the per-group confusion metrics and their gaps
// for one protected attribute. This packages the paper's motivating
// fairness use case (Sec. 1) into a direct API: divergence exploration
// finds *which* subgroups behave differently; this report quantifies the
// standard fairness criteria for a chosen attribute — statistical parity
// (predicted positive rate), equal opportunity (TPR), predictive
// equality (FPR), predictive parity (PPV) and accuracy equality.

// GroupMetrics holds one attribute value's confusion-based metrics.
// Metrics with an empty denominator are NaN.
type GroupMetrics struct {
	Item     fpm.Item
	Value    string
	Support  float64
	Positive float64 // predicted positive rate
	FPR      float64
	FNR      float64
	TPR      float64
	PPV      float64
	Accuracy float64
}

// FairnessReport summarizes one protected attribute.
type FairnessReport struct {
	AttrName string
	Groups   []GroupMetrics
	// Gaps are max−min across groups where the metric is defined.
	StatParityGap float64
	FPRGap        float64
	FNRGap        float64
	EqualOppGap   float64 // TPR gap
	PPVGap        float64
	AccuracyGap   float64
}

// Fairness computes the group metrics and gaps for a protected
// attribute. Group tallies are computed by a direct scan so that even
// groups below the exploration's support threshold are reported. The
// outcome classes must be the confusion encoding (NewClassifierExplorer
// / ConfusionClasses); other encodings return an error.
func (r *Result) Fairness(attrName string) (FairnessReport, error) {
	if r.DB.K != NumConfusionClasses {
		return FairnessReport{}, fmt.Errorf("core: fairness report needs confusion-class outcomes (K=%d)", r.DB.K)
	}
	cat := r.DB.Catalog
	attr := -1
	for a := 0; a < cat.NumAttrs(); a++ {
		if cat.AttrName(a) == attrName {
			attr = a
			break
		}
	}
	if attr < 0 {
		return FairnessReport{}, fmt.Errorf("core: unknown attribute %q", attrName)
	}
	card := cat.Cardinality(attr)
	tallies := make([]fpm.Tally, card)
	for row, c := range r.DB.Classes {
		tallies[r.DB.Data.Rows[row][attr]][c]++
	}
	rep := FairnessReport{AttrName: attrName}
	for v := 0; v < card; v++ {
		t := tallies[v]
		it := cat.ItemFor(attr, int32(v))
		g := GroupMetrics{
			Item:     it,
			Value:    r.DB.Data.Attrs[attr].Values[v],
			Support:  float64(t.Total()) / float64(r.DB.NumRows()),
			Positive: PredictedPositiveRate.Rate(t),
			FPR:      FPR.Rate(t),
			FNR:      FNR.Rate(t),
			TPR:      TPR.Rate(t),
			PPV:      PPV.Rate(t),
			Accuracy: Accuracy.Rate(t),
		}
		rep.Groups = append(rep.Groups, g)
	}
	rep.StatParityGap = gap(rep.Groups, func(g GroupMetrics) float64 { return g.Positive })
	rep.FPRGap = gap(rep.Groups, func(g GroupMetrics) float64 { return g.FPR })
	rep.FNRGap = gap(rep.Groups, func(g GroupMetrics) float64 { return g.FNR })
	rep.EqualOppGap = gap(rep.Groups, func(g GroupMetrics) float64 { return g.TPR })
	rep.PPVGap = gap(rep.Groups, func(g GroupMetrics) float64 { return g.PPV })
	rep.AccuracyGap = gap(rep.Groups, func(g GroupMetrics) float64 { return g.Accuracy })
	return rep, nil
}

func gap(groups []GroupMetrics, f func(GroupMetrics) float64) float64 {
	lo, hi := math.Inf(1), math.Inf(-1)
	defined := false
	for _, g := range groups {
		v := f(g)
		if math.IsNaN(v) {
			continue
		}
		defined = true
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if !defined {
		return math.NaN()
	}
	return hi - lo
}
