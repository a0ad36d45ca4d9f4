package core

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/fpm"
	"repro/internal/stats"
)

// Cross-exploration comparison: the same divergence machinery applied to
// two datasets over one schema — e.g. a validation set versus production
// traffic, or two model versions on the same data. For every pattern
// frequent in both explorations, the metric's rate shift between the two
// is measured with full Bayesian significance. This operationalizes the
// paper's closing remark that the divergence notion extends to other
// data-science tasks (here: drift detection and model comparison).

// PatternShift records how one pattern's metric rate moved between two
// explorations.
type PatternShift struct {
	Items fpm.Itemset
	// RateA and RateB are the raw metric rates in the two explorations.
	RateA, RateB float64
	// Shift is RateB − RateA.
	Shift float64
	// NetShift subtracts the overall movement f_B(D) − f_A(D): a pattern
	// with large NetShift moved more than the dataset did.
	NetShift float64
	// T is the Welch statistic between the two pattern posteriors.
	T float64
	// SupportA and SupportB are the pattern supports in each exploration.
	SupportA, SupportB float64
}

// Compare matches the frequent patterns of two explorations over the
// same schema and returns the shifts, largest |NetShift| first. Patterns
// frequent in only one exploration, or with an undefined rate in either,
// are skipped (they have no comparable evidence).
func Compare(a, b *Result, m Metric) ([]PatternShift, error) {
	if err := sameSchema(a, b); err != nil {
		return nil, err
	}
	globalShift := m.safeRate(b.total) - m.safeRate(a.total)
	var out []PatternShift
	for _, pa := range a.Patterns {
		pb, ok := b.Lookup(pa.Items)
		if !ok {
			continue
		}
		rateA := m.Rate(pa.Tally)
		rateB := m.Rate(pb.Tally)
		if math.IsNaN(rateA) || math.IsNaN(rateB) {
			continue
		}
		shift := rateB - rateA
		out = append(out, PatternShift{
			Items:    pa.Items,
			RateA:    rateA,
			RateB:    rateB,
			Shift:    shift,
			NetShift: shift - globalShift,
			T:        stats.WelchTPosterior(a.PosteriorRate(pa.Tally, m), b.PosteriorRate(pb.Tally, m)),
			SupportA: a.Support(pa.Tally),
			SupportB: b.Support(pb.Tally),
		})
	}
	sort.Slice(out, func(i, j int) bool {
		ni, nj := math.Abs(out[i].NetShift), math.Abs(out[j].NetShift)
		// lint:ignore floatcmp exact tie-break on computed sort keys keeps ordering deterministic
		if ni != nj {
			return ni > nj
		}
		// lint:ignore floatcmp exact tie-break on computed sort keys keeps ordering deterministic
		if out[i].T != out[j].T {
			return out[i].T > out[j].T
		}
		return lessItemsets(out[i].Items, out[j].Items)
	})
	return out, nil
}

// sameSchema verifies the two explorations share an item space.
func sameSchema(a, b *Result) error {
	ca, cb := a.DB.Catalog, b.DB.Catalog
	if ca.NumAttrs() != cb.NumAttrs() || ca.NumItems() != cb.NumItems() {
		return fmt.Errorf("core: explorations have different schemas (%d/%d attrs, %d/%d items)",
			ca.NumAttrs(), cb.NumAttrs(), ca.NumItems(), cb.NumItems())
	}
	for i := 0; i < ca.NumItems(); i++ {
		if ca.Name(fpm.Item(i)) != cb.Name(fpm.Item(i)) {
			return fmt.Errorf("core: item %d differs between schemas: %q vs %q",
				i, ca.Name(fpm.Item(i)), cb.Name(fpm.Item(i)))
		}
	}
	return nil
}
