package jobs

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/fpm"
	"repro/internal/registry"
)

// AnalyzeFunc runs one analysis over an already-parsed dataset. tr may
// be nil (the synchronous path); when non-nil the analysis reports
// subproblem progress counts and partial-result snapshots through it,
// possibly from several goroutines at once. The default is RunAnalysis;
// tests and alternative backends substitute their own.
type AnalyzeFunc func(ctx context.Context, data *dataset.Dataset, spec Spec, tr *Tracker) (*core.Result, error)

// RunAnalysis is the built-in DivExplorer pipeline: extract the Boolean
// truth/prediction columns, derive confusion classes, and mine the full
// lattice with the parallel bitset miner (fpm.Parallel) under ctx. While
// mining, each completed subproblem's patterns are folded into a running
// top-K leaderboard and published through the tracker as a
// partial-result snapshot. Input-shaped failures wrap ErrBadInput so the
// HTTP layer can distinguish a bad request from an internal fault.
func RunAnalysis(ctx context.Context, data *dataset.Dataset, spec Spec, tr *Tracker) (*core.Result, error) {
	db, err := confusionDB(data, spec.TruthCol, spec.PredCol)
	if err != nil {
		return nil, err
	}
	if spec.Support < 0 || spec.Support > 1 {
		return nil, fmt.Errorf("%w: support %v out of [0,1]", ErrBadInput, spec.Support)
	}
	miner := fpm.Parallel{Progress: tr.Progress}
	if tr != nil {
		acc := newPartialAccum(db, spec, tr)
		miner.Emit = func(batch []fpm.FrequentPattern, done, total int) { acc.add(batch, done, total) }
	}
	return core.ExploreContext(ctx, db, spec.Support, core.Options{Miner: miner})
}

// Source implements Work.
func (s Spec) Source() (registry.Hash, string) { return s.Dataset, s.Tenant }

// prepare implements Work: an analysis spec is validated when it runs.
func (s Spec) prepare(*Engine) (Work, error) { return s, nil }

// record implements Work. A full Result is too large to log, so a done
// record carries its summary, with the spec as the recipe Rehydrate
// re-mines it from.
func (s Spec) record(out any) Record {
	rec := Record{Spec: &s}
	if res, ok := out.(*core.Result); ok {
		rec.Result = summarize(res, s)
	}
	return rec
}

// run implements Work: mine, or reuse, the lattice through the cache.
func (s Spec) run(ctx context.Context, e *Engine, tr *Tracker) (any, bool, error) {
	res, hit, err := e.analyzeCached(ctx, s, tr)
	if res == nil {
		return nil, hit, err // never box a nil pointer into the outcome
	}
	return res, hit, err
}

// confusionDB builds the transaction database DivExplorer mines from a
// dataset: the Boolean label columns are removed and each row's
// (truth, prediction) pair becomes its confusion class. Every failure is
// the request's fault and wraps ErrBadInput.
func confusionDB(data *dataset.Dataset, truthCol, predCol string) (*fpm.TxDB, error) {
	truth, pred, rest, err := extractLabels(data, truthCol, predCol)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadInput, err)
	}
	classes, err := core.ConfusionClasses(truth, pred)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadInput, err)
	}
	db, err := fpm.NewTxDB(rest, classes, core.NumConfusionClasses)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadInput, err)
	}
	return db, nil
}

// extractLabels pulls and removes the Boolean label columns. The input
// dataset is not modified; mining runs on the returned copy. Each
// label column's few domain values are classified once, and rows are
// read by code.
func extractLabels(d *dataset.Dataset, truthCol, predCol string) (truth, pred []bool, out *dataset.Dataset, err error) {
	parse := func(col string) ([]bool, error) {
		idx := d.AttrIndex(col)
		if idx < 0 {
			return nil, fmt.Errorf("unknown column %q", col)
		}
		values := d.Attrs[idx].Values
		class := make([]int8, len(values)) // 1 true, 0 false, -1 not Boolean
		for k, v := range values {
			switch strings.ToLower(v) {
			case "1", "true", "t", "yes", "y":
				class[k] = 1
			case "0", "false", "f", "no", "n":
				class[k] = 0
			default:
				class[k] = -1
			}
		}
		vals := make([]bool, d.NumRows())
		for r, row := range d.Rows {
			c := class[row[idx]]
			if c < 0 {
				return nil, fmt.Errorf("row %d: column %q value %q is not Boolean",
					r, col, values[row[idx]])
			}
			vals[r] = c == 1
		}
		return vals, nil
	}
	if truth, err = parse(truthCol); err != nil {
		return nil, nil, nil, err
	}
	if pred, err = parse(predCol); err != nil {
		return nil, nil, nil, err
	}
	out, err = d.DropAttrs(truthCol, predCol)
	return truth, pred, out, err
}
