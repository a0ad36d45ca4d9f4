package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/fpm"
	"repro/internal/server"
)

// The checks compare the server's answers with the same computation run
// in this process through the library packages. Numbers are compared by
// their JSON encoding: the server's floats survive the JSON round trip
// exactly, so equal encodings mean equal values.

// ranked is the part of a ranked pattern both /analyze and /explore
// report.
type ranked struct {
	Itemset    []string `json:"itemset"`
	Support    float64  `json:"support"`
	Rate       float64  `json:"rate"`
	Divergence float64  `json:"divergence"`
	T          float64  `json:"t"`
	PValue     float64  `json:"p_value,omitempty"`
}

// parseTable decodes a table the way the server does.
func parseTable(t table) (*dataset.Dataset, error) {
	return dataset.ReadCSV(bytes.NewReader(t.csv), server.CSVOptions())
}

// txdb builds the transaction database the server mines for a dataset
// with "truth" and "pred" label columns.
func txdb(d *dataset.Dataset) (*fpm.TxDB, error) {
	truth, err := boolColumn(d, "truth")
	if err != nil {
		return nil, err
	}
	pred, err := boolColumn(d, "pred")
	if err != nil {
		return nil, err
	}
	rest, err := d.DropAttrs("truth", "pred")
	if err != nil {
		return nil, err
	}
	classes, err := core.ConfusionClasses(truth, pred)
	if err != nil {
		return nil, err
	}
	return fpm.NewTxDB(rest, classes, core.NumConfusionClasses)
}

func boolColumn(d *dataset.Dataset, name string) ([]bool, error) {
	a := d.AttrIndex(name)
	if a < 0 {
		return nil, fmt.Errorf("no column %q", name)
	}
	out := make([]bool, d.NumRows())
	for r := range out {
		switch v := d.Value(r, a); v {
		case "1":
			out[r] = true
		case "0":
		default:
			return nil, fmt.Errorf("column %q row %d: %q is not 0 or 1", name, r, v)
		}
	}
	return out, nil
}

// mineTable runs the whole /analyze mine in process.
func mineTable(ctx context.Context, t table) (*core.Result, error) {
	d, err := parseTable(t)
	if err != nil {
		return nil, err
	}
	db, err := txdb(d)
	if err != nil {
		return nil, err
	}
	return core.ExploreContext(ctx, db, t.support, core.Options{Miner: fpm.Parallel{}})
}

func itemNames(res *core.Result, is fpm.Itemset) []string {
	out := make([]string, len(is))
	for i, it := range is {
		out[i] = res.DB.Catalog.Name(it)
	}
	return out
}

// expectTopK is the in-process top-k by |divergence|, with p-values
// when withP is set (as /analyze reports them).
func expectTopK(res *core.Result, m core.Metric, k int, withP bool) []ranked {
	var out []ranked
	for _, rk := range res.TopK(m, k, core.ByAbsDivergence) {
		r := ranked{Itemset: itemNames(res, rk.Items), Support: rk.Support, Rate: rk.Rate,
			Divergence: rk.Divergence, T: rk.T}
		if withP {
			r.PValue = res.PValue(rk.Tally, m)
		}
		out = append(out, r)
	}
	return out
}

// sameJSON reports whether two values encode identically.
func sameJSON(a, b any) (bool, error) {
	x, err := json.Marshal(a)
	if err != nil {
		return false, err
	}
	y, err := json.Marshal(b)
	if err != nil {
		return false, err
	}
	return bytes.Equal(x, y), nil
}

// checkAnalyzeTopK compares an /analyze JSON answer's top_divergent
// lists with the in-process ranking of the same table.
func checkAnalyzeTopK(ctx context.Context, t table, body []byte) error {
	var resp struct {
		Metrics []struct {
			Metric string   `json:"metric"`
			Top    []ranked `json:"top_divergent"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("decoding /analyze answer: %w", err)
	}
	res, err := mineTable(ctx, t)
	if err != nil {
		return err
	}
	if len(resp.Metrics) == 0 {
		return fmt.Errorf("%s: /analyze answer has no metrics", t.name)
	}
	for _, mj := range resp.Metrics {
		m, err := core.MetricByName(mj.Metric)
		if err != nil {
			return err
		}
		same, err := sameJSON(mj.Top, expectTopK(res, m, 10, true))
		if err != nil {
			return err
		}
		if !same {
			return fmt.Errorf("%s: /analyze %s top-10 differs from the in-process ranking", t.name, mj.Metric)
		}
	}
	return nil
}
