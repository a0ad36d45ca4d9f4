package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/fpm"
	"repro/internal/jobs"
	"repro/internal/lattice"
	"repro/internal/monitor"
	"repro/internal/permtest"
	"repro/internal/registry"
	"repro/internal/server"
)

// The layer replay runs after the measured window, in this process, on
// one goroutine: it calls each layer's public function on the workload's
// datasets in the order the handlers call them, and records the duration
// and the heap allocations (runtime.MemStats.Mallocs) of every call.
// Layers a workload's traffic never reaches are replayed on its datasets
// too, so every workload reports every layer.

const replayRounds = 3

// replayIngestBatches is how many batches each monitor folds in the
// monitor replay.
const replayIngestBatches = 50

type layerSamples struct {
	ms       map[string][]float64
	allocs   map[string][]float64
	patterns []float64 // pattern count of each replayed mine
}

// measure times f as one call of layer name.
func (ls *layerSamples) measure(name string, f func() error) error {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	err := f()
	d := time.Since(t0)
	runtime.ReadMemStats(&m1)
	if err != nil {
		return fmt.Errorf("replaying %s: %w", name, err)
	}
	ls.ms[name] = append(ls.ms[name], float64(d)/1e6)
	ls.allocs[name] = append(ls.allocs[name], float64(m1.Mallocs-m0.Mallocs))
	return nil
}

// replayed is one replay metric with the number of calls behind it.
type replayed struct {
	v float64
	n int
}

// replayLayers replays every layer and returns its per-layer metrics:
// <layer>_ms is the median time per call, <layer>_allocs the mean
// allocations per call.
func replayLayers(ctx context.Context, tables []table, seed int64, sc scale) (map[string]replayed, error) {
	ls := &layerSamples{ms: map[string][]float64{}, allocs: map[string][]float64{}}
	er, err := core.MetricByName("ER")
	if err != nil {
		return nil, err
	}
	smallest := 0
	for i, t := range tables {
		if len(t.csv) < len(tables[smallest].csv) {
			smallest = i
		}
	}
	for round := 0; round < replayRounds; round++ {
		for i, t := range tables {
			if err := replayTable(ctx, ls, t, er); err != nil {
				return nil, err
			}
			if round == 0 && i == smallest {
				// Westfall-Young runs once, on the smallest dataset: a 1000-
				// permutation pass over the largest audit-cold dataset takes
				// seconds.
				res, err := mineTable(ctx, t)
				if err != nil {
					return nil, err
				}
				err = ls.measure("permtest.wy", func() error {
					_, err := res.SignificantPatternsWY(ctx, er, 0.05, core.ByAbsDivergence,
						permtest.Config{Permutations: sc.permutations, Seed: seed})
					return err
				})
				if err != nil {
					return nil, err
				}
			}
		}
	}
	if err := replayMonitor(ls, seed, sc); err != nil {
		return nil, err
	}

	out := map[string]replayed{}
	for name, xs := range ls.ms {
		out[name+"_ms"] = replayed{median(xs), len(xs)}
	}
	for _, name := range []string{"registry.register", "dataset.read_csv", "fpm.mine", "core.rank", "lattice.expand", "monitor.ingest"} {
		out[name+"_allocs"] = replayed{mean(ls.allocs[name]), len(ls.allocs[name])}
	}
	out["fpm.patterns"] = replayed{mean(ls.patterns), len(ls.patterns)}
	return out, nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return sum(xs) / float64(len(xs))
}

// replayTable replays the /analyze path (hash, register, decode, build
// the transaction database, mine, rank as the JSON answer does), then the
// interactive layers (anytime top-k, BH, lattice navigation) and the
// JSON encoding of their outcomes.
func replayTable(ctx context.Context, ls *layerSamples, t table, er core.Metric) error {
	if err := ls.measure("registry.hash", func() error { registry.HashBytes(t.csv); return nil }); err != nil {
		return err
	}
	reg := registry.New(0)
	var hash registry.Hash
	err := ls.measure("registry.register", func() error {
		e, _, err := reg.Register(t.csv, server.CSVOptions())
		if err == nil {
			hash = e.Hash
		}
		return err
	})
	if err != nil {
		return err
	}
	err = ls.measure("registry.dedup", func() error {
		_, existed, err := reg.Register(t.csv, server.CSVOptions())
		if err == nil && !existed {
			err = fmt.Errorf("%s: re-registration parsed again", t.name)
		}
		return err
	})
	if err != nil {
		return err
	}
	entry, ok := reg.Get(hash)
	if !ok {
		return fmt.Errorf("%s: registered dataset missing", t.name)
	}
	if err := ls.measure("dataset.read_csv", func() error { _, err := parseTable(t); return err }); err != nil {
		return err
	}
	var db *fpm.TxDB
	if err := ls.measure("fpm.txdb", func() error { db, err = txdb(entry.Data); return err }); err != nil {
		return err
	}
	var res *core.Result
	err = ls.measure("fpm.mine", func() error {
		res, err = core.ExploreContext(ctx, db, t.support, core.Options{Miner: fpm.Parallel{}})
		return err
	})
	if err != nil {
		return err
	}
	ls.patterns = append(ls.patterns, float64(res.NumPatterns()))
	if err := ls.measure("core.rank", func() error { return rankLikeAnalyze(res) }); err != nil {
		return err
	}
	err = ls.measure("core.anytime", func() error {
		_, err := core.ExploreTopKAnytime(db, t.support, er, 10, core.ByAbsDivergence, core.AnytimeOptions{})
		return err
	})
	if err != nil {
		return err
	}
	if err := ls.measure("core.bh", func() error { res.SignificantPatterns(er, 0.05, core.ByAbsDivergence); return nil }); err != nil {
		return err
	}
	if err := replayLattice(ls, res, db, t.support, er); err != nil {
		return err
	}
	return replayEncode(ctx, ls, reg, hash, t)
}

// rankLikeAnalyze ranks a result the way the /analyze JSON answer does
// for its default metrics: top-10 with p-values, item divergence and the
// top corrective items.
func rankLikeAnalyze(res *core.Result) error {
	for _, name := range []string{"FPR", "FNR"} {
		m, err := core.MetricByName(name)
		if err != nil {
			return err
		}
		for _, rk := range res.TopK(m, 10, core.ByAbsDivergence) {
			res.PValue(rk.Tally, m)
		}
		res.CompareItemDivergence(m)
		res.TopCorrective(m, 5, 2.0)
	}
	return nil
}

// replayLattice warms a navigator on the root and the top-10 patterns,
// then times warm Expand and Drill on each, as repeated clicks are.
func replayLattice(ls *layerSamples, res *core.Result, db *fpm.TxDB, support float64, m core.Metric) error {
	nav := lattice.NewExplorer(db, 0)
	minCount := fpm.MinCount(db.NumRows(), support)
	pats := []fpm.Itemset{nil}
	for _, rk := range res.TopK(m, 10, core.ByAbsDivergence) {
		pats = append(pats, rk.Items)
	}
	for _, p := range pats {
		if _, err := nav.Expand(p, minCount); err != nil {
			return err
		}
	}
	for _, p := range pats {
		if err := ls.measure("lattice.expand", func() error { _, err := nav.Expand(p, minCount); return err }); err != nil {
			return err
		}
		free := freeAttr(db.Catalog, p)
		if free < 0 {
			continue
		}
		if err := ls.measure("lattice.expand", func() error { _, err := nav.Drill(p, free, minCount); return err }); err != nil {
			return err
		}
	}
	return nil
}

// freeAttr is the first attribute the pattern does not bind, -1 if none.
func freeAttr(c *fpm.Catalog, p fpm.Itemset) int {
	bound := make([]bool, c.NumAttrs())
	for _, it := range p {
		bound[c.Attr(it)] = true
	}
	for a, b := range bound {
		if !b {
			return a
		}
	}
	return -1
}

// replayEncode obtains real explore, expand and significance outcomes
// from an in-process engine and times their JSON encoding as the server
// writes it (indented), one sample per outcome triple.
func replayEncode(ctx context.Context, ls *layerSamples, reg *registry.Registry, h registry.Hash, t table) error {
	eng, err := jobs.New(jobs.Config{Registry: reg, Workers: 1})
	if err != nil {
		return err
	}
	defer func() { _ = eng.Shutdown(ctx) }() // nothing was queued; the drain cannot fail
	x, err := eng.Explore(ctx, jobs.ExploreSpec{Dataset: h, TruthCol: "truth", PredCol: "pred", Support: t.support, TopK: 10})
	if err != nil {
		return err
	}
	e, err := eng.Expand(jobs.ExpandSpec{Dataset: h, TruthCol: "truth", PredCol: "pred", Support: t.support})
	if err != nil {
		return err
	}
	s, err := eng.Significance(ctx, jobs.SignificanceSpec{Dataset: h, TruthCol: "truth", PredCol: "pred",
		Support: t.support, Method: jobs.MethodBH})
	if err != nil {
		return err
	}
	return ls.measure("server.encode", func() error {
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		enc.SetIndent("", "  ")
		for _, v := range []any{x, e, s} {
			if err := enc.Encode(v); err != nil {
				return err
			}
		}
		return nil
	})
}

// replayMonitor folds the monitor-stream feed into a replay manager's
// four monitors, timing each Monitor.Ingest call until its batch is
// folded into the window.
func replayMonitor(ls *layerSamples, seed int64, sc scale) error {
	specs, err := monitorSpecs()
	if err != nil {
		return err
	}
	mgr := monitor.NewManager(monitor.Config{})
	defer mgr.Close()
	for i, raw := range specs {
		spec, err := monitor.ParseSpec(raw)
		if err != nil {
			return err
		}
		m, err := mgr.Create(spec)
		if err != nil {
			return err
		}
		feed := &driftFeed{seed: subSeed(seed, 200+i), lap: sc.driftLap}
		var want int64
		for b := 0; b < replayIngestBatches; b++ {
			body, err := feed.next()
			if err != nil {
				return err
			}
			err = ls.measure("monitor.ingest", func() error {
				res, err := m.Ingest(body)
				if err != nil {
					return err
				}
				want += int64(res.Accepted)
				for m.Counters().Events < want {
					runtime.Gosched()
				}
				return nil
			})
			if err != nil {
				return err
			}
		}
	}
	return nil
}
