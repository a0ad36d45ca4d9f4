package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"repro/internal/core"
)

// sessionWarm is interactive analysts: an open loop of Poisson arrivals
// over four registered, pre-mined datasets whose working set fits every
// cache. The mix is 30% /explore on COMPAS (about 70% repeats that hit
// the outcome cache, the rest fresh anytime mines), 30% expand or drill, 25%
// /analyze re-uploads and 15% /significance with method "bh".
type sessionWarm struct {
	seed   int64
	sc     scale
	tables []table
	res    []*core.Result
	pool   [][]pattern // per table: patterns the explore answers contain
	hashes []string    // per table, set by setup
	phase  int64       // drive calls so far; seeds each phase's schedule

	mu      sync.Mutex // guards the planner state below
	rng     *rand.Rand
	decks   warmDecks
	fresh   [][]byte // unbudgeted fresh explore bodies, in dispatch order
	nExact  int
	nSample int
}

// warmDecks deal every choice of the mix, so that its composition — how
// many requests of each class, on each dataset, under each metric — is
// the same under every seed and only the order changes. Drawn
// independently, the few hundred fresh /explore mines of a window, which
// cost far more than the cache hits around them, varied in number by
// several percent from seed to seed.
type warmDecks struct {
	class  deck // 20 slots: 6 explore, 6 expand or drill, 5 analyze, 3 significance
	table  deck
	metric deck
	repeat deck // 10 slots: 7 repeat an earlier /explore question
	fresh  deck // exact, sampled or budgeted
	drill  deck // expand or drill
}

// deck deals the values 0..n-1, each once per round, in an order the
// generator shuffles afresh every round.
type deck struct {
	rng  *rand.Rand
	n    int
	left []int
}

func newDeck(rng *rand.Rand, n int) deck { return deck{rng: rng, n: n} }

func (d *deck) draw() int {
	if len(d.left) == 0 {
		d.left = d.rng.Perm(d.n)
	}
	v := d.left[0]
	d.left = d.left[1:]
	return v
}

// pattern is an itemset to expand, with the attributes it leaves free.
type pattern struct {
	items []string
	free  []string
}

var warmMetrics = []string{"ER", "FPR", "FNR"}

// Explore repeats pick among the freshest repeatWindow unbudgeted
// questions, skipping the repeatLag newest, which may still be in
// flight. Together they stay well inside the 64-entry outcome cache.
const (
	repeatWindow = 24
	repeatLag    = 4
)

func newSessionWarm(ctx context.Context, seed int64, sc scale) (*sessionWarm, error) {
	tables, err := warmTables(ctx, seed, sc)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(subSeed(seed, 99)))
	l := &sessionWarm{seed: seed, sc: sc, tables: tables, rng: rng}
	// The expand pool holds the root and the patterns of each top-10
	// answer, computed in process: they are the patterns the server's
	// answers contain (the checks hold the two equal).
	for _, t := range tables {
		res, err := mineTable(ctx, t)
		if err != nil {
			return nil, err
		}
		cat := res.DB.Catalog
		all := make([]string, cat.NumAttrs())
		for a := range all {
			all[a] = cat.AttrName(a)
		}
		pats := []pattern{{items: []string{}, free: all}}
		for _, name := range warmMetrics {
			m, err := core.MetricByName(name)
			if err != nil {
				return nil, err
			}
			for _, rk := range res.TopK(m, 10, core.ByAbsDivergence) {
				bound := make([]bool, cat.NumAttrs())
				for _, it := range rk.Items {
					bound[cat.Attr(it)] = true
				}
				p := pattern{items: itemNames(res, rk.Items)}
				for a, b := range bound {
					if !b {
						p.free = append(p.free, all[a])
					}
				}
				pats = append(pats, p)
			}
		}
		l.res = append(l.res, res)
		l.pool = append(l.pool, pats)
	}
	l.decks = warmDecks{
		class: newDeck(rng, 20), table: newDeck(rng, len(tables)), metric: newDeck(rng, len(warmMetrics)),
		repeat: newDeck(rng, 10), fresh: newDeck(rng, 3), drill: newDeck(rng, 2),
	}
	return l, nil
}

func (l *sessionWarm) budget() int64 { return 0 }

// setup registers every dataset.
func (l *sessionWarm) setup(ctx context.Context, c *client) error {
	hashes, err := register(ctx, c, l.tables)
	l.hashes = hashes
	return err
}

// prime mines every dataset once through /analyze.
func (l *sessionWarm) prime(ctx context.Context, c *client) error {
	return mine(ctx, c, l.tables, "")
}

// register uploads each table to POST /datasets and returns their hashes.
func register(ctx context.Context, c *client, tables []table) ([]string, error) {
	var hashes []string
	for _, t := range tables {
		rp, err := c.ok(ctx, http.MethodPost, "/datasets", "datasets", t.csv)
		if err != nil {
			return nil, err
		}
		var ds struct {
			Hash string `json:"hash"`
		}
		if err := json.Unmarshal(rp.body, &ds); err != nil {
			return nil, fmt.Errorf("decoding /datasets reply: %w", err)
		}
		hashes = append(hashes, ds.Hash)
	}
	return hashes, nil
}

// mine sends each table to POST /analyze (metric, when set, selects the
// metric list), so its result is cached.
func mine(ctx context.Context, c *client, tables []table, metric string) error {
	for _, t := range tables {
		path := analyzePath(t)
		if metric != "" {
			path += "&metric=" + metric
		}
		if _, err := c.ok(ctx, http.MethodPost, path, "analyze", t.csv); err != nil {
			return err
		}
	}
	return nil
}

type exploreReq struct {
	Dataset    string     `json:"dataset"`
	Support    float64    `json:"support"`
	Metric     string     `json:"metric"`
	TopK       int        `json:"topk,omitempty"`
	BudgetMS   int64      `json:"budget_ms,omitempty"`
	SampleRows int        `json:"sample_rows,omitempty"`
	SampleSeed int64      `json:"sample_seed,omitempty"`
	Expand     *expandReq `json:"expand,omitempty"`
}

type expandReq struct {
	Pattern []string `json:"pattern"`
	Attr    string   `json:"attr,omitempty"`
}

// plan is one request of the mix.
type plan struct {
	class, path string
	body        []byte
}

// next draws the next request of the mix. Every choice comes from the
// seeded decks and generator in dispatch order, so a seed fixes the
// request sequence.
func (l *sessionWarm) next() (plan, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	d := &l.decks
	ti := d.table.draw()
	t, h := l.tables[ti], l.hashes[ti]
	metric := warmMetrics[d.metric.draw()]
	switch slot := d.class.draw(); {
	case slot < 6:
		return l.explore(metric)
	case slot < 12:
		p := l.pool[ti][l.rng.Intn(len(l.pool[ti]))]
		ex := &expandReq{Pattern: p.items}
		class := "expand"
		if d.drill.draw() == 0 && len(p.free) > 0 {
			ex.Attr = p.free[l.rng.Intn(len(p.free))]
			class = "drill"
		}
		b, err := json.Marshal(exploreReq{Dataset: h, Support: t.support, Metric: metric, Expand: ex})
		return plan{class, "/explore", b}, err
	case slot < 17:
		return plan{"analyze", analyzePath(t), t.csv}, nil
	default:
		b, err := json.Marshal(sigReq{Dataset: h, Support: t.support, Metric: metric, Method: "bh"})
		return plan{"significance", "/significance", b}, err
	}
}

// explore draws an /explore question about the first dataset (COMPAS):
// a repeat of a recent question (70%) or a fresh one — an exact top-k
// under a topk not asked before, a sampled mine under a new sample seed,
// or an exact top-k under a 25 ms budget. Fresh exact questions walk
// (metric, topk) combinations in order, so none repeats within 270
// questions. Fresh questions cost a mine each, far more than anything
// else in the mix; keeping them on one dataset makes their cost that of
// one mine rather than a mixture of four datasets' mining costs, which
// moved by a fifth from one seed to the next.
func (l *sessionWarm) explore(metric string) (plan, error) {
	if end := len(l.fresh) - repeatLag; l.decks.repeat.draw() < 7 && end > 0 {
		start := end - repeatWindow
		if start < 0 {
			start = 0
		}
		return plan{"explore", "/explore", l.fresh[start+l.rng.Intn(end-start)]}, nil
	}
	t := l.tables[0]
	q := exploreReq{Dataset: l.hashes[0], Support: t.support, Metric: metric, TopK: 10}
	kind := l.decks.fresh.draw()
	if kind == 1 {
		l.nSample++
		q.SampleRows, q.SampleSeed = t.rows/2, int64(l.nSample)
	} else {
		i := l.nExact
		l.nExact++
		q.Metric = warmMetrics[i%len(warmMetrics)]
		q.TopK = 11 + (i/len(warmMetrics))%90
		if kind == 2 {
			q.BudgetMS = 25
		}
	}
	b, err := json.Marshal(q)
	if err == nil && q.BudgetMS == 0 {
		l.fresh = append(l.fresh, b)
	}
	return plan{"explore", "/explore", b}, err
}

func (l *sessionWarm) drive(ctx context.Context, c *client, rec *recorder, until time.Time) {
	l.phase++
	start := time.Now()
	sched := poissonSchedule(subSeed(l.seed, 100+int(l.phase)), l.sc.warmRate, until.Sub(start))
	openLoop(ctx, start, until, sched, maxConns, func() op {
		p, err := l.next()
		return func(ctx context.Context, due time.Time) {
			if err != nil {
				rec.record(p.class, 0, 0, err)
				return
			}
			if p.class == "analyze" {
				rec.count("uploads", 1)
			}
			rp, err := c.ok(ctx, http.MethodPost, p.path, p.class, p.body)
			if err == nil && rp.done.After(until) {
				rec.overrun()
				return
			}
			rec.record(p.class, msBetween(due, rp.done), msBetween(due, rp.sent), err, rp)
		}
	})
}

// check requires an unbudgeted /explore to equal the exhaustive
// in-process ranking, and a cache-hit answer to equal the miss answer it
// repeats apart from cache_hit. Both questions use a topk the mix never
// asks, so the first asking is a miss.
func (l *sessionWarm) check(ctx context.Context, c *client) []error {
	var errs []error
	q := exploreReq{Dataset: l.hashes[0], Support: l.tables[0].support, Metric: "FPR", TopK: 10}
	body, err := json.Marshal(q)
	if err != nil {
		return []error{err}
	}
	rp, err := c.ok(ctx, http.MethodPost, "/explore", "explore", body)
	if err == nil {
		var out struct {
			Top []ranked `json:"top"`
		}
		if err = json.Unmarshal(rp.body, &out); err == nil {
			m, _ := core.MetricByName("FPR") // a built-in metric name
			var same bool
			if same, err = sameJSON(out.Top, expectTopK(l.res[0], m, 10, false)); err == nil && !same {
				err = errors.New("/explore with no budget differs from the exhaustive ranking")
			}
		}
	}
	if err != nil {
		errs = append(errs, err)
	}

	q = exploreReq{Dataset: l.hashes[1], Support: l.tables[1].support, Metric: "FNR", TopK: 7}
	if body, err = json.Marshal(q); err != nil {
		return append(errs, err)
	}
	var answers [2]map[string]any
	for i := range answers {
		rp, err := c.ok(ctx, http.MethodPost, "/explore", "explore", body)
		if err == nil {
			err = json.Unmarshal(rp.body, &answers[i])
		}
		if err != nil {
			return append(errs, err)
		}
	}
	if answers[0]["cache_hit"] != false || answers[1]["cache_hit"] != true {
		errs = append(errs, fmt.Errorf("explore cache_hit went %v then %v, want false then true",
			answers[0]["cache_hit"], answers[1]["cache_hit"]))
	}
	delete(answers[0], "cache_hit")
	delete(answers[1], "cache_hit")
	if same, err := sameJSON(answers[0], answers[1]); err != nil || !same {
		errs = append(errs, fmt.Errorf("explore cache-hit answer differs from the miss answer (%v)", err))
	}
	return errs
}

func (l *sessionWarm) replayTables() []table { return l.tables }

func (l *sessionWarm) primary() string { return "explore" }
