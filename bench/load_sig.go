package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync/atomic"
	"time"
)

// significanceWY is permutation-testing traffic: analysts sending
// synchronous POST /significance as Poisson arrivals over three
// registered, pre-mined datasets. Every query draws a fresh permutation
// seed (70% "wy", 30% "perm-fdr"), so it misses the significance cache
// and hits the result cache: Westfall-Young does nearly all the work.
// The asynchronous path is checked after the window rather than timed:
// a job's latency includes the event stream's 100 ms poll, which would
// swamp the test it waits for.
type significanceWY struct {
	seed   int64
	sc     scale
	tables []table
	hashes []string
	n      atomic.Int64 // queries planned so far
	phase  int64        // drive calls so far; seeds each phase's schedule
}

func newSignificanceWY(ctx context.Context, seed int64, sc scale) (*significanceWY, error) {
	tables, err := sigTables(ctx, seed)
	return &significanceWY{seed: seed, sc: sc, tables: tables}, err
}

func (l *significanceWY) budget() int64 { return 0 }

// setup registers the datasets.
func (l *significanceWY) setup(ctx context.Context, c *client) error {
	hashes, err := register(ctx, c, l.tables)
	l.hashes = hashes
	return err
}

// prime mines each dataset with metric ER, the lattice the significance
// queries test.
func (l *significanceWY) prime(ctx context.Context, c *client) error {
	return mine(ctx, c, l.tables, "ER")
}

type sigReq struct {
	Dataset      string  `json:"dataset"`
	Support      float64 `json:"support"`
	Metric       string  `json:"metric,omitempty"`
	Method       string  `json:"method"`
	Permutations int     `json:"permutations,omitempty"`
	Seed         int64   `json:"seed,omitempty"`
	Alpha        float64 `json:"alpha,omitempty"`
	TopK         int     `json:"topk,omitempty"`
	Async        bool    `json:"async,omitempty"`
}

// query builds the i-th query: datasets in rotation, and the method
// from the seed-derived permutation seed, "wy" seven times in ten. The
// class it is recorded under names the method.
func (l *significanceWY) query(i int64) (class string, body []byte, err error) {
	t := int(i % int64(len(l.tables)))
	seed := subSeed(l.seed, int(i))
	method, class := "wy", "wy"
	if (seed%10+10)%10 >= 7 {
		method, class = "perm-fdr", "perm_fdr"
	}
	body, err = json.Marshal(sigReq{Dataset: l.hashes[t], Support: l.tables[t].support, Method: method,
		Permutations: l.sc.permutations, Seed: seed})
	return class, body, err
}

func (l *significanceWY) drive(ctx context.Context, c *client, rec *recorder, until time.Time) {
	query := func(ctx context.Context, due time.Time) {
		class, body, err := l.query(l.n.Add(1))
		var rp reply
		if err == nil {
			rp, err = c.ok(ctx, http.MethodPost, "/significance", "significance", body)
			if err == nil && rp.done.After(until) {
				rec.overrun()
				return
			}
		}
		rec.record(class, msBetween(due, rp.done), msBetween(due, rp.sent), err, rp)
	}
	l.phase++
	start := time.Now()
	sched := poissonSchedule(subSeed(l.seed, 300+int(l.phase)), l.sc.sigRate, until.Sub(start))
	openLoop(ctx, start, until, sched, maxConns, func() op { return query })
}

// check requires the same permutation seed to give identical adjusted
// p-values: three queries that differ only in topk are computed apart
// (the significance cache keys on topk), the third as an async job, and
// must agree on every pattern all three report. An alpha just below 1,
// over all three datasets, makes sure there are patterns to compare.
func (l *significanceWY) check(ctx context.Context, c *client) []error {
	type sig struct {
		Itemset []string `json:"itemset"`
		P       float64  `json:"p"`
		AdjP    float64  `json:"adj_p"`
	}
	compared := 0
	for ti, t := range l.tables {
		var tops [3][]sig
		n := -1
		for i, k := range []int{20, 21, 22} {
			async := i == 2
			body, err := json.Marshal(sigReq{Dataset: l.hashes[ti], Support: t.support, Method: "wy",
				Permutations: l.sc.permutations, Seed: -1 - l.seed, Alpha: 0.99, TopK: k, Async: async})
			if err != nil {
				return []error{err}
			}
			var answer []byte
			if async {
				jr, err := c.runJob(ctx, "/significance", "significance_async", body)
				if err != nil {
					return []error{err}
				}
				answer = jr.result
			} else {
				rp, err := c.ok(ctx, http.MethodPost, "/significance", "significance", body)
				if err != nil {
					return []error{err}
				}
				answer = rp.body
			}
			var out struct {
				Top      []sig `json:"top"`
				CacheHit bool  `json:"cache_hit"`
			}
			if err := json.Unmarshal(answer, &out); err != nil {
				return []error{err}
			}
			if out.CacheHit {
				return []error{errors.New("significance check query hit the cache")}
			}
			tops[i] = out.Top
			if n < 0 || len(out.Top) < n {
				n = len(out.Top)
			}
		}
		for i := 1; i < len(tops); i++ {
			if same, err := sameJSON(tops[0][:n], tops[i][:n]); err != nil || !same {
				return []error{fmt.Errorf("%s: the same WY seed gave different adj_p (%v)", t.name, err)}
			}
		}
		compared += n
	}
	if compared == 0 {
		return []error{errors.New("significance check found no significant patterns to compare")}
	}
	return nil
}

func (l *significanceWY) replayTables() []table { return l.tables }

func (l *significanceWY) primary() string { return "wy" }
