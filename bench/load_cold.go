package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"
)

// auditCold is batch-audit traffic: a steady open loop of uploads,
// alternately synchronous POST /analyze and async POST /jobs, from a
// working set too large for the registry budget and the 128-entry
// result cache. Cycling it in a fixed order makes every request hash,
// decode, mine and rank again.
type auditCold struct {
	sc     scale
	tables []table
	cursor atomic.Int64 // next table, shared so the clients never repeat one
}

func newAuditCold(seed int64, sc scale) (*auditCold, error) {
	tables, err := coldTables(seed, sc)
	return &auditCold{sc: sc, tables: tables}, err
}

// budget is about a quarter of the working set's resident size, as the
// registry estimates it: four bytes per cell.
func (l *auditCold) budget() int64 {
	var n int64
	for _, t := range l.tables {
		n += int64(t.cells) * 4
	}
	return n / 4
}

func (l *auditCold) setup(ctx context.Context, c *client) error {
	_, err := c.ok(ctx, http.MethodGet, "/healthz", "healthz", nil)
	return err
}

func (l *auditCold) prime(context.Context, *client) error { return nil }

func analyzePath(t table) string {
	return "/analyze?support=" + strconv.FormatFloat(t.support, 'g', -1, 64)
}

func jobsPath(t table) string {
	return "/jobs?support=" + strconv.FormatFloat(t.support, 'g', -1, 64)
}

func (l *auditCold) next() table {
	i := l.cursor.Add(1) - 1
	return l.tables[i%int64(len(l.tables))]
}

// drive sends uploads evenly spaced, alternately a synchronous /analyze
// and an asynchronous job. The steady pace puts the same number of
// uploads, and so the same stretch of the dataset cycle, in every
// window.
func (l *auditCold) drive(ctx context.Context, c *client, rec *recorder, until time.Time) {
	analyze := func(ctx context.Context, due time.Time) {
		t := l.next()
		rec.count("uploads", 1)
		rp, err := c.ok(ctx, http.MethodPost, analyzePath(t), "analyze", t.csv)
		if rp.done.After(until) && err == nil {
			rec.overrun()
			return
		}
		rec.record("analyze", msBetween(due, rp.done), msBetween(due, rp.sent), err, rp)
	}
	job := func(ctx context.Context, due time.Time) {
		t := l.next()
		rec.count("uploads", 1)
		jr, err := c.runJob(ctx, jobsPath(t), "jobs", t.csv)
		if err == nil && jr.times.finished.After(until) {
			rec.overrun()
			return
		}
		if err == nil {
			rec.recordJob("job", jr.times)
		}
		rec.record("job", msBetween(due, jr.times.finished), msBetween(due, jr.sent), err, jr.reqs...)
	}
	start := time.Now()
	n := 0
	openLoop(ctx, start, until, evenSchedule(l.sc.coldRate, 0, until.Sub(start)), maxConns, func() op {
		n++
		if n%2 == 1 {
			return analyze
		}
		return job
	})
}

// check requires the async and sync paths to answer byte-identically in
// both orders (job first, then /analyze; /analyze first, then job), and
// the /analyze ranking to equal the in-process one.
func (l *auditCold) check(ctx context.Context, c *client) []error {
	var errs []error
	for i, t := range []table{l.tables[1], l.tables[len(l.tables)-1]} {
		var analyze []byte
		var job jobRun
		var err error
		if i == 0 {
			if job, err = c.runJob(ctx, jobsPath(t), "jobs", t.csv); err == nil {
				analyze, err = l.analyze(ctx, c, t)
			}
		} else {
			if analyze, err = l.analyze(ctx, c, t); err == nil {
				job, err = c.runJob(ctx, jobsPath(t), "jobs", t.csv)
			}
		}
		if err != nil {
			errs = append(errs, err)
			continue
		}
		if !bytes.Equal(job.result, analyze) {
			errs = append(errs, fmt.Errorf("%s: /jobs result differs from the /analyze answer", t.name))
		}
		if err := checkAnalyzeTopK(ctx, t, analyze); err != nil {
			errs = append(errs, err)
		}
	}
	return errs
}

func (l *auditCold) analyze(ctx context.Context, c *client, t table) ([]byte, error) {
	rp, err := c.ok(ctx, http.MethodPost, analyzePath(t), "analyze", t.csv)
	return rp.body, err
}

// replayTables spreads the replay over the cycle, so it meets several
// row counts, attribute counts and cardinalities.
func (l *auditCold) replayTables() []table {
	var out []table
	for k := 0; k < l.sc.replayTables; k++ {
		out = append(out, l.tables[(k*len(l.tables))/l.sc.replayTables+k])
	}
	return out
}

func (l *auditCold) primary() string { return "analyze" }
