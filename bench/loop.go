package main

import (
	"context"
	"sync"
	"time"
)

// load is one workload: its inputs, how the server is set up for it, the
// traffic it sends, and the correctness checks run after the measured
// window.
type load interface {
	// budget is the child's registry budget in bytes; 0 keeps the default.
	budget() int64
	// setup prepares a freshly started child; it is timed as set-up.
	setup(ctx context.Context, c *client) error
	// prime fills the serving child's caches before the warm-up, once;
	// it is timed apart from set-up.
	prime(ctx context.Context, c *client) error
	// drive sends traffic, starting no operation at or after until, and
	// returns once every operation it started has finished.
	drive(ctx context.Context, c *client, rec *recorder, until time.Time)
	// check verifies the server's answers; each error is one mismatch.
	check(ctx context.Context, c *client) []error
	// replayTables are the datasets the layer replay walks.
	replayTables() []table
	// primary names the request class whose median latency is the
	// workload's latency_p50_ms and, traced against untraced, gives the
	// tracing overhead.
	primary() string
}

// op is one operation of a loop; due is when it should have started, so
// the operation can report how late it actually sent.
type op func(ctx context.Context, due time.Time)

// closedLoop runs each client as a closed loop: a client's next
// operation is due the moment its previous one completes. The workloads
// are open loops; capacity measures with this one.
func closedLoop(ctx context.Context, until time.Time, clients ...op) {
	var wg sync.WaitGroup
	for _, f := range clients {
		wg.Add(1)
		go func(f op) {
			defer wg.Done()
			for due := time.Now(); due.Before(until) && ctx.Err() == nil; due = time.Now() {
				f(ctx, due)
			}
		}(f)
	}
	wg.Wait()
}

// openLoop sends operations at the scheduled offsets from start over at
// most workers connections. An operation waits in the generator while
// every worker is busy, and that wait counts in its latency. next is
// called in schedule order and returns the operation to send.
func openLoop(ctx context.Context, start, until time.Time, schedule []time.Duration, workers int, next func() op) {
	type item struct {
		due time.Time
		f   op
	}
	// Sized to the schedule so the dispatcher never blocks: a backlog
	// must show up as lateness, not as a stalled schedule.
	queue := make(chan item, len(schedule))
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := range queue {
				it.f(ctx, it.due)
			}
		}()
	}
	timer := time.NewTimer(0)
	<-timer.C
dispatch:
	for _, off := range schedule {
		due := start.Add(off)
		if !due.Before(until) {
			break
		}
		if d := time.Until(due); d > 0 {
			timer.Reset(d)
			select {
			case <-ctx.Done():
				break dispatch
			case <-timer.C:
			}
		}
		queue <- item{due, next()}
	}
	close(queue)
	wg.Wait()
}

// msBetween is the time from one instant to another in milliseconds.
func msBetween(from, to time.Time) float64 { return float64(to.Sub(from)) / 1e6 }
