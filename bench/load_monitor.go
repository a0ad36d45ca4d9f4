package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// monitorStream is the write path: two connections stream 100-event
// Drift batches at a steady pace into four monitors (sliding or tumbling
// windows × max_len 1 or 3), honouring Retry-After on a 429, and read
// the monitors' snapshots between batches.
type monitorStream struct {
	seed     int64
	sc       scale
	specs    [][]byte
	lap      table // the first monitor's first lap, for the layer replay
	ids      []string
	feeds    []*driftFeed
	accepted []int64       // events each monitor accepted; written by its owning client only
	turn     [maxConns]int // each client's position in its round of monitors
}

func newMonitorStream(seed int64, sc scale) (*monitorStream, error) {
	specs, err := monitorSpecs()
	if err != nil {
		return nil, err
	}
	lap, err := driftTable(subSeed(seed, 200), sc.driftLap)
	return &monitorStream{seed: seed, sc: sc, specs: specs, lap: lap}, err
}

func (l *monitorStream) budget() int64 { return 0 }

// setup creates the monitors and rewinds every stream.
func (l *monitorStream) setup(ctx context.Context, c *client) error {
	l.ids, l.feeds = nil, nil
	l.accepted = make([]int64, len(l.specs))
	l.turn = [maxConns]int{}
	for i, spec := range l.specs {
		rp, err := c.ok(ctx, http.MethodPost, "/monitors", "monitor_create", spec)
		if err != nil {
			return err
		}
		var m struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(rp.body, &m); err != nil {
			return fmt.Errorf("decoding /monitors reply: %w", err)
		}
		l.ids = append(l.ids, m.ID)
		l.feeds = append(l.feeds, &driftFeed{seed: subSeed(l.seed, 200+i), lap: l.sc.driftLap})
	}
	return nil
}

func (l *monitorStream) prime(context.Context, *client) error { return nil }

// drive runs two connections, each a steady open loop of its own. Each
// owns two of the monitors and alternates between them: it posts the
// next batch of one, then reads the snapshot of the monitor after it,
// which the other connection writes. Every operation is one write and
// one read, so reads follow writes one to one, a read meets a monitor
// being written, and each monitor's batches arrive in order. The second
// connection's schedule is offset by half a period.
func (l *monitorStream) drive(ctx context.Context, c *client, rec *recorder, until time.Time) {
	start := time.Now()
	var wg sync.WaitGroup
	for k := 0; k < maxConns; k++ {
		pair := func(ctx context.Context, due time.Time) {
			owned := len(l.ids) / maxConns
			m := k + maxConns*(l.turn[k]%owned)
			l.turn[k]++
			if l.write(ctx, c, rec, until, m, due) {
				l.read(ctx, c, rec, until, (m+1)%len(l.ids), time.Now())
			}
		}
		phase := time.Duration(float64(k) / float64(maxConns) / l.sc.monitorRate * float64(time.Second))
		sched := evenSchedule(l.sc.monitorRate, phase, until.Sub(start))
		wg.Add(1)
		go func() {
			defer wg.Done()
			openLoop(ctx, start, until, sched, 1, func() op { return pair })
		}()
	}
	wg.Wait()
}

// write posts monitor m's next batch, honouring Retry-After on a 429. It
// reports whether the batch was accepted within the window.
func (l *monitorStream) write(ctx context.Context, c *client, rec *recorder, until time.Time, m int, due time.Time) bool {
	body, err := l.feeds[m].next()
	if err != nil {
		rec.record("ingest", 0, 0, err)
		return false
	}
	for {
		rp, err := c.do(ctx, http.MethodPost, "/monitors/"+l.ids[m]+"/events", "ingest", body)
		if err == nil && rp.status == http.StatusTooManyRequests {
			// Backpressure: wait as told and resend, unless the window
			// closes first; the batch then waits for the next phase.
			rec.refuse()
			secs, perr := strconv.Atoi(rp.retryAfter)
			if perr != nil || secs < 1 {
				secs = 1
			}
			due = rp.done.Add(time.Duration(secs) * time.Second)
			if !due.Before(until) {
				l.feeds[m].unread(body)
				return false
			}
			time.Sleep(time.Until(due))
			continue
		}
		if err == nil && rp.status != http.StatusAccepted {
			err = fmt.Errorf("ingest: HTTP %d: %s", rp.status, rp.body)
		}
		var res struct {
			Accepted int `json:"accepted"`
			Invalid  int `json:"invalid"`
		}
		if err == nil {
			if err = json.Unmarshal(rp.body, &res); err == nil && res.Invalid > 0 {
				err = fmt.Errorf("ingest: %d invalid events", res.Invalid)
			}
			l.accepted[m] += int64(res.Accepted)
		}
		if err == nil && rp.done.After(until) {
			rec.overrun()
			return false
		}
		rec.record("ingest", msBetween(due, rp.done), msBetween(due, rp.sent), err, rp)
		if err != nil {
			return false
		}
		rec.count("events", int64(res.Accepted))
		return true
	}
}

// read fetches monitor m's snapshot.
func (l *monitorStream) read(ctx context.Context, c *client, rec *recorder, until time.Time, m int, due time.Time) {
	rp, err := c.ok(ctx, http.MethodGet, "/monitors/"+l.ids[m], "snapshot", nil)
	if err == nil && rp.done.After(until) {
		rec.overrun()
		return
	}
	rec.record("snapshot", msBetween(due, rp.done), msBetween(due, rp.sent), err, rp)
}

// check requires every monitor to fold exactly the events it accepted,
// with none invalid.
func (l *monitorStream) check(ctx context.Context, c *client) []error {
	var errs []error
	for i, id := range l.ids {
		deadline := time.Now().Add(30 * time.Second)
		for {
			rp, err := c.ok(ctx, http.MethodGet, "/monitors/"+id, "snapshot", nil)
			var snap struct {
				Counters struct {
					Events  int64 `json:"events"`
					Invalid int64 `json:"events_invalid"`
				} `json:"counters"`
			}
			if err == nil {
				err = json.Unmarshal(rp.body, &snap)
			}
			if err != nil {
				errs = append(errs, err)
				break
			}
			got := snap.Counters
			if got.Events == l.accepted[i] && got.Invalid == 0 {
				break
			}
			if got.Events > l.accepted[i] || got.Invalid != 0 || time.Now().After(deadline) {
				errs = append(errs, fmt.Errorf("monitor %s folded %d events (%d invalid), accepted %d",
					id, got.Events, got.Invalid, l.accepted[i]))
				break
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
	return errs
}

// replayTables is the first lap of the first monitor's stream as a
// labelled table.
func (l *monitorStream) replayTables() []table { return []table{l.lap} }

func (l *monitorStream) primary() string { return "ingest" }
