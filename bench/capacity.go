package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"runtime"
	"time"
)

// capacityMain measures the session-warm mix's capacity: the same
// request sequence sent by two closed-loop clients, as fast as the
// server answers. The session-warm open loop runs at about a tenth of it
// (warmArrivalHz); rerun this when the hardware changes.
func capacityMain(args []string) error {
	runtime.GOMAXPROCS(maxConns)
	fs := flag.NewFlagSet("capacity", flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "seed every input is generated from")
	if err := fs.Parse(args); err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), runLimit)
	defer cancel()
	sc := fullScale
	l, err := newSessionWarm(ctx, *seed, sc)
	if err != nil {
		return err
	}
	ch, c, _, _, err := launch(ctx, l)
	if err != nil {
		return err
	}
	defer ch.kill()
	defer c.close()
	if err := l.prime(ctx, c); err != nil {
		return err
	}
	rec := newRecorder()
	client := func(ctx context.Context, due time.Time) {
		p, err := l.next()
		if err == nil {
			_, err = c.ok(ctx, http.MethodPost, p.path, p.class, p.body)
		}
		rec.record(p.class, 0, 0, err)
	}
	closedLoop(ctx, time.Now().Add(sc.warmup), client, client)
	rec = newRecorder()
	closedLoop(ctx, time.Now().Add(sc.measure), client, client)
	fmt.Printf("capacity seed=%d closed-loop clients=%d succeeded=%d failed=%d rate=%.1f req/s (open loop runs at %.0f)\n",
		*seed, maxConns, rec.succeeded, rec.failed, float64(rec.succeeded)/sc.measure.Seconds(), warmArrivalHz)
	return nil
}
