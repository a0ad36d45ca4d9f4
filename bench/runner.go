package main

import (
	"context"
	"fmt"
	"strings"
	"time"
)

// launch starts a child server and runs the workload's set-up on it. It
// returns the set-up's cost twice: the CPU seconds the child spent from
// its start until it was ready, and the wall-clock seconds from child
// launch to the moment the first request could be scheduled.
func launch(ctx context.Context, l load) (ch *child, c *client, cpu, wall float64, err error) {
	t0 := time.Now()
	if ch, err = startChild(l.budget()); err != nil {
		return nil, nil, 0, 0, err
	}
	c = newClient(ch.addr)
	err = l.setup(ctx, c)
	wall = time.Since(t0).Seconds()
	var u usage
	if err == nil {
		u, err = c.usage(ctx)
	}
	if err != nil {
		c.close()
		ch.kill()
		return nil, nil, 0, 0, fmt.Errorf("set-up: %w", err)
	}
	return ch, c, float64(u.CPUNs) / 1e9, wall, nil
}

// run holds what one workload run measured.
type run struct {
	sc            scale
	setups        []float64  // set-up CPU seconds per launch
	setupWalls    []float64  // set-up wall-clock seconds per launch
	setupProbe    *hostProbe // passes made after each set-up
	windowProbe   *hostProbe // passes made during rec's window
	primeSeconds  float64    // wall-clock seconds the serving child's prime took
	rec           *recorder  // the untraced measured window
	traced        *recorder  // the traced window, in a traced run
	seconds       float64    // length of rec's window
	tracedSeconds float64
	use0, use1    usage // the child's resource use at the edges of rec's window
	before, after statsz
	checkErrs     []error
	report        serveReport
	replay        map[string]replayed
}

// runWorkload generates the inputs, times sc.setupReps set-ups (each on
// a fresh child; the last child serves the run), primes, warms up, measures,
// checks the answers, stops the child and — in a traced run — replays
// the layers. A traced run measures half its window untraced and half
// traced, so the two give the tracing overhead.
func runWorkload(ctx context.Context, name string, seed int64, sc scale, trace bool) (result, error) {
	var res result
	l, err := newLoad(ctx, name, seed, sc)
	if err != nil {
		return res, fmt.Errorf("generating inputs: %w", err)
	}
	r := &run{sc: sc, setupProbe: newHostProbe(), windowProbe: newHostProbe()}
	var ch *child
	var c *client
	for rep := 0; rep < sc.setupReps; rep++ {
		var cpu, wall float64
		if ch, c, cpu, wall, err = launch(ctx, l); err != nil {
			return res, err
		}
		r.setups = append(r.setups, cpu)
		r.setupWalls = append(r.setupWalls, wall)
		if err := r.setupProbe.run(setupProbePasses); err != nil {
			c.close()
			ch.kill()
			return res, err
		}
		if rep < sc.setupReps-1 {
			c.close()
			if _, err := ch.stop(); err != nil {
				return res, err
			}
		}
	}
	defer func() {
		if ch != nil {
			ch.kill()
		}
	}()

	primed := time.Now()
	if err := l.prime(ctx, c); err != nil {
		return res, fmt.Errorf("priming: %w", err)
	}
	r.primeSeconds = time.Since(primed).Seconds()
	l.drive(ctx, c, newRecorder(), time.Now().Add(sc.warmup))
	if r.before, err = c.statsz(ctx); err != nil {
		return res, err
	}
	r.rec = newRecorder()
	window := sc.measure
	if trace {
		window /= 2
	}
	if r.use0, err = c.usage(ctx); err != nil {
		return res, err
	}
	stopProbe := r.windowProbe.start()
	start := time.Now()
	l.drive(ctx, c, r.rec, start.Add(window))
	r.seconds = window.Seconds()
	if err := stopProbe(); err != nil {
		return res, err
	}
	if r.use1, err = c.usage(ctx); err != nil {
		return res, err
	}
	if trace {
		if err := c.setTrace(ctx, true); err != nil {
			return res, err
		}
		r.traced = newRecorder()
		l.drive(ctx, c, r.traced, time.Now().Add(window))
		r.tracedSeconds = window.Seconds()
		if err := c.setTrace(ctx, false); err != nil {
			return res, err
		}
	}
	if r.after, err = c.statsz(ctx); err != nil {
		return res, err
	}
	r.checkErrs = l.check(ctx, c)
	c.close()
	r.report, err = ch.stop()
	ch = nil
	if err != nil {
		return res, err
	}
	if ctx.Err() != nil {
		return res, fmt.Errorf("run exceeded %s", runLimit)
	}
	if trace {
		if r.replay, err = replayLayers(ctx, l.replayTables(), seed, sc); err != nil {
			return res, err
		}
	}
	return r.result(l, printer{name}, trace)
}

// result turns what a run measured into its printed lines and its JSON
// result: the end-to-end metrics for an untraced run, the per-layer
// metrics for a traced one.
func (r *run) result(l load, p printer, trace bool) (result, error) {
	res := result{Metrics: map[string]metric{}}
	recs := []*recorder{r.rec}
	if trace {
		recs = append(recs, r.traced)
	}
	for _, rec := range recs {
		res.Attempted += rec.attempted
		res.Failed += rec.failed
		p.note("attempted=%d succeeded=%d failed=%d refused=%d", rec.attempted, rec.succeeded, rec.failed, rec.refused)
		for _, e := range rec.errs {
			p.note("error %q", e)
		}
	}
	res.Attempted += int64(len(r.checkErrs))
	res.Failed += int64(len(r.checkErrs))
	res.Correct = len(r.checkErrs) == 0
	for _, e := range r.checkErrs {
		p.note("check failed: %v", e)
	}

	put := func(name string, v float64, unit string, n int) {
		res.Metrics[name] = metric{v, unit}
		p.metric(name, v, unit, n)
	}
	classLines(p, r.rec, r.sc.beyond)
	for _, name := range sortedKeys(r.rec.counts) {
		n := r.rec.counts[name]
		p.metric(name+"_per_s", float64(n)/r.seconds, "1/s", int(n))
	}
	p.metric("ops_per_s", float64(r.rec.succeeded)/r.seconds, "1/s", int(r.rec.succeeded))
	p.metric("setup_wall_s", median(r.setupWalls), "s", len(r.setupWalls))
	p.metric("prime_s", r.primeSeconds, "s", 1)
	// The window's server work covers every operation it sent, including
	// those that completed after it closed.
	ran := r.rec.ran()
	if ran < 1 {
		return res, fmt.Errorf("no operation completed in the measured window")
	}
	cpuMs := float64(r.use1.CPUNs-r.use0.CPUNs) / 1e6 / float64(ran)
	allocKB := float64(r.use1.AllocBytes-r.use0.AllocBytes) / 1024 / float64(ran)
	if !trace {
		// Times are reported at the reference host's speed (probe.go);
		// the measured values are printed as *_measured.
		setupProbeMs, err := r.setupProbe.median()
		if err != nil {
			return res, err
		}
		windowProbeMs, err := r.windowProbe.median()
		if err != nil {
			return res, err
		}
		p.metric("host_probe_setup_ms", setupProbeMs, "ms", len(r.setupProbe.samples))
		p.metric("host_probe_ms", windowProbeMs, "ms", len(r.windowProbe.samples))
		xs := r.rec.lat[l.primary()]
		lat, err := percentileBeyond(xs, 0.5, r.sc.beyond)
		if err != nil {
			return res, fmt.Errorf("latency_p50_ms (%s): %w", l.primary(), err)
		}
		setup := median(r.setups)
		p.metric("setup_s_measured", setup, "s", len(r.setups))
		p.metric("server_cpu_ms_per_op_measured", cpuMs, "ms", int(ran))
		p.metric("latency_p50_ms_measured", lat, "ms", len(xs))
		put("setup_s", setup*probeRefMs/setupProbeMs, "s", len(r.setups))
		put("retained_heap_mb", float64(r.report.HeapBytes)/(1<<20), "MB", 1)
		put("server_cpu_ms_per_op", cpuMs*probeRefMs/windowProbeMs, "ms", int(ran))
		put("latency_p50_ms", lat*probeRefMs/windowProbeMs, "ms", len(xs))
		p.metric("server.alloc_kb_per_op", allocKB, "KB", int(ran))
		return res, nil
	}
	p.metric("server_cpu_ms_per_op", cpuMs, "ms", int(ran))
	put("server.alloc_kb_per_op", allocKB, "KB", int(ran))
	if err := r.layerMetrics(l, put); err != nil {
		return res, err
	}
	spanLines(p, r.report.Spans)
	return res, nil
}

// classLines prints every request class's latency percentiles, and the
// job lifecycle stamps, as far as the sample counts allow: a percentile
// with fewer than beyond samples beyond it is left out.
func classLines(p printer, rec *recorder, beyond int) {
	for _, class := range sortedKeys(rec.lat) {
		xs := rec.lat[class]
		for _, q := range []float64{0.5, 0.9} {
			if v, err := percentileBeyond(xs, q, beyond); err == nil {
				p.metric(fmt.Sprintf("%s_p%g_ms", class, q*100), v, "ms", len(xs))
			}
		}
	}
	for _, class := range sortedKeys(rec.jobTimes) {
		var wait, runMs []float64
		for _, t := range rec.jobTimes[class] {
			wait = append(wait, msBetween(t.created, t.started))
			runMs = append(runMs, msBetween(t.started, t.finished))
		}
		for _, s := range []struct {
			name string
			xs   []float64
			q    float64
		}{{"queue_wait_p50_ms", wait, 0.5}, {"queue_wait_p90_ms", wait, 0.9}, {"run_p50_ms", runMs, 0.5}} {
			if v, err := percentile(s.xs, s.q); err == nil {
				p.metric("jobs."+class+"."+s.name, v, "ms", len(s.xs))
			}
		}
	}
}

// layerMetrics computes the per-layer metrics of a traced run: span
// statistics, /statsz counter deltas, load-generator health and the
// layer replay.
func (r *run) layerMetrics(l load, put func(string, float64, string, int)) error {
	sp := analyzeSpans(r.report.Spans, r.traced.clientMs)
	for _, s := range []struct {
		name string
		xs   []float64
	}{{"server.handler_p50_ms", sp.handler}, {"server.self_p50_ms", sp.self}, {"server.transport_p50_ms", sp.transport}} {
		v, err := percentileBeyond(s.xs, 0.5, r.sc.beyond)
		if err != nil {
			return fmt.Errorf("%s: %w", s.name, err)
		}
		put(s.name, v, "ms", len(s.xs))
	}
	put("jobs.analyze_share_pct", 100*ratio(sp.analyzeChildMs, sp.analyzeHandlerMs), "%", sp.analyzeHandlers)

	b, a := r.before, r.after
	// Every upload registers its CSV: a registry miss parses it, a hit is
	// deduplication. (The /statsz hit counter also moves on every lookup
	// by hash, so it is not the upload hit ratio itself.)
	uploads := r.rec.counts["uploads"] + r.traced.counts["uploads"]
	misses := float64(a.Datasets.Misses - b.Datasets.Misses)
	put("registry.upload_hit_ratio", ratio(float64(uploads)-misses, float64(uploads)), "ratio", int(uploads))
	put("registry.evictions", float64(a.Datasets.Evictions-b.Datasets.Evictions), "count", 1)
	rc, brc := a.Jobs.ResultCache, b.Jobs.ResultCache
	put("jobs.result_cache.hit_ratio", ratio(float64(rc.Hits-brc.Hits), float64(rc.Hits-brc.Hits+rc.Misses-brc.Misses)), "ratio", 1)
	xc, bxc := a.Jobs.Explore.Cache, b.Jobs.Explore.Cache
	put("jobs.explore_cache.hit_ratio", ratio(float64(xc.Hits-bxc.Hits), float64(xc.Hits-bxc.Hits+xc.Misses-bxc.Misses)), "ratio", 1)
	put("jobs.significance.runs", float64(a.Jobs.Significance.Runs-b.Jobs.Significance.Runs), "count", 1)
	nv, bnv := a.Jobs.Explore.Navigation, b.Jobs.Explore.Navigation
	put("lattice.nav_cache.hit_ratio", ratio(float64(nv.Hits-bnv.Hits), float64(nv.Hits-bnv.Hits+nv.Misses-bnv.Misses)), "ratio", 1)
	put("lattice.rows_scanned", float64(nv.RowsScanned-bnv.RowsScanned), "count", 1)
	put("permtest.permutations", float64(a.Jobs.Significance.Permutations-b.Jobs.Significance.Permutations), "count", 1)
	put("monitor.remines", float64(a.Monitors.Remines-b.Monitors.Remines), "count", 1)
	put("monitor.windows_advanced", float64(a.Monitors.Advances-b.Monitors.Advances), "count", 1)
	window := r.seconds + r.tracedSeconds
	put("monitor.refused", float64(r.rec.refused+r.traced.refused), "count", 1)
	events := r.rec.counts["events"] + r.traced.counts["events"]
	put("monitor.events_per_s", float64(events)/window, "1/s", int(events))

	late := append(append([]float64(nil), r.rec.late...), r.traced.late...)
	v, err := percentileBeyond(late, 0.9, r.sc.beyond)
	if err != nil {
		return fmt.Errorf("loadgen.late_p90_ms: %w", err)
	}
	put("loadgen.late_p90_ms", v, "ms", len(late))
	primary := l.primary()
	untraced, err := percentileBeyond(r.rec.lat[primary], 0.5, r.sc.beyond)
	if err != nil {
		return fmt.Errorf("trace.overhead_pct: %w", err)
	}
	traced, err := percentileBeyond(r.traced.lat[primary], 0.5, r.sc.beyond)
	if err != nil {
		return fmt.Errorf("trace.overhead_pct: %w", err)
	}
	put("trace.overhead_pct", 100*(traced/untraced-1), "%", len(r.traced.lat[primary]))

	for _, name := range sortedKeys(r.replay) {
		unit := "count"
		switch {
		case strings.HasSuffix(name, "_ms"):
			unit = "ms"
		case strings.HasSuffix(name, "_allocs"):
			unit = "allocs"
		}
		put(name, r.replay[name].v, unit, r.replay[name].n)
	}
	return nil
}

// ratio is num/den, 0 when nothing was counted.
func ratio(num, den float64) float64 {
	if den <= 0 {
		return 0
	}
	return num / den
}

// spanStats are the span-derived samples of a traced window.
type spanStats struct {
	handler, self, transport []float64
	byName                   map[string][]float64
	analyzeHandlerMs         float64 // total time in /analyze handlers
	analyzeChildMs           float64 // of which inside jobs.analyze spans
	analyzeHandlers          int
}

// analyzeSpans derives handler, self and transport times from the
// child's spans. Event-stream handlers are left out: they wait on a
// poll ticker rather than work. A handler's self time is its duration
// minus its child spans; transport time is the client's time for the
// request minus the handler's.
func analyzeSpans(spans []span, clientMs map[string]float64) spanStats {
	st := spanStats{byName: map[string][]float64{}}
	childMs := map[int64]float64{}
	for _, s := range spans {
		if s.Parent != 0 {
			childMs[s.Parent] += s.ms()
		}
		st.byName[s.Name] = append(st.byName[s.Name], s.ms())
	}
	for _, s := range spans {
		if s.Parent != 0 || !strings.HasPrefix(s.Name, "server.") || s.Name == "server.job_events" {
			continue
		}
		d := s.ms()
		st.handler = append(st.handler, d)
		st.self = append(st.self, d-childMs[s.ID])
		if c, ok := clientMs[s.Req]; ok {
			st.transport = append(st.transport, c-d)
		}
		if s.Name == "server.analyze" {
			st.analyzeHandlers++
			st.analyzeHandlerMs += d
			st.analyzeChildMs += childMs[s.ID]
		}
	}
	return st
}

// spanLines prints each span name's p50 and its share of handler time.
func spanLines(p printer, spans []span) {
	st := analyzeSpans(spans, nil)
	total := 0.0
	for _, name := range sortedKeys(st.byName) {
		if strings.HasPrefix(name, "server.") && name != "server.job_events" {
			total += sum(st.byName[name])
		}
	}
	for _, name := range sortedKeys(st.byName) {
		xs := st.byName[name]
		if v, err := percentile(xs, 0.5); err == nil {
			p.metric(name+".p50_ms", v, "ms", len(xs))
		}
		p.note("span %s count=%d total_ms=%.1f share_of_handler_time=%.1f%%", name, len(xs), sum(xs), 100*ratio(sum(xs), total))
	}
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}
