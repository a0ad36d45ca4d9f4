package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/jobs"
	"repro/internal/monitor"
	"repro/internal/registry"
)

// maxConns bounds the load generator's connections to the server: the
// machine the benchmark was sized on has two cores.
const maxConns = 2

// client issues requests to the child server over at most maxConns
// keep-alive connections, stamping each with a request ID and class.
type client struct {
	base string
	hc   *http.Client
	seq  atomic.Int64
}

func newClient(addr string) *client {
	tr := &http.Transport{
		MaxConnsPerHost:     maxConns,
		MaxIdleConnsPerHost: maxConns,
		DisableCompression:  true,
	}
	return &client{base: "http://" + addr, hc: &http.Client{Transport: tr, Timeout: time.Minute}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// reply is one completed request: status, body and the client-side
// timing, from the first byte sent to the last byte received.
type reply struct {
	req        string
	status     int
	body       []byte
	retryAfter string
	sent, done time.Time
}

func (r reply) ms() float64 { return float64(r.done.Sub(r.sent)) / 1e6 }

// do sends one request and reads the whole response.
func (c *client) do(ctx context.Context, method, path, class string, body []byte) (reply, error) {
	rp := reply{req: strconv.FormatInt(c.seq.Add(1), 10)}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return rp, err
	}
	req.Header.Set(reqHeader, rp.req)
	req.Header.Set(classHeader, class)
	rp.sent = time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return rp, err
	}
	defer resp.Body.Close()
	rp.body, err = io.ReadAll(resp.Body)
	rp.done = time.Now()
	rp.status = resp.StatusCode
	rp.retryAfter = resp.Header.Get("Retry-After")
	return rp, err
}

// ok sends a request and requires a 2xx status.
func (c *client) ok(ctx context.Context, method, path, class string, body []byte) (reply, error) {
	rp, err := c.do(ctx, method, path, class, body)
	if err == nil && (rp.status < 200 || rp.status > 299) {
		err = fmt.Errorf("%s %s: HTTP %d: %s", method, path, rp.status, bytes.TrimSpace(rp.body))
	}
	return rp, err
}

// jobStatus is the part of the job wire format the benchmark reads.
type jobStatus struct {
	ID         string `json:"id"`
	State      string `json:"state"`
	Error      string `json:"error"`
	CreatedAt  string `json:"created_at"`
	StartedAt  string `json:"started_at"`
	FinishedAt string `json:"finished_at"`
}

// jobTimes are a job's server-stamped lifecycle times.
type jobTimes struct {
	created, started, finished time.Time
}

// parseJobTimes reads the RFC 3339 stamps of a terminal job status. The
// server and the load generator share the host clock, so the stamps
// compare directly with client-side times.
func parseJobTimes(st jobStatus) (jobTimes, error) {
	var t jobTimes
	for _, f := range []struct {
		name, v string
		dst     *time.Time
	}{
		{"created_at", st.CreatedAt, &t.created},
		{"started_at", st.StartedAt, &t.started},
		{"finished_at", st.FinishedAt, &t.finished},
	} {
		v, err := time.Parse(time.RFC3339Nano, f.v)
		if err != nil {
			return t, fmt.Errorf("job %s: bad %s %q: %w", st.ID, f.name, f.v, err)
		}
		*f.dst = v
	}
	return t, nil
}

// jobRun is one asynchronous job followed to its end: submitted, waited
// for on its event stream, and its result fetched.
type jobRun struct {
	status jobStatus
	times  jobTimes
	result []byte
	sent   time.Time
	reqs   []reply
}

// runJob submits a job (POST path with body), follows GET
// /jobs/{id}/events until the terminal state event, then fetches the
// result. A job that does not finish done is an error.
func (c *client) runJob(ctx context.Context, path, class string, body []byte) (jobRun, error) {
	var jr jobRun
	sub, err := c.ok(ctx, http.MethodPost, path, class, body)
	jr.sent = sub.sent
	jr.reqs = append(jr.reqs, sub)
	if err != nil {
		return jr, err
	}
	if err := json.Unmarshal(sub.body, &jr.status); err != nil {
		return jr, fmt.Errorf("decoding submit reply: %w", err)
	}
	if err := c.awaitJob(ctx, &jr); err != nil {
		return jr, err
	}
	res, err := c.ok(ctx, http.MethodGet, "/jobs/"+jr.status.ID+"/result", class+"_result", nil)
	jr.reqs = append(jr.reqs, res)
	jr.result = res.body
	return jr, err
}

// awaitJob reads the job's Server-Sent Events until a terminal state.
func (c *client) awaitJob(ctx context.Context, jr *jobRun) error {
	id := jr.status.ID
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/jobs/"+id+"/events", nil)
	if err != nil {
		return err
	}
	req.Header.Set(reqHeader, strconv.FormatInt(c.seq.Add(1), 10))
	req.Header.Set(classHeader, "job_events")
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("job %s events: HTTP %d", id, resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		if v, ok := strings.CutPrefix(line, "event: "); ok {
			event = v
			continue
		}
		data, ok := strings.CutPrefix(line, "data: ")
		if !ok || event != "state" {
			continue
		}
		var st jobStatus
		if err := json.Unmarshal([]byte(data), &st); err != nil {
			return fmt.Errorf("job %s: decoding state event: %w", id, err)
		}
		switch st.State {
		case "done":
			jr.status = st
			jr.times, err = parseJobTimes(st)
			// Drain the stream so the connection is reused.
			_, _ = io.Copy(io.Discard, resp.Body) // a failed drain only costs a reconnect
			return err
		case "failed", "canceled":
			return fmt.Errorf("job %s %s: %s", id, st.State, st.Error)
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("job %s events: %w", id, err)
	}
	return fmt.Errorf("job %s: event stream ended before a terminal state", id)
}

// statsz is the part of GET /statsz the benchmark reads.
type statsz struct {
	Jobs     jobs.Stats     `json:"jobs"`
	Datasets registry.Stats `json:"datasets"`
	Monitors monitor.Stats  `json:"monitors"`
}

func (c *client) statsz(ctx context.Context) (statsz, error) {
	var s statsz
	rp, err := c.ok(ctx, http.MethodGet, "/statsz", "statsz", nil)
	if err != nil {
		return s, err
	}
	return s, json.Unmarshal(rp.body, &s)
}

// usage reads the child's resource use so far.
func (c *client) usage(ctx context.Context) (usage, error) {
	var u usage
	rp, err := c.ok(ctx, http.MethodGet, usagePath, "usage", nil)
	if err != nil {
		return u, err
	}
	return u, json.Unmarshal(rp.body, &u)
}

// setTrace switches span recording in the child on or off.
func (c *client) setTrace(ctx context.Context, on bool) error {
	v := "0"
	if on {
		v = "1"
	}
	_, err := c.ok(ctx, http.MethodPost, tracePath+"?on="+v, "trace", nil)
	return err
}

// recorder collects one measured window's samples. Latencies are kept
// per request class, in milliseconds.
type recorder struct {
	mu        sync.Mutex
	lat       map[string][]float64
	late      []float64 // send time minus due time, ms
	clientMs  map[string]float64
	attempted int64
	succeeded int64
	overran   int64 // succeeded, but completed after the window closed
	failed    int64
	refused   int64
	errs      []string
	jobTimes  map[string][]jobTimes // per job class
	counts    map[string]int64      // work units, such as events ingested
}

func newRecorder() *recorder {
	return &recorder{
		lat:      make(map[string][]float64),
		clientMs: make(map[string]float64),
		jobTimes: make(map[string][]jobTimes),
		counts:   make(map[string]int64),
	}
}

func (r *recorder) count(name string, n int64) {
	r.mu.Lock()
	r.counts[name] += n
	r.mu.Unlock()
}

// record counts one operation: its class, latency, and lateness against
// the time it was due. A non-nil err counts it as failed.
func (r *recorder) record(class string, latMs, lateMs float64, err error, reqs ...reply) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err != nil {
		r.failed++
		if len(r.errs) < 5 {
			r.errs = append(r.errs, class+": "+err.Error())
		}
		return
	}
	r.succeeded++
	r.lat[class] = append(r.lat[class], latMs)
	r.late = append(r.late, lateMs)
	for _, rp := range reqs {
		r.clientMs[rp.req] = rp.ms()
	}
}

// overrun counts an operation that was sent within the window but
// completed after it: its latency is not recorded, but the server did
// its work inside the window's CPU time.
func (r *recorder) overrun() {
	r.mu.Lock()
	r.overran++
	r.mu.Unlock()
}

// ran is the number of operations the server completed for the window,
// in time or not: the operations whose work its CPU time covers.
func (r *recorder) ran() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.succeeded + r.overran
}

func (r *recorder) recordJob(class string, t jobTimes) {
	r.mu.Lock()
	r.jobTimes[class] = append(r.jobTimes[class], t)
	r.mu.Unlock()
}

func (r *recorder) refuse() {
	r.mu.Lock()
	r.refused++
	r.mu.Unlock()
}
