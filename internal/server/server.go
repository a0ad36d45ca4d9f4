// Package server exposes DivExplorer over HTTP. The synchronous path —
// POST a CSV to /analyze — still works exactly as before, but analysis
// now runs through a content-addressed dataset registry and a shared
// result cache, so repeated uploads of the same data are near-free. For
// long-running explorations an asynchronous job API mines off the
// request goroutine on a bounded worker pool (internal/jobs).
//
// Endpoints:
//
//	GET    /               an HTML form for interactive use
//	GET    /healthz        liveness probe
//	GET    /statsz         queue, worker and cache statistics (JSON)
//	POST   /analyze        synchronous analysis; body: the CSV
//	POST   /datasets       register a dataset, returns its content hash
//	GET    /datasets/{hash} dataset metadata
//	DELETE /datasets/{hash} drop a dataset from the registry
//	POST   /jobs           submit an analysis job (inline CSV body, or
//	                       ?dataset=<hash> for a registered dataset)
//	GET    /jobs/{id}        job status and progress
//	GET    /jobs/{id}/result completed job result (json, csv or html)
//	GET    /jobs/{id}/partial latest partial-result snapshot (top-K by
//	                       |divergence| mined so far); 204 before the first
//	GET    /jobs/{id}/events Server-Sent Events stream of partial
//	                       snapshots and state transitions
//	DELETE /jobs/{id}        cancel a queued or running job
//	POST   /explore        anytime exploration of a registered dataset
//	                       (JSON body): budgeted top-K by |divergence|,
//	                       sampled mining with confidence intervals, and
//	                       lattice navigation ("expand") from a named
//	                       pattern; "async": true submits it as a job
//	POST   /significance   permutation-grounded significance over every
//	                       mined pattern of a registered dataset (JSON
//	                       body): Westfall–Young FWER control ("wy"),
//	                       permutation FDR ("perm-fdr") or analytic BH
//	                       ("bh"), optional max-entropy support baseline;
//	                       "async": true submits it as a job
//	POST   /monitors         create a streaming divergence monitor (JSON spec)
//	GET    /monitors         list live monitors
//	GET    /monitors/{id}    monitor snapshot: top-K divergent subgroups,
//	                       alert states, window position, counters
//	POST   /monitors/{id}/events ingest a JSON-lines batch of decision
//	                       events (429 on a full ingest buffer)
//	GET    /monitors/{id}/events Server-Sent Events stream of alert
//	                       state transitions
//	DELETE /monitors/{id}    delete a monitor
//	POST   /internal/gossip     (clustered) peer heartbeat + liveness view
//	POST   /internal/jobs       (clustered) forwarded job submission
//	POST   /internal/replicate  (clustered) one replica payload chunk
//
// With a cluster node attached (AttachCluster; divexplorer-server
// -peers) every async submit — POST /jobs, and /explore and
// /significance with "async": true — routes by dataset ownership on a
// consistent-hash ring: an owner runs the job locally, any other node
// forwards it, under its own kind, to the highest-priority live owner
// with hedged retries. Accepted and completed job records replicate to
// the dataset's other owners, which adopt them as their own kind if the
// owner dies. Sync requests run where they arrive. With an admission
// controller on the engine (jobs.Config.Admission; -tenant-quotas)
// every async job is gated per tenant (X-Tenant header) inside the
// engine's submit: quota or rate denials answer 429 with Retry-After,
// and queued jobs drain by weighted fair queueing instead of FIFO.
//
// With a job store attached (divexplorer-server -store-dir) every job
// lifecycle transition is written through to disk and replayed on boot,
// so completed results outlive a restart: an explore or significance
// job's logged outcome serves as it was first served. With a spill tier
// attached too (-spill-dir), datasets evicted from the in-memory
// registry are written to checksummed disk files instead of being lost,
// so a recovered analysis can usually re-mine its full result without
// anyone re-uploading anything. GET /jobs/{id}/result of an analysis
// walks an explicit graceful-degradation ladder, best rung first:
//
//  1. memory — the full result (or its dataset) is resident: full payload;
//  2. disk spill — the dataset is reloaded from its verified spill file
//     and the result re-mined, byte-identical to the pre-restart response;
//  3. durable summary — served with "degraded": true when the dataset is
//     gone from both tiers (or its spill file failed verification);
//  4. 410 Gone — not even the summary survived.
//
// Each rung's serve count is exposed under result_ladder in /statsz.
//
// Query parameters shared by /analyze and /jobs:
//
//	truth    ground-truth column name (default "truth")
//	pred     prediction column name (default "pred")
//	support  minimum support threshold (default 0.05)
//	metric   comma-separated metric names (default "FPR,FNR")
//	topk     patterns per metric (default 10)
//	eps      redundancy-pruning threshold (optional)
//	alpha    FDR level for the significance section (optional)
//	format   "json" (default), "html" or "csv"
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/htmlreport"
	"repro/internal/jobs"
	"repro/internal/monitor"
	"repro/internal/registry"
)

// DefaultMaxBodyBytes bounds uploaded CSV size unless overridden via
// Options.MaxBodyBytes (32 MiB).
const DefaultMaxBodyBytes = 32 << 20

// DefaultDatasetCacheBytes is the registry budget when Options supplies
// no registry (256 MiB).
const DefaultDatasetCacheBytes = 256 << 20

// Options configures a Server. Zero values select defaults.
type Options struct {
	// MaxBodyBytes bounds uploaded request bodies; DefaultMaxBodyBytes
	// when <= 0. Oversized uploads get HTTP 413 with a JSON error body.
	MaxBodyBytes int64
	// Registry stores parsed datasets by content hash; a fresh registry
	// with DefaultDatasetCacheBytes is created when nil.
	Registry *registry.Registry
	// Engine runs analysis jobs; a default engine over Registry is
	// created when nil.
	Engine *jobs.Engine
	// Monitors manages streaming divergence monitors; a default manager
	// (sharing the engine's WAL store when one is attached) is created
	// when nil.
	Monitors *monitor.Manager
}

// Server ties the dataset registry and the job engine to HTTP handlers.
type Server struct {
	maxBody  int64
	reg      *registry.Registry
	engine   *jobs.Engine
	monitors *monitor.Manager

	// cluster, when non-nil (AttachCluster), routes job submissions by
	// dataset ownership and mounts the /internal/* peer endpoints.
	cluster *cluster.Node

	// Degradation-ladder counters for /statsz: results served straight
	// from the in-memory job result (the top rung), results served as a
	// durable summary only, and results answered 410 Gone. All three
	// count /jobs/{id}/result serves specifically — the registry's own
	// hit counter moves on every dataset lookup (uploads, GET /datasets,
	// submissions) and would not be comparable to the other rungs.
	memoryHits atomic.Int64
	degraded   atomic.Int64
	gone       atomic.Int64
}

// New builds a server, creating a default registry and engine for any
// not supplied in opts.
func New(opts Options) (*Server, error) {
	maxBody := opts.MaxBodyBytes
	if maxBody <= 0 {
		maxBody = DefaultMaxBodyBytes
	}
	reg := opts.Registry
	if reg == nil {
		reg = registry.New(DefaultDatasetCacheBytes)
	}
	engine := opts.Engine
	if engine == nil {
		var err error
		engine, err = jobs.New(jobs.Config{Registry: reg})
		if err != nil {
			return nil, err
		}
	}
	monitors := opts.Monitors
	if monitors == nil {
		monitors = monitor.NewManager(monitor.Config{Store: engine.Store()})
	}
	return &Server{maxBody: maxBody, reg: reg, engine: engine, monitors: monitors}, nil
}

// Engine returns the server's job engine (for shutdown wiring).
func (s *Server) Engine() *jobs.Engine { return s.engine }

// Monitors returns the server's monitor manager (for recovery wiring).
func (s *Server) Monitors() *monitor.Manager { return s.monitors }

// Close stops the monitor workers and drains the job engine.
func (s *Server) Close(ctx context.Context) error {
	s.monitors.Close()
	return s.engine.Shutdown(ctx)
}

// Handler returns the http.Handler serving the API.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		_, _ = fmt.Fprintln(w, "ok") // nothing to do if the client went away
	})
	mux.HandleFunc("GET /", handleIndex)
	mux.HandleFunc("POST /analyze", s.handleAnalyze)
	mux.HandleFunc("POST /datasets", s.handleDatasetRegister)
	mux.HandleFunc("GET /datasets/{hash}", s.handleDatasetGet)
	mux.HandleFunc("DELETE /datasets/{hash}", s.handleDatasetDelete)
	mux.HandleFunc("POST /jobs", s.handleJobSubmit)
	mux.HandleFunc("GET /jobs/{id}", s.handleJobStatus)
	mux.HandleFunc("GET /jobs/{id}/result", s.handleJobResult)
	mux.HandleFunc("GET /jobs/{id}/partial", s.handleJobPartial)
	mux.HandleFunc("GET /jobs/{id}/events", s.handleJobEvents)
	mux.HandleFunc("DELETE /jobs/{id}", s.handleJobCancel)
	mux.HandleFunc("POST /explore", s.handleExplore)
	mux.HandleFunc("POST /significance", s.handleSignificance)
	mux.HandleFunc("POST /monitors", s.handleMonitorCreate)
	mux.HandleFunc("GET /monitors", s.handleMonitorList)
	mux.HandleFunc("GET /monitors/{id}", s.handleMonitorGet)
	mux.HandleFunc("DELETE /monitors/{id}", s.handleMonitorDelete)
	mux.HandleFunc("POST /monitors/{id}/events", s.handleMonitorIngest)
	mux.HandleFunc("GET /monitors/{id}/events", s.handleMonitorEvents)
	mux.HandleFunc("GET /statsz", s.handleStatsz)
	if s.cluster != nil {
		// Peer-to-peer verbs, mounted only when clustered: gossip
		// heartbeats, forwarded job submissions, replica streaming.
		mux.HandleFunc("POST "+cluster.GossipPath, s.handleGossip)
		mux.HandleFunc("POST "+cluster.ForwardPath, s.handleForwardedJob)
		mux.HandleFunc("POST "+cluster.ReplicatePath, s.handleReplicate)
	}
	return mux
}

// Handler returns a handler over a default server — the stateless entry
// point existing callers use. The default configuration cannot fail; the
// error branch is defensive.
func Handler() http.Handler {
	s, err := New(Options{})
	if err != nil {
		return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			writeError(w, http.StatusInternalServerError, err.Error())
		})
	}
	return s.Handler()
}

func handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	_, _ = io.WriteString(w, indexHTML) // nothing to do if the client went away
}

const indexHTML = `<!DOCTYPE html>
<html><head><meta charset="utf-8"><title>DivExplorer</title></head>
<body style="font-family: system-ui; max-width: 40rem; margin: 3rem auto">
<h1>DivExplorer</h1>
<p>POST a CSV to <code>/analyze?truth=&lt;col&gt;&amp;pred=&lt;col&gt;&amp;support=0.05&amp;format=html</code>,
or submit an asynchronous job via <code>POST /jobs</code> and poll <code>GET /jobs/{id}</code>.</p>
<pre>curl --data-binary @data.csv 'http://HOST/analyze?truth=label&amp;pred=predicted&amp;format=html'</pre>
</body></html>
`

// writeError emits a JSON error body with the given status.
func writeError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": msg}) // nothing to do if the client went away
}

// writeJSON emits v with status code.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v) // nothing to do if the client went away
}

// readBody reads the request body under the configured size limit,
// answering 413 (with a JSON error body) when it is exceeded. A body
// whose Content-Length is under the limit is read into one allocation
// of that size; without one, or when it claims more than the limit, the
// buffer grows as io.ReadAll's does, so a client's header never makes
// the server allocate past the limit. Nothing writes to the returned
// buffer afterwards: the registry may keep it as an entry's canonical
// bytes.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	size := 512
	if n := r.ContentLength; n > 0 && n < s.maxBody {
		size = int(n) + 1 // the spare byte takes the read that meets EOF
	}
	body, err := readSized(http.MaxBytesReader(w, r.Body, s.maxBody), size)
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("request body exceeds the %d-byte limit", mbe.Limit))
		} else {
			writeError(w, http.StatusBadRequest, "reading body: "+err.Error())
		}
		return nil, false
	}
	return body, true
}

// readSized reads r to EOF into a buffer of initial capacity size and
// grows it, as io.ReadAll does, only when the stream outruns that. A
// size one byte past the stream's length reads it in one allocation.
func readSized(r io.Reader, size int) ([]byte, error) {
	b := make([]byte, 0, max(size, 1))
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return b, err
		}
	}
}

// parseRequest parses the query parameters /analyze and POST /jobs share
// into an analysis spec, with Dataset left to the caller, and the
// response format. Metric names are resolved to their canonical form.
func parseRequest(r *http.Request) (jobs.Spec, string, error) {
	q := r.URL.Query()
	spec := jobs.Spec{
		TruthCol: orDefault(q.Get("truth"), "truth"),
		PredCol:  orDefault(q.Get("pred"), "pred"),
		Support:  0.05,
		TopK:     10,
	}
	if s := q.Get("support"); s != "" {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil || v < 0 || v > 1 {
			return spec, "", fmt.Errorf("bad support %q", s)
		}
		spec.Support = v
	}
	if s := q.Get("topk"); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil || v < 1 {
			return spec, "", fmt.Errorf("bad topk %q", s)
		}
		spec.TopK = v
	}
	if s := q.Get("eps"); s != "" {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil || v < 0 {
			return spec, "", fmt.Errorf("bad eps %q", s)
		}
		spec.Epsilon = v
	}
	if s := q.Get("alpha"); s != "" {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil || v <= 0 || v >= 1 {
			return spec, "", fmt.Errorf("bad alpha %q", s)
		}
		spec.Alpha = v
	}
	names := orDefault(q.Get("metric"), "FPR,FNR")
	for _, n := range strings.Split(names, ",") {
		m, err := core.MetricByName(strings.TrimSpace(n))
		if err != nil {
			return spec, "", err
		}
		spec.Metrics = append(spec.Metrics, m.Name)
	}
	format, err := parseFormat(q.Get("format"))
	return spec, format, err
}

// parseFormat checks a response format: "json" (the default when
// empty), "html" or "csv".
func parseFormat(format string) (string, error) {
	format = orDefault(format, "json")
	switch format {
	case "json", "html", "csv":
		return format, nil
	}
	return "", fmt.Errorf("bad format %q (want json, html or csv)", format)
}

func orDefault(s, def string) string {
	if s == "" {
		return def
	}
	return s
}

// JSON response shapes.

type patternJSON struct {
	Itemset    []string `json:"itemset"`
	Support    float64  `json:"support"`
	Rate       float64  `json:"rate"`
	Divergence float64  `json:"divergence"`
	T          float64  `json:"t"`
	PValue     float64  `json:"p_value"`
}

type itemJSON struct {
	Item       string  `json:"item"`
	Global     float64 `json:"global_divergence"`
	Individual float64 `json:"individual_divergence"`
}

type correctiveJSON struct {
	Base   []string `json:"base"`
	Item   string   `json:"item"`
	Factor float64  `json:"factor"`
	T      float64  `json:"t"`
}

type metricJSON struct {
	Metric      string           `json:"metric"`
	OverallRate float64          `json:"overall_rate"`
	Top         []patternJSON    `json:"top_divergent"`
	Pruned      []patternJSON    `json:"pruned_top,omitempty"`
	Significant []patternJSON    `json:"significant,omitempty"`
	Items       []itemJSON       `json:"items"`
	Corrective  []correctiveJSON `json:"corrective"`
}

type responseJSON struct {
	Rows     int          `json:"rows"`
	Attrs    int          `json:"attributes"`
	Patterns int          `json:"frequent_itemsets"`
	Support  float64      `json:"min_support"`
	Metrics  []metricJSON `json:"metrics"`
}

// handleAnalyze is the synchronous path. The upload is registered in the
// content-addressed registry and the exploration runs through the shared
// result cache, so a repeated upload skips both parsing and mining. The
// request context cancels the mine when the client disconnects.
func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	spec, format, err := parseRequest(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	body, ok := s.readBody(w, r)
	if !ok {
		return
	}
	entry, _, err := s.reg.Register(body, csvOptions())
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	spec.Dataset = entry.Hash
	res, err := s.engine.Analyze(r.Context(), spec)
	if err != nil {
		s.writeAnalysisError(w, r, err)
		return
	}
	s.render(w, res, spec, format)
}

// writeAnalysisError maps analysis failures to HTTP statuses.
func (s *Server) writeAnalysisError(w http.ResponseWriter, r *http.Request, err error) {
	switch {
	case errors.Is(err, jobs.ErrBadInput):
		writeError(w, http.StatusBadRequest, err.Error())
	case r.Context().Err() != nil:
		// Client went away mid-mine; the status is for the log only.
		writeError(w, 499, err.Error())
	default:
		writeError(w, http.StatusInternalServerError, err.Error())
	}
}

// render writes an analysis spec's result in format, for sync and async
// requests alike.
func (s *Server) render(w http.ResponseWriter, res *core.Result, spec jobs.Spec, format string) {
	metrics := make([]core.Metric, len(spec.Metrics))
	for i, n := range spec.Metrics {
		m, err := core.MetricByName(n) // validated when the spec was parsed
		if err != nil {
			writeError(w, http.StatusInternalServerError, err.Error())
			return
		}
		metrics[i] = m
	}
	switch format {
	case "html":
		out, err := htmlreport.Render(res, htmlreport.Config{
			Metrics:  metrics,
			TopK:     spec.TopK,
			Epsilon:  spec.Epsilon,
			FDRLevel: spec.Alpha,
		})
		if err != nil {
			writeError(w, http.StatusInternalServerError, err.Error())
			return
		}
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		_, _ = w.Write(out) // nothing to do if the client went away
	case "csv":
		w.Header().Set("Content-Type", "text/csv")
		if err := res.WriteCSV(w, metrics[0], core.ByDivergence); err != nil {
			writeError(w, http.StatusInternalServerError, err.Error())
		}
	default:
		writeJSON(w, http.StatusOK, buildJSON(res, spec, metrics))
	}
}

// buildJSON is the JSON report of an analysis spec's result over its
// resolved metrics.
func buildJSON(res *core.Result, spec jobs.Spec, metrics []core.Metric) responseJSON {
	resp := responseJSON{
		Rows:     res.DB.NumRows(),
		Attrs:    res.DB.Catalog.NumAttrs(),
		Patterns: res.NumPatterns(),
		Support:  res.MinSup,
	}
	for _, m := range metrics {
		mj := metricJSON{Metric: m.Name, OverallRate: res.GlobalRate(m)}
		toJSON := func(rk core.Ranked) patternJSON {
			return patternJSON{
				Itemset:    res.DB.Catalog.Names(rk.Items),
				Support:    rk.Support,
				Rate:       rk.Rate,
				Divergence: rk.Divergence,
				T:          rk.T,
				PValue:     res.PValue(rk.Tally, m),
			}
		}
		for _, rk := range res.TopK(m, spec.TopK, core.ByAbsDivergence) {
			mj.Top = append(mj.Top, toJSON(rk))
		}
		if spec.Epsilon > 0 {
			for _, rk := range res.TopKPruned(m, spec.Epsilon, spec.TopK, core.ByAbsDivergence) {
				mj.Pruned = append(mj.Pruned, toJSON(rk))
			}
		}
		if spec.Alpha > 0 {
			sig := res.SignificantPatterns(m, spec.Alpha, core.ByAbsDivergence)
			for i, s := range sig {
				if i == spec.TopK {
					break
				}
				mj.Significant = append(mj.Significant, toJSON(s.Ranked))
			}
		}
		for _, c := range res.CompareItemDivergence(m) {
			ind := c.Individual
			if math.IsNaN(ind) {
				ind = 0
			}
			mj.Items = append(mj.Items, itemJSON{
				Item:       res.DB.Catalog.Name(c.Item),
				Global:     c.Global,
				Individual: ind,
			})
		}
		for _, c := range res.TopCorrective(m, 5, 2.0) {
			mj.Corrective = append(mj.Corrective, correctiveJSON{
				Base:   res.DB.Catalog.Names(c.Base),
				Item:   res.DB.Catalog.Name(c.Item),
				Factor: c.Factor,
				T:      c.T,
			})
		}
		resp.Metrics = append(resp.Metrics, mj)
	}
	return resp
}
