package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/datagen"
	"repro/internal/jobs"
)

// exploreEnv is a persistent server instance: unlike doRequest (which
// builds a fresh Handler per call) the registry, engine and counters
// survive across requests, which is what the explore tests are about.
type exploreEnv struct {
	srv *Server
	h   http.Handler
	// tenant, when set, is the X-Tenant header of every request.
	tenant string
}

func newExploreEnv(t *testing.T) *exploreEnv {
	t.Helper()
	s, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close(context.Background()) })
	return &exploreEnv{srv: s, h: s.Handler()}
}

func (e *exploreEnv) do(t *testing.T, method, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	if e.tenant != "" {
		req.Header.Set(TenantHeader, e.tenant)
	}
	w := httptest.NewRecorder()
	e.h.ServeHTTP(w, req)
	return w
}

// register uploads a CSV through POST /datasets and returns its hash.
func (e *exploreEnv) register(t *testing.T, csv string) string {
	t.Helper()
	w := e.do(t, http.MethodPost, "/datasets", csv)
	if w.Code != http.StatusOK {
		t.Fatalf("register = %d: %s", w.Code, w.Body.String())
	}
	var ds datasetJSON
	if err := json.Unmarshal(w.Body.Bytes(), &ds); err != nil {
		t.Fatal(err)
	}
	return ds.Hash
}

// explore POSTs a JSON body to /explore and decodes the outcome.
func (e *exploreEnv) explore(t *testing.T, body string) (*httptest.ResponseRecorder, jobs.ExploreOutcome) {
	t.Helper()
	w := e.do(t, http.MethodPost, "/explore", body)
	var out jobs.ExploreOutcome
	if w.Code == http.StatusOK {
		if err := json.Unmarshal(w.Body.Bytes(), &out); err != nil {
			t.Fatalf("decoding outcome: %v (%s)", err, w.Body.String())
		}
	}
	return w, out
}

// statsz fetches and decodes GET /statsz.
func (e *exploreEnv) statsz(t *testing.T) statszJSON {
	t.Helper()
	w := e.do(t, http.MethodGet, "/statsz", "")
	if w.Code != http.StatusOK {
		t.Fatalf("statsz = %d", w.Code)
	}
	var st statszJSON
	if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	return st
}

func b01(v bool) string {
	if v {
		return "1"
	}
	return "0"
}

// datagenCSV renders a seeded random dataset as the CSV the upload
// endpoints expect, truth/pred as the last two columns.
func datagenCSV(t testing.TB, seed int64, rows, attrs, maxCard int) string {
	t.Helper()
	g, err := datagen.Random(seed, datagen.RandomConfig{Rows: rows, Attrs: attrs, MaxCard: maxCard})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	for a := 0; a < g.Data.NumAttrs(); a++ {
		sb.WriteString(g.Data.Attrs[a].Name)
		sb.WriteByte(',')
	}
	sb.WriteString("truth,pred\n")
	for r := 0; r < g.Data.NumRows(); r++ {
		for a := 0; a < g.Data.NumAttrs(); a++ {
			sb.WriteString(g.Data.Value(r, a))
			sb.WriteByte(',')
		}
		sb.WriteString(b01(g.Truth[r]))
		sb.WriteByte(',')
		sb.WriteString(b01(g.Pred[r]))
		sb.WriteByte('\n')
	}
	return sb.String()
}

func TestExploreEndpoint(t *testing.T) {
	env := newExploreEnv(t)
	hash := env.register(t, sampleCSV)

	w, out := env.explore(t, fmt.Sprintf(`{"dataset":%q,"support":0.05,"metric":"FPR","topk":5}`, hash))
	if w.Code != http.StatusOK {
		t.Fatalf("explore = %d: %s", w.Code, w.Body.String())
	}
	if out.Reason != "exhausted" || out.Partial || out.CacheHit || out.Sampled {
		t.Fatalf("outcome: %+v", out)
	}
	if out.Metric != "FPR" || len(out.Top) == 0 || len(out.Top) > 5 {
		t.Fatalf("outcome: %+v", out)
	}
	for _, p := range out.Top {
		if p.SupportLo != p.Support || p.SupportHi != p.Support ||
			p.DivergenceLo != p.Divergence || p.DivergenceHi != p.Divergence {
			t.Fatalf("exact run has non-degenerate bounds: %+v", p)
		}
	}
	// The divergent group A must surface, as on /analyze.
	found := false
	for _, p := range out.Top {
		for _, it := range p.Items {
			if it == "group=A" {
				found = true
			}
		}
	}
	if !found {
		t.Fatalf("group=A missing from explore top: %+v", out.Top)
	}
}

// TestExploreDeadlineE2E is the end-to-end deadline guarantee: on a
// dataset far too large to mine exhaustively at low support, a
// budget_ms=200 explore answers HTTP 200 well under 500ms of wall clock
// with partial=true and a non-empty leaderboard — and an unbudgeted
// follow-up of a completed question is served from the outcome cache
// without re-mining.
func TestExploreDeadlineE2E(t *testing.T) {
	env := newExploreEnv(t)
	// 24 binary attributes at 3000 rows: the frequent-itemset count at
	// support 0.002 is astronomically beyond any 200ms budget.
	hash := env.register(t, datagenCSV(t, 42, 3000, 24, 2))

	body := fmt.Sprintf(`{"dataset":%q,"support":0.002,"budget_ms":200,"topk":10}`, hash)
	start := time.Now()
	w, out := env.explore(t, body)
	elapsed := time.Since(start)
	if w.Code != http.StatusOK {
		t.Fatalf("budgeted explore = %d: %s", w.Code, w.Body.String())
	}
	if elapsed >= 500*time.Millisecond {
		t.Fatalf("budget_ms=200 took %v, want < 500ms", elapsed)
	}
	if !out.Partial || out.Reason != "deadline" {
		t.Fatalf("budgeted outcome: reason=%q partial=%v", out.Reason, out.Partial)
	}
	if len(out.Top) == 0 || out.Visited == 0 {
		t.Fatalf("budgeted outcome is empty: %+v", out)
	}

	// Partial outcomes are never cached: the same budgeted ask mines
	// again.
	if _, again := env.explore(t, body); again.CacheHit {
		t.Fatal("a partial outcome was served from the cache")
	}

	// A completed (high-support) question is cached, and the repeat does
	// not mine: the mine counter in /statsz stays flat.
	complete := fmt.Sprintf(`{"dataset":%q,"support":0.3,"topk":10}`, hash)
	if w, out := env.explore(t, complete); w.Code != http.StatusOK || out.Partial {
		t.Fatalf("unbudgeted explore = %d, partial=%v", w.Code, out.Partial)
	}
	mines := env.statsz(t).Jobs.Explore.Mines
	w2, out2 := env.explore(t, complete)
	if w2.Code != http.StatusOK || !out2.CacheHit || out2.Partial || out2.Reason != "exhausted" {
		t.Fatalf("cached follow-up: code=%d %+v", w2.Code, out2)
	}
	if got := env.statsz(t).Jobs.Explore.Mines; got != mines {
		t.Fatalf("cache hit ran a mine: %d -> %d", mines, got)
	}
}

// TestExploreSampledE2E: sample_rows mines an n-row subsample and every
// pattern carries non-degenerate confidence intervals.
func TestExploreSampledE2E(t *testing.T) {
	env := newExploreEnv(t)
	hash := env.register(t, datagenCSV(t, 7, 1200, 6, 3))
	w, out := env.explore(t, fmt.Sprintf(
		`{"dataset":%q,"support":0.1,"sample_rows":400,"sample_seed":5,"confidence":0.95}`, hash))
	if w.Code != http.StatusOK {
		t.Fatalf("sampled explore = %d: %s", w.Code, w.Body.String())
	}
	if !out.Sampled || out.SampleSize != 400 || out.Confidence != 0.95 || out.SupportEps <= 0 {
		t.Fatalf("sampled outcome: %+v", out)
	}
	for _, p := range out.Top {
		if p.SupportLo > p.Support || p.SupportHi < p.Support {
			t.Fatalf("support interval excludes the estimate: %+v", p)
		}
		if p.SupportLo == p.SupportHi {
			t.Fatalf("sampled run has degenerate support bounds: %+v", p)
		}
		if p.DivergenceLo > p.Divergence || p.DivergenceHi < p.Divergence {
			t.Fatalf("divergence interval excludes the estimate: %+v", p)
		}
	}
}

// TestExploreExpandNoRemine asserts over the public API what the jobs
// layer asserts internally: navigation moves only the expand counters in
// /statsz — the mine counter stays flat.
func TestExploreExpandNoRemine(t *testing.T) {
	env := newExploreEnv(t)
	hash := env.register(t, sampleCSV)
	if w, _ := env.explore(t, fmt.Sprintf(`{"dataset":%q}`, hash)); w.Code != http.StatusOK {
		t.Fatalf("explore = %d", w.Code)
	}
	mines := env.statsz(t).Jobs.Explore.Mines

	w := env.do(t, http.MethodPost, "/explore", fmt.Sprintf(`{"dataset":%q,"expand":{}}`, hash))
	if w.Code != http.StatusOK {
		t.Fatalf("root expand = %d: %s", w.Code, w.Body.String())
	}
	var root jobs.ExpandOutcome
	if err := json.Unmarshal(w.Body.Bytes(), &root); err != nil {
		t.Fatal(err)
	}
	if len(root.Parent) != 0 || len(root.Refinements) == 0 {
		t.Fatalf("root expand: %+v", root)
	}

	w = env.do(t, http.MethodPost, "/explore", fmt.Sprintf(
		`{"dataset":%q,"expand":{"pattern":[%q],"attr":"region"}}`, hash, root.Refinements[0].Items[0]))
	if w.Code != http.StatusOK {
		t.Fatalf("drill = %d: %s", w.Code, w.Body.String())
	}
	var drill jobs.ExpandOutcome
	if err := json.Unmarshal(w.Body.Bytes(), &drill); err != nil {
		t.Fatal(err)
	}
	for _, r := range drill.Refinements {
		if len(r.Items) != 2 {
			t.Fatalf("drill refinement %v is not parent+1", r.Items)
		}
	}

	st := env.statsz(t).Jobs.Explore
	if st.Mines != mines {
		t.Fatalf("navigation ran a mine: %d -> %d", mines, st.Mines)
	}
	if st.Expands != 2 || st.Navigation.RowsScanned == 0 {
		t.Fatalf("navigation counters: %+v", st)
	}
}

// TestExploreAsync: "async": true runs the exploration through the job
// lifecycle; the final partial snapshot and the result endpoint carry
// the outcome.
func TestExploreAsync(t *testing.T) {
	env := newExploreEnv(t)
	hash := env.register(t, sampleCSV)
	w := env.do(t, http.MethodPost, "/explore", fmt.Sprintf(`{"dataset":%q,"async":true}`, hash))
	if w.Code != http.StatusAccepted {
		t.Fatalf("async explore = %d: %s", w.Code, w.Body.String())
	}
	var job jobJSON
	if err := json.Unmarshal(w.Body.Bytes(), &job); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		w := env.do(t, http.MethodGet, "/jobs/"+job.ID, "")
		if err := json.Unmarshal(w.Body.Bytes(), &job); err != nil {
			t.Fatal(err)
		}
		if job.State == "done" {
			break
		}
		if job.State == "failed" || time.Now().After(deadline) {
			t.Fatalf("async explore job: %+v", job)
		}
		time.Sleep(5 * time.Millisecond)
	}

	w = env.do(t, http.MethodGet, "/jobs/"+job.ID+"/partial", "")
	if w.Code != http.StatusOK {
		t.Fatalf("partial = %d", w.Code)
	}
	var snap jobs.Snapshot
	if err := json.Unmarshal(w.Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Reason != "exhausted" || len(snap.Top) == 0 {
		t.Fatalf("final snapshot: %+v", snap)
	}

	w = env.do(t, http.MethodGet, "/jobs/"+job.ID+"/result", "")
	if w.Code != http.StatusOK {
		t.Fatalf("explore job result = %d: %s", w.Code, w.Body.String())
	}
	var out jobs.ExploreOutcome
	if err := json.Unmarshal(w.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if out.Reason != "exhausted" || len(out.Top) == 0 {
		t.Fatalf("result outcome: %+v", out)
	}
}

// TestSyncExploreClientGone: a client that leaves a sync /explore
// stops its mine. On a 3,000 × 24 binary table at s = 0.002 the
// unbudgeted mine would run far longer than the test; the handler
// answers 499 as soon as the stream sees the request canceled.
func TestSyncExploreClientGone(t *testing.T) {
	env := newExploreEnv(t)
	hash := env.register(t, datagenCSV(t, 5, 3000, 24, 2))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req := httptest.NewRequest(http.MethodPost, "/explore",
		strings.NewReader(fmt.Sprintf(`{"dataset":%q,"support":0.002}`, hash))).WithContext(ctx)
	w := httptest.NewRecorder()
	served := make(chan struct{})
	go func() {
		env.h.ServeHTTP(w, req)
		close(served)
	}()
	time.Sleep(200 * time.Millisecond)
	cancel()
	select {
	case <-served:
	case <-time.After(2 * time.Second):
		t.Fatal("sync /explore kept mining after its client left")
	}
	if w.Code != 499 {
		t.Fatalf("sync /explore with its client gone = %d: %s", w.Code, w.Body.String())
	}
}

func TestExploreHTTPValidation(t *testing.T) {
	env := newExploreEnv(t)
	hash := env.register(t, sampleCSV)
	cases := map[string]struct {
		body string
		code int
	}{
		"not json":        {"nope", http.StatusBadRequest},
		"trailing data":   {`{"dataset":"x"} {"dataset":"y"}`, http.StatusBadRequest},
		"unknown field":   {`{"dataset":"x","budget":1}`, http.StatusBadRequest},
		"missing dataset": {`{"support":0.1}`, http.StatusBadRequest},
		"bad support":     {fmt.Sprintf(`{"dataset":%q,"support":1.5}`, hash), http.StatusBadRequest},
		"bad metric":      {fmt.Sprintf(`{"dataset":%q,"metric":"nope"}`, hash), http.StatusBadRequest},
		"async metric":    {fmt.Sprintf(`{"dataset":%q,"metric":"nope","async":true}`, hash), http.StatusBadRequest},
		"negative budget": {fmt.Sprintf(`{"dataset":%q,"budget_ms":-1}`, hash), http.StatusBadRequest},
		"bad confidence":  {fmt.Sprintf(`{"dataset":%q,"confidence":1}`, hash), http.StatusBadRequest},
		"async expand":    {fmt.Sprintf(`{"dataset":%q,"async":true,"expand":{}}`, hash), http.StatusBadRequest},
		"budgeted expand": {fmt.Sprintf(`{"dataset":%q,"budget_ms":5,"expand":{}}`, hash), http.StatusBadRequest},
		"ghost dataset":   {`{"dataset":"feedfacefeedface"}`, http.StatusNotFound},
		"ghost column":    {fmt.Sprintf(`{"dataset":%q,"truth":"ghost"}`, hash), http.StatusBadRequest},
		"ghost attr":      {fmt.Sprintf(`{"dataset":%q,"expand":{"attr":"ghost"}}`, hash), http.StatusBadRequest},
	}
	for name, tc := range cases {
		if w := env.do(t, http.MethodPost, "/explore", tc.body); w.Code != tc.code {
			t.Errorf("%s: code %d, want %d (%s)", name, w.Code, tc.code, w.Body.String())
		}
	}
}

// FuzzExploreRequest drives the /explore body parser with arbitrary
// bytes: it must never panic, must be deterministic, and every accepted
// request must satisfy the invariants the engine relies on.
func FuzzExploreRequest(f *testing.F) {
	seeds := []string{
		`{"dataset":"abc123","support":0.05,"metric":"FPR","topk":5}`,
		`{"dataset":"abc123","budget_ms":200,"max_patterns":1000}`,
		`{"dataset":"abc123","sample_rows":400,"sample_seed":7,"confidence":0.99}`,
		`{"dataset":"abc123","expand":{"pattern":["group=A"],"attr":"region"}}`,
		`{"dataset":"abc123","expand":{}}`,
		`{"dataset":"abc123","async":true}`,
		`{"dataset":"abc123","truth":"y","pred":"yhat","support":1}`,
		`{}`,
		``,
		`null`,
		`[]`,
		`{"dataset":"x","support":"0.05"}`,
		`{"dataset":"x","unknown_field":1}`,
		`{"dataset":"x"} trailing`,
		`{"dataset":"x","support":-0.1}`,
		`{"dataset":"x","budget_ms":-9223372036854775808}`,
		`{"dataset":"x","confidence":0.999999,"topk":2147483647}`,
		`{"dataset":" ","expand":{"pattern":[""]}}`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		req, err := parseExploreBody(body)
		req2, err2 := parseExploreBody(body)
		if (err == nil) != (err2 == nil) || !reflect.DeepEqual(req, req2) {
			t.Fatalf("parse is not deterministic on %q", body)
		}
		if err != nil {
			return
		}
		spec, ds := req.spec, req.spec.Dataset
		if req.expand != nil {
			ds = req.expand.Dataset
			if req.async {
				t.Fatalf("accepted async expand: %q", body)
			}
			if spec.BudgetMS != 0 || spec.MaxPatterns != 0 || spec.SampleRows != 0 {
				t.Fatalf("accepted budgeted expand: %q", body)
			}
			if req.expand.TruthCol == "" || req.expand.PredCol == "" {
				t.Fatalf("expand without label columns: %q", body)
			}
			if req.expand.Support <= 0 || req.expand.Support > 1 {
				t.Fatalf("expand support %v out of (0,1]: %q", req.expand.Support, body)
			}
		} else {
			if spec.TruthCol == "" || spec.PredCol == "" {
				t.Fatalf("spec without label columns: %q", body)
			}
			if spec.Support <= 0 || spec.Support > 1 {
				t.Fatalf("support %v out of (0,1]: %q", spec.Support, body)
			}
			if spec.BudgetMS < 0 || spec.MaxPatterns < 0 || spec.SampleRows < 0 || spec.TopK < 0 {
				t.Fatalf("negative budget accepted: %q", body)
			}
			if spec.Confidence < 0 || spec.Confidence >= 1 {
				t.Fatalf("confidence %v out of [0,1): %q", spec.Confidence, body)
			}
		}
		if ds == "" {
			t.Fatalf("accepted empty dataset: %q", body)
		}
	})
}

func TestParseExploreBodyDefaults(t *testing.T) {
	req, err := parseExploreBody([]byte(`{"dataset":"abc"}`))
	if err != nil {
		t.Fatal(err)
	}
	s := req.spec
	if s.TruthCol != "truth" || s.PredCol != "pred" || s.Support != 0.05 {
		t.Fatalf("defaults: %+v", s)
	}
	if req.async || req.expand != nil {
		t.Fatalf("defaults: %+v", req)
	}
}
