package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/jobs"
	"repro/internal/registry"
)

// newTestServer builds a server over a fresh registry/engine and tears
// the engine down with the test.
func newTestServer(t *testing.T, opts Options) *Server {
	t.Helper()
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := s.Close(ctx); err != nil {
			t.Errorf("close: %v", err)
		}
	})
	return s
}

func do(t *testing.T, h http.Handler, method, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

func decode[T any](t *testing.T, w *httptest.ResponseRecorder) T {
	t.Helper()
	var v T
	if err := json.Unmarshal(w.Body.Bytes(), &v); err != nil {
		t.Fatalf("decoding %q: %v", w.Body.String(), err)
	}
	return v
}

// pollJob polls GET /jobs/{id} until the job is terminal.
func pollJob(t *testing.T, h http.Handler, id string) jobJSON {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		w := do(t, h, http.MethodGet, "/jobs/"+id, "")
		if w.Code != http.StatusOK {
			t.Fatalf("GET /jobs/%s = %d: %s", id, w.Code, w.Body.String())
		}
		st := decode[jobJSON](t, w)
		switch st.State {
		case "done", "failed", "canceled":
			return st
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s did not terminate", id)
	return jobJSON{}
}

func TestDatasetRegisterAndGet(t *testing.T) {
	h := newTestServer(t, Options{}).Handler()
	w := do(t, h, http.MethodPost, "/datasets", sampleCSV)
	if w.Code != http.StatusOK {
		t.Fatalf("POST /datasets = %d: %s", w.Code, w.Body.String())
	}
	d := decode[datasetJSON](t, w)
	if d.Rows != 14 || d.Attributes != 4 || d.Cached {
		t.Errorf("dataset meta = %+v", d)
	}
	if d.Hash != string(registry.HashBytes([]byte(sampleCSV))) {
		t.Errorf("hash mismatch: %s", d.Hash)
	}
	// Same bytes → cached; different line endings → same hash.
	w = do(t, h, http.MethodPost, "/datasets", strings.ReplaceAll(sampleCSV, "\n", "\r\n"))
	if d2 := decode[datasetJSON](t, w); !d2.Cached || d2.Hash != d.Hash {
		t.Errorf("re-register = %+v, want cached with same hash", d2)
	}
	w = do(t, h, http.MethodGet, "/datasets/"+d.Hash, "")
	if w.Code != http.StatusOK {
		t.Errorf("GET /datasets/{hash} = %d", w.Code)
	}
	if w := do(t, h, http.MethodGet, "/datasets/none", ""); w.Code != http.StatusNotFound {
		t.Errorf("GET unknown dataset = %d, want 404", w.Code)
	}
	if w := do(t, h, http.MethodPost, "/datasets", "a,b\nbad\n"); w.Code != http.StatusBadRequest {
		t.Errorf("malformed dataset = %d, want 400", w.Code)
	}
}

// TestJobEndToEndCacheHit is the acceptance scenario: the same dataset
// submitted twice via POST /jobs — the second run is a cache hit
// (asserted via /statsz counters) and returns byte-identical results.
func TestJobEndToEndCacheHit(t *testing.T) {
	h := newTestServer(t, Options{}).Handler()

	w := do(t, h, http.MethodPost, "/jobs?support=0.05&metric=FPR", sampleCSV)
	if w.Code != http.StatusAccepted {
		t.Fatalf("POST /jobs = %d: %s", w.Code, w.Body.String())
	}
	j1 := decode[jobJSON](t, w)
	// The response snapshots the job after submitting it, so a worker may
	// already have finished the small mine. Failed or canceled is wrong.
	if j1.State != "queued" && j1.State != "running" && j1.State != "done" {
		t.Errorf("initial state = %s", j1.State)
	}
	st1 := pollJob(t, h, j1.ID)
	if st1.State != "done" || st1.CacheHit {
		t.Fatalf("first job: %+v, want done without cache hit", st1)
	}
	if st1.ResultURL == "" || st1.FinishedAt == "" {
		t.Errorf("done job missing result_url/finished_at: %+v", st1)
	}
	r1 := do(t, h, http.MethodGet, "/jobs/"+j1.ID+"/result", "")
	if r1.Code != http.StatusOK {
		t.Fatalf("GET result = %d: %s", r1.Code, r1.Body.String())
	}

	// Second submission of the same dataset and parameters.
	w = do(t, h, http.MethodPost, "/jobs?support=0.05&metric=FPR", sampleCSV)
	if w.Code != http.StatusAccepted {
		t.Fatalf("second POST /jobs = %d", w.Code)
	}
	j2 := decode[jobJSON](t, w)
	if j2.Dataset != j1.Dataset {
		t.Errorf("content addressing broken: %s vs %s", j2.Dataset, j1.Dataset)
	}
	st2 := pollJob(t, h, j2.ID)
	if st2.State != "done" || !st2.CacheHit {
		t.Fatalf("second job: %+v, want done via cache", st2)
	}
	r2 := do(t, h, http.MethodGet, "/jobs/"+j2.ID+"/result", "")
	if !bytes.Equal(r1.Body.Bytes(), r2.Body.Bytes()) {
		t.Error("cached result is not byte-identical")
	}

	// The counters must show the dataset dedup and the result-cache hit.
	stats := decode[statszJSON](t, do(t, h, http.MethodGet, "/statsz", ""))
	if stats.Jobs.ResultCache.Hits < 1 {
		t.Errorf("result cache hits = %d, want >= 1", stats.Jobs.ResultCache.Hits)
	}
	if stats.Datasets.Hits < 1 {
		t.Errorf("dataset registry hits = %d, want >= 1", stats.Datasets.Hits)
	}
	// memory_hits counts results served from the in-memory job result —
	// exactly the two GET .../result calls above, not the registry's
	// lookup traffic (which the Datasets.Hits assertion shows is moving
	// on its own schedule).
	if stats.Ladder.MemoryHits != 2 {
		t.Errorf("ladder memory_hits = %d, want 2 (one per result serve)", stats.Ladder.MemoryHits)
	}
	if stats.Jobs.Completed != 2 {
		t.Errorf("completed = %d, want 2", stats.Jobs.Completed)
	}

	// Other render formats work off the stored result too.
	if w := do(t, h, http.MethodGet, "/jobs/"+j1.ID+"/result?format=csv", ""); w.Code != http.StatusOK ||
		!strings.HasPrefix(w.Body.String(), "itemset,") {
		t.Errorf("csv result = %d %q", w.Code, w.Body.String()[:min(40, w.Body.Len())])
	}
	if w := do(t, h, http.MethodGet, "/jobs/"+j1.ID+"/result?format=bogus", ""); w.Code != http.StatusBadRequest {
		t.Errorf("bogus format = %d, want 400", w.Code)
	}
}

func TestJobSubmitByDatasetHash(t *testing.T) {
	h := newTestServer(t, Options{}).Handler()
	d := decode[datasetJSON](t, do(t, h, http.MethodPost, "/datasets", sampleCSV))
	w := do(t, h, http.MethodPost, "/jobs?dataset="+d.Hash+"&metric=FPR", "")
	if w.Code != http.StatusAccepted {
		t.Fatalf("POST /jobs?dataset= %d: %s", w.Code, w.Body.String())
	}
	st := pollJob(t, h, decode[jobJSON](t, w).ID)
	if st.State != "done" {
		t.Fatalf("job = %+v", st)
	}
	if w := do(t, h, http.MethodPost, "/jobs?dataset=unknownhash", ""); w.Code != http.StatusNotFound {
		t.Errorf("unknown hash submit = %d, want 404", w.Code)
	}
}

// TestJobQueueFull is the backpressure acceptance path: filling the
// queue past its bound yields HTTP 429, not blocking.
func TestJobQueueFull(t *testing.T) {
	reg := registry.New(0)
	started := make(chan struct{}, 4)
	engine, err := jobs.New(jobs.Config{
		Registry:   reg,
		Workers:    1,
		QueueDepth: 1,
		Analyze: func(ctx context.Context, _ *dataset.Dataset, _ jobs.Spec, _ *jobs.Tracker) (*core.Result, error) {
			started <- struct{}{}
			<-ctx.Done()
			return nil, ctx.Err()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Options{Registry: reg, Engine: engine})
	h := s.Handler()

	// First job occupies the single worker, second fills the queue;
	// distinct supports keep their cache keys distinct.
	var accepted []string
	w := do(t, h, http.MethodPost, "/jobs?support=0.1", sampleCSV)
	if w.Code != http.StatusAccepted {
		t.Fatalf("first submit = %d", w.Code)
	}
	accepted = append(accepted, decode[jobJSON](t, w).ID)
	<-started
	w = do(t, h, http.MethodPost, "/jobs?support=0.2", sampleCSV)
	if w.Code != http.StatusAccepted {
		t.Fatalf("second submit = %d", w.Code)
	}
	accepted = append(accepted, decode[jobJSON](t, w).ID)
	w = do(t, h, http.MethodPost, "/jobs?support=0.3", sampleCSV)
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("over-bound submit = %d, want 429", w.Code)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	if e := decode[map[string]string](t, w); !strings.Contains(e["error"], "queue full") {
		t.Errorf("429 body = %q", w.Body.String())
	}
	stats := decode[statszJSON](t, do(t, h, http.MethodGet, "/statsz", ""))
	if stats.Jobs.Rejected != 1 {
		t.Errorf("rejected = %d, want 1", stats.Jobs.Rejected)
	}
	// Unblock so Close drains promptly: cancel everything via the API.
	for _, id := range accepted {
		if w := do(t, h, http.MethodDelete, "/jobs/"+id, ""); w.Code != http.StatusOK {
			t.Errorf("cancel %s = %d", id, w.Code)
		}
	}
}

// TestJobCancelMidFlight: a canceled job stops mining (the worker
// observes the context) and reports canceled, not done.
func TestJobCancelMidFlight(t *testing.T) {
	reg := registry.New(0)
	started := make(chan struct{}, 1)
	observed := make(chan struct{})
	engine, err := jobs.New(jobs.Config{
		Registry: reg,
		Workers:  1,
		Analyze: func(ctx context.Context, _ *dataset.Dataset, _ jobs.Spec, _ *jobs.Tracker) (*core.Result, error) {
			started <- struct{}{}
			<-ctx.Done()
			close(observed)
			return nil, ctx.Err()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Options{Registry: reg, Engine: engine})
	h := s.Handler()

	w := do(t, h, http.MethodPost, "/jobs", sampleCSV)
	if w.Code != http.StatusAccepted {
		t.Fatalf("submit = %d", w.Code)
	}
	id := decode[jobJSON](t, w).ID
	<-started

	if w := do(t, h, http.MethodDelete, "/jobs/"+id, ""); w.Code != http.StatusOK {
		t.Fatalf("DELETE = %d: %s", w.Code, w.Body.String())
	}
	select {
	case <-observed:
	case <-time.After(5 * time.Second):
		t.Fatal("worker never observed cancellation")
	}
	st := pollJob(t, h, id)
	if st.State != "canceled" {
		t.Fatalf("state = %s, want canceled", st.State)
	}
	// The result endpoint refuses with 409 and names the state.
	if w := do(t, h, http.MethodGet, "/jobs/"+id+"/result", ""); w.Code != http.StatusConflict {
		t.Errorf("result of canceled job = %d, want 409", w.Code)
	}
	if w := do(t, h, http.MethodDelete, "/jobs/nope", ""); w.Code != http.StatusNotFound {
		t.Errorf("cancel unknown = %d, want 404", w.Code)
	}
}

func TestAnalyzeServedThroughCache(t *testing.T) {
	s := newTestServer(t, Options{})
	h := s.Handler()
	w1 := do(t, h, http.MethodPost, "/analyze?metric=FPR", sampleCSV)
	if w1.Code != http.StatusOK {
		t.Fatalf("analyze = %d: %s", w1.Code, w1.Body.String())
	}
	w2 := do(t, h, http.MethodPost, "/analyze?metric=FPR", sampleCSV)
	if !bytes.Equal(w1.Body.Bytes(), w2.Body.Bytes()) {
		t.Error("repeat analyze differs")
	}
	stats := decode[statszJSON](t, do(t, h, http.MethodGet, "/statsz", ""))
	if stats.Jobs.ResultCache.Hits < 1 || stats.Datasets.Hits < 1 {
		t.Errorf("sync path bypassed the caches: %+v", stats)
	}
}

func TestOversizedBody413(t *testing.T) {
	s := newTestServer(t, Options{MaxBodyBytes: 64})
	h := s.Handler()
	big := sampleCSV + strings.Repeat("A,n,0,1\n", 100)
	for _, path := range []string{"/analyze", "/datasets", "/jobs"} {
		w := do(t, h, http.MethodPost, path, big)
		if w.Code != http.StatusRequestEntityTooLarge {
			t.Errorf("%s oversized = %d, want 413", path, w.Code)
			continue
		}
		e := decode[map[string]string](t, w)
		if !strings.Contains(e["error"], "64-byte limit") {
			t.Errorf("%s 413 body = %q", path, w.Body.String())
		}
	}
}

// TestReadBodySizing checks the body read against the Content-Length
// a client declares: a truthful length under the limit is read into one
// buffer of exactly that size, while a missing, understated or
// over-limit claim reads the same bytes without a buffer sized from the
// header, and a body past the limit is still refused. Under it,
// readSized reads a stream of known length in one allocation.
func TestReadBodySizing(t *testing.T) {
	const limit = 1 << 10
	s := newTestServer(t, Options{MaxBodyBytes: limit})
	body := strings.Repeat("x", 100)
	for _, c := range []struct {
		name     string
		declared int64
	}{
		{"truthful", 100}, {"unknown", -1}, {"understated", 10}, {"over limit", 1 << 40},
	} {
		req := httptest.NewRequest(http.MethodPost, "/datasets", strings.NewReader(body))
		req.ContentLength = c.declared
		got, ok := s.readBody(httptest.NewRecorder(), req)
		if !ok || string(got) != body {
			t.Errorf("%s: read %d bytes, ok=%v", c.name, len(got), ok)
			continue
		}
		if c.name == "truthful" && cap(got) != len(body)+1 {
			t.Errorf("truthful: cap %d, want one buffer of %d", cap(got), len(body)+1)
		}
		if cap(got) > limit {
			t.Errorf("%s: cap %d exceeds the %d-byte limit", c.name, cap(got), limit)
		}
	}
	req := httptest.NewRequest(http.MethodPost, "/datasets", strings.NewReader(strings.Repeat("x", limit+1)))
	req.ContentLength = 10
	w := httptest.NewRecorder()
	if _, ok := s.readBody(w, req); ok || w.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("body past the limit under a small claim: ok=%v status %d, want 413", ok, w.Code)
	}

	// readSized itself: a size one past the stream's length reads it in
	// a single allocation, and a short size still reads everything.
	data := []byte(strings.Repeat("a,b\n", 1000))
	rd := bytes.NewReader(data)
	allocs := testing.AllocsPerRun(10, func() {
		rd.Reset(data)
		if got, err := readSized(rd, len(data)+1); err != nil || len(got) != len(data) {
			t.Fatalf("read %d bytes, err %v", len(got), err)
		}
	})
	if allocs != 1 {
		t.Errorf("readSized sized from the length allocates %.0f times, want 1", allocs)
	}
	if got, err := readSized(bytes.NewReader(data), 0); err != nil || !bytes.Equal(got, data) {
		t.Errorf("unsized read: %d bytes, err %v", len(got), err)
	}
}

func TestJobSubmitErrorPaths(t *testing.T) {
	h := newTestServer(t, Options{}).Handler()
	cases := []struct {
		name, path, body string
		want             int
	}{
		{"unknown metric", "/jobs?metric=XYZ", sampleCSV, http.StatusBadRequest},
		{"bad support", "/jobs?support=7", sampleCSV, http.StatusBadRequest},
		{"malformed csv", "/jobs", "a,b\nonly-one\n", http.StatusBadRequest},
		{"unknown job status", "", "", http.StatusNotFound},
	}
	for _, c := range cases {
		var w *httptest.ResponseRecorder
		if c.name == "unknown job status" {
			w = do(t, h, http.MethodGet, "/jobs/doesnotexist", "")
		} else {
			w = do(t, h, http.MethodPost, c.path, c.body)
		}
		if w.Code != c.want {
			t.Errorf("%s: status = %d, want %d (%s)", c.name, w.Code, c.want, w.Body.String())
		}
	}
	// A job that fails during analysis (unknown truth column at run time)
	// reports failed with the error message, and its result gives 409.
	w := do(t, h, http.MethodPost, "/jobs?truth=ghost", sampleCSV)
	if w.Code != http.StatusAccepted {
		t.Fatalf("submit = %d", w.Code)
	}
	st := pollJob(t, h, decode[jobJSON](t, w).ID)
	if st.State != "failed" || !strings.Contains(st.Error, "ghost") {
		t.Errorf("job = %+v, want failed mentioning the column", st)
	}
	if w := do(t, h, http.MethodGet, "/jobs/"+st.ID+"/result", ""); w.Code != http.StatusConflict {
		t.Errorf("failed job result = %d, want 409", w.Code)
	}
}

func TestStatszShape(t *testing.T) {
	h := newTestServer(t, Options{}).Handler()
	w := do(t, h, http.MethodGet, "/statsz", "")
	if w.Code != http.StatusOK {
		t.Fatalf("statsz = %d", w.Code)
	}
	stats := decode[statszJSON](t, w)
	if stats.Jobs.Workers < 1 || stats.Jobs.QueueCap < 1 {
		t.Errorf("stats missing pool dimensions: %+v", stats.Jobs)
	}
}
