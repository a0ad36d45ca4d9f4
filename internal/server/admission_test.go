// Multi-tenant admission control over the HTTP API: quota and rate
// denials as 429-with-Retry-After, grant release at terminal time, and
// weighted fair queueing keeping a quiet tenant's latency flat while a
// noisy tenant floods the queue.

package server

import (
	"context"
	"fmt"
	"net/http"
	"sort"
	"testing"
	"time"

	"repro/internal/admission"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/jobs"
	"repro/internal/registry"
)

// TestAdmissionTenantQuota429: a tenant at its active-job cap gets 429
// with Retry-After while other tenants keep flowing, and the slot frees
// when the running job terminates.
func TestAdmissionTenantQuota429(t *testing.T) {
	reg := registry.New(0)
	release := make(chan struct{})
	ctrl := admission.NewController(admission.Limits{},
		map[string]admission.Limits{"greedy": {MaxActive: 2}}, nil)
	engine, err := jobs.New(jobs.Config{Registry: reg, Workers: 4, Analyze: gatedAnalyze(release), Admission: ctrl})
	if err != nil {
		t.Fatal(err)
	}
	h := newTestServer(t, Options{Registry: reg, Engine: engine}).Handler()

	var ids []string
	for i, tenant := range []string{"greedy", "greedy", "polite"} {
		w := doTenant(t, h, http.MethodPost, fmt.Sprintf("/jobs?support=0.%02d", i+1), sampleCSV, tenant)
		if w.Code != http.StatusAccepted {
			t.Fatalf("submit %d (%s) = %d: %s", i, tenant, w.Code, w.Body.String())
		}
		ids = append(ids, decode[jobJSON](t, w).ID)
	}
	// Third greedy job: over the cap.
	w := doTenant(t, h, http.MethodPost, "/jobs?support=0.04", sampleCSV, "greedy")
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("over-quota submit = %d: %s", w.Code, w.Body.String())
	}
	if w.Header().Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	// The default tenant has no cap: an untagged submit still lands.
	if w := do(t, h, http.MethodPost, "/jobs?support=0.05", sampleCSV); w.Code != http.StatusAccepted {
		t.Fatalf("default-tenant submit = %d: %s", w.Code, w.Body.String())
	}

	close(release)
	for _, id := range ids {
		if st := pollJob(t, h, id); st.State != "done" {
			t.Fatalf("job %s = %s", id, st.State)
		}
	}
	// Terminal release: greedy admits again once its jobs finish.
	waitUntil(t, 5*time.Second, "quota slots released at terminal", func() bool {
		return doTenant(t, h, http.MethodPost, "/jobs?support=0.06", sampleCSV, "greedy").Code == http.StatusAccepted
	})
	// The denial shows up in the tenant's statsz row.
	stats := decode[statszJSON](t, do(t, h, http.MethodGet, "/statsz", ""))
	var greedy *admission.TenantStats
	for i := range stats.Admission {
		if stats.Admission[i].Tenant == "greedy" {
			greedy = &stats.Admission[i]
		}
	}
	if greedy == nil || greedy.DeniedJobs < 1 || greedy.Admitted < 3 {
		t.Errorf("greedy statsz row = %+v, want >=1 denial and >=3 admissions", greedy)
	}
}

// TestAdmissionRateLimit429: a token-bucket rate limit denies the
// burst-exceeding submit with a Retry-After matching the refill time.
func TestAdmissionRateLimit429(t *testing.T) {
	ctrl := admission.NewController(admission.Limits{},
		map[string]admission.Limits{"bursty": {JobsPerSec: 0.5, Burst: 1}}, nil)
	reg := registry.New(0)
	engine, err := jobs.New(jobs.Config{Registry: reg, Admission: ctrl})
	if err != nil {
		t.Fatal(err)
	}
	h := newTestServer(t, Options{Registry: reg, Engine: engine}).Handler()

	w := doTenant(t, h, http.MethodPost, "/jobs?support=0.1", sampleCSV, "bursty")
	if w.Code != http.StatusAccepted {
		t.Fatalf("first submit = %d: %s", w.Code, w.Body.String())
	}
	w = doTenant(t, h, http.MethodPost, "/jobs?support=0.2", sampleCSV, "bursty")
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("burst-exceeding submit = %d: %s", w.Code, w.Body.String())
	}
	// 1 token at 0.5 tokens/s refills in 2s.
	if ra := w.Header().Get("Retry-After"); ra != "2" {
		t.Errorf("Retry-After = %q, want \"2\"", ra)
	}
}

// TestAdmissionAsyncExploreAndSignificance: async /explore and
// /significance jobs take the admitted path POST /jobs takes. A tenant
// at its active-job cap gets 429 with Retry-After for each kind, its
// jobs carry the tenant the fair queue orders by, and the grant frees
// when the running job ends.
func TestAdmissionAsyncExploreAndSignificance(t *testing.T) {
	reg := registry.New(0)
	release := make(chan struct{})
	ctrl := admission.NewController(admission.Limits{},
		map[string]admission.Limits{"greedy": {MaxActive: 1}}, nil)
	engine, err := jobs.New(jobs.Config{Registry: reg, Workers: 2, Analyze: gatedAnalyze(release), Admission: ctrl})
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Options{Registry: reg, Engine: engine})
	h := s.Handler()
	hash := decode[datasetJSON](t, do(t, h, http.MethodPost, "/datasets", sampleCSV)).Hash
	explore := fmt.Sprintf(`{"dataset":%q,"support":0.1,"async":true}`, hash)
	significance := fmt.Sprintf(`{"dataset":%q,"support":0.1,"permutations":50,"async":true}`, hash)

	// The significance job mines through the gated analysis, so it holds
	// greedy's one slot until release.
	w := doTenant(t, h, http.MethodPost, "/significance", significance, "greedy")
	if w.Code != http.StatusAccepted {
		t.Fatalf("first async significance = %d: %s", w.Code, w.Body.String())
	}
	held := decode[jobJSON](t, w).ID
	for _, c := range []struct{ path, body string }{
		{"/explore", explore}, {"/significance", significance}, {"/jobs?support=0.1", sampleCSV},
	} {
		w := doTenant(t, h, http.MethodPost, c.path, c.body, "greedy")
		if w.Code != http.StatusTooManyRequests || w.Header().Get("Retry-After") == "" {
			t.Errorf("over-quota %s = %d (Retry-After %q): %s", c.path, w.Code, w.Header().Get("Retry-After"), w.Body.String())
		}
	}
	if job, ok := engine.Get(held); !ok {
		t.Errorf("admitted job %s not held", held)
	} else if _, tenant := job.Work().Source(); tenant != "greedy" {
		t.Errorf("admitted job does not carry its tenant")
	}
	// Other tenants keep flowing.
	w = doTenant(t, h, http.MethodPost, "/explore", explore, "polite")
	if w.Code != http.StatusAccepted {
		t.Fatalf("polite async explore = %d: %s", w.Code, w.Body.String())
	}
	if st := pollJob(t, h, decode[jobJSON](t, w).ID); st.State != "done" {
		t.Fatalf("polite explore job = %+v", st)
	}

	close(release)
	if st := pollJob(t, h, held); st.State != "done" {
		t.Fatalf("held job = %+v", st)
	}
	// Terminal release: greedy admits again once its job ends.
	waitUntil(t, 5*time.Second, "quota slot released at terminal", func() bool {
		return doTenant(t, h, http.MethodPost, "/explore", explore, "greedy").Code == http.StatusAccepted
	})
	var greedy *admission.TenantStats
	for _, row := range ctrl.Stats() {
		if row.Tenant == "greedy" {
			greedy = &row
		}
	}
	if greedy == nil || greedy.DeniedJobs < 3 || greedy.Admitted < 2 {
		t.Errorf("greedy admission row = %+v, want >=3 denials and >=2 admissions", greedy)
	}
}

// TestAdmissionRefusedSpecChargesNothing: the engine validates a spec
// before it admits it, so a spec refused with 400 spends none of the
// tenant's budget and the tenant's next valid job is admitted.
func TestAdmissionRefusedSpecChargesNothing(t *testing.T) {
	ctrl := admission.NewController(admission.Limits{},
		map[string]admission.Limits{"careful": {JobsPerSec: 0.01, Burst: 1}}, nil)
	reg := registry.New(0)
	engine, err := jobs.New(jobs.Config{Registry: reg, Admission: ctrl})
	if err != nil {
		t.Fatal(err)
	}
	h := newTestServer(t, Options{Registry: reg, Engine: engine}).Handler()
	hash := decode[datasetJSON](t, do(t, h, http.MethodPost, "/datasets", sampleCSV)).Hash

	bad := fmt.Sprintf(`{"dataset":%q,"support":0.1,"metric":"nope","async":true}`, hash)
	for _, path := range []string{"/explore", "/significance"} {
		if w := doTenant(t, h, http.MethodPost, path, bad, "careful"); w.Code != http.StatusBadRequest {
			t.Fatalf("bad-metric async %s = %d: %s", path, w.Code, w.Body.String())
		}
	}
	w := doTenant(t, h, http.MethodPost, "/explore", fmt.Sprintf(`{"dataset":%q,"support":0.1,"async":true}`, hash), "careful")
	if w.Code != http.StatusAccepted {
		t.Fatalf("valid async explore = %d (Retry-After %q): %s", w.Code, w.Header().Get("Retry-After"), w.Body.String())
	}
	rows := decode[statszJSON](t, do(t, h, http.MethodGet, "/statsz", "")).Admission
	if len(rows) != 1 || rows[0].Tenant != "careful" || rows[0].Admitted != 1 ||
		rows[0].DeniedRate != 0 || rows[0].DeniedJobs != 0 || rows[0].DeniedBytes != 0 {
		t.Errorf("admission rows = %+v, want careful admitted 1 and denied nothing", rows)
	}
}

// latencyOf returns a job's created→finished latency from its
// timestamps.
func latencyOf(t *testing.T, st jobJSON) time.Duration {
	t.Helper()
	created, err := time.Parse(time.RFC3339Nano, st.CreatedAt)
	if err != nil {
		t.Fatalf("created_at %q: %v", st.CreatedAt, err)
	}
	finished, err := time.Parse(time.RFC3339Nano, st.FinishedAt)
	if err != nil {
		t.Fatalf("finished_at %q: %v", st.FinishedAt, err)
	}
	return finished.Sub(created)
}

func p50(ds []time.Duration) time.Duration {
	sorted := append([]time.Duration(nil), ds...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return sorted[len(sorted)/2]
}

// TestAdmissionFairQueueIsolation is the multi-tenant fairness
// acceptance check: with one worker and a noisy tenant flooding the
// queue, a quiet tenant's jobs interleave via weighted fair queueing —
// its p50 stays within 2x the unloaded baseline (plus scheduling
// slack), and all its jobs finish before the noisy backlog drains,
// which FIFO would invert.
func TestAdmissionFairQueueIsolation(t *testing.T) {
	const jobDelay = 5 * time.Millisecond
	reg := registry.New(0)
	ctrl := admission.NewController(admission.Limits{}, nil, nil)
	engine, err := jobs.New(jobs.Config{
		Registry:   reg,
		Workers:    1,
		QueueDepth: 128,
		Admission:  ctrl,
		Analyze: func(ctx context.Context, data *dataset.Dataset, spec jobs.Spec, tr *jobs.Tracker) (*core.Result, error) {
			select {
			case <-time.After(jobDelay):
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			return jobs.RunAnalysis(ctx, data, spec, tr)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	h := newTestServer(t, Options{Registry: reg, Engine: engine}).Handler()
	hash := decode[datasetJSON](t, do(t, h, http.MethodPost, "/datasets", sampleCSV)).Hash

	// Distinct supports keep every job's cache key distinct, so each one
	// really runs the delayed analysis.
	submit := func(tenant string, support int) string {
		w := doTenant(t, h, http.MethodPost,
			fmt.Sprintf("/jobs?dataset=%s&support=0.%03d", hash, support), "", tenant)
		if w.Code != http.StatusAccepted {
			t.Fatalf("submit %s/%d = %d: %s", tenant, support, w.Code, w.Body.String())
		}
		return decode[jobJSON](t, w).ID
	}

	// Unloaded baseline: the quiet tenant alone.
	const quietN, noisyN = 6, 30
	var base []time.Duration
	for i := 0; i < quietN; i++ {
		id := submit("quiet", 100+i)
		base = append(base, latencyOf(t, pollJob(t, h, id)))
	}
	baseP50 := p50(base)

	// Loaded run: flood from the noisy tenant first, then the quiet jobs.
	noisyIDs := make([]string, 0, noisyN)
	for i := 0; i < noisyN; i++ {
		noisyIDs = append(noisyIDs, submit("noisy", 200+i))
	}
	quietIDs := make([]string, 0, quietN)
	for i := 0; i < quietN; i++ {
		quietIDs = append(quietIDs, submit("quiet", 300+i))
	}
	var loaded []time.Duration
	var lastQuiet, lastNoisy time.Time
	for _, id := range quietIDs {
		st := pollJob(t, h, id)
		loaded = append(loaded, latencyOf(t, st))
		if fin, err := time.Parse(time.RFC3339Nano, st.FinishedAt); err == nil && fin.After(lastQuiet) {
			lastQuiet = fin
		}
	}
	for _, id := range noisyIDs {
		st := pollJob(t, h, id)
		if fin, err := time.Parse(time.RFC3339Nano, st.FinishedAt); err == nil && fin.After(lastNoisy) {
			lastNoisy = fin
		}
	}

	loadedP50 := p50(loaded)
	if limit := 2*baseP50 + 250*time.Millisecond; loadedP50 > limit {
		t.Errorf("quiet p50 under load = %s, want <= %s (baseline %s)", loadedP50, limit, baseP50)
	}
	// The WFQ signature: the quiet tenant drains while the noisy backlog
	// is still being served. FIFO would finish every noisy job first.
	if !lastQuiet.Before(lastNoisy) {
		t.Errorf("last quiet job finished at %s, after the noisy backlog drained at %s — queue is not fair",
			lastQuiet.Format(time.RFC3339Nano), lastNoisy.Format(time.RFC3339Nano))
	}
}
