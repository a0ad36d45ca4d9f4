package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"

	"repro/internal/admission"
	"repro/internal/jobs"
	"repro/internal/registry"
)

// cacheHitField matches the one field allowed to differ between the
// answers of one question asked along different paths.
var cacheHitField = regexp.MustCompile(`"cache_hit": (true|false)`)

// TestCrossPathIdentical asks each kind of question three ways: the
// synchronous endpoint, an async job's /jobs/{id}/result on a second
// server that mines from cold, and a repeat of the synchronous request
// served from the cache. It asks them of two kinds of server: a plain
// one, and one whose jobs pass a tenant's admission and drain through
// the fair queue. Every body must be byte-identical to the plain
// server's sync answer apart from the cache_hit field.
func TestCrossPathIdentical(t *testing.T) {
	csv := datagenCSV(t, 41, 600, 5, 3)
	const query = "support=0.05&metric=FPR,FNR&eps=0.01&alpha=0.1&topk=7"
	cases := []struct {
		kind string
		// sync and async return the request path and body for a dataset
		// hash; the async body submits a job.
		sync  func(hash string) (string, string)
		async func(hash string) (string, string)
	}{
		{
			kind:  "analyze",
			sync:  func(string) (string, string) { return "/analyze?" + query, csv },
			async: func(hash string) (string, string) { return "/jobs?dataset=" + hash + "&" + query, "" },
		},
		{
			kind: "explore",
			sync: func(hash string) (string, string) {
				return "/explore", fmt.Sprintf(`{"dataset":%q,"support":0.05,"metric":"FPR","topk":7}`, hash)
			},
			async: func(hash string) (string, string) {
				return "/explore", fmt.Sprintf(`{"dataset":%q,"support":0.05,"metric":"FPR","topk":7,"async":true}`, hash)
			},
		},
		{
			kind: "significance",
			sync: func(hash string) (string, string) {
				return "/significance", fmt.Sprintf(`{"dataset":%q,"support":0.1,"metric":"FNR","alpha":0.2,"permutations":150,"seed":9}`, hash)
			},
			async: func(hash string) (string, string) {
				return "/significance", fmt.Sprintf(`{"dataset":%q,"support":0.1,"metric":"FNR","alpha":0.2,"permutations":150,"seed":9,"async":true}`, hash)
			},
		},
	}
	servers := []struct {
		name string
		new  func(t *testing.T) *exploreEnv
	}{
		{"plain", newExploreEnv},
		{"admitted", newAdmittedEnv},
	}
	for _, c := range cases {
		t.Run(c.kind, func(t *testing.T) {
			var want []byte // the plain server's sync answer
			for _, srv := range servers {
				t.Run(srv.name, func(t *testing.T) {
					a := srv.new(t)
					hash := a.register(t, csv)
					path, body := c.sync(hash)
					first := a.do(t, http.MethodPost, path, body)
					if first.Code != http.StatusOK {
						t.Fatalf("sync %s = %d: %s", path, first.Code, first.Body.String())
					}
					hits := a.statsz(t).Jobs.ResultCache.Hits
					repeat := a.do(t, http.MethodPost, path, body)
					if repeat.Code != http.StatusOK {
						t.Fatalf("repeat %s = %d: %s", path, repeat.Code, repeat.Body.String())
					}
					if bytes.Contains(first.Body.Bytes(), []byte(`"cache_hit": true`)) ||
						(c.kind != "analyze" && !bytes.Contains(repeat.Body.Bytes(), []byte(`"cache_hit": true`))) {
						t.Fatalf("cache_hit: first %s, repeat %s", first.Body.String(), repeat.Body.String())
					}
					if c.kind == "analyze" && a.statsz(t).Jobs.ResultCache.Hits != hits+1 {
						t.Fatal("repeated /analyze was not answered from the result cache")
					}

					b := srv.new(t)
					b.register(t, csv)
					path, body = c.async(hash)
					w := b.do(t, http.MethodPost, path, body)
					if w.Code != http.StatusAccepted {
						t.Fatalf("async %s = %d: %s", path, w.Code, w.Body.String())
					}
					id := decode[jobJSON](t, w).ID
					if st := pollJob(t, b.h, id); st.State != "done" {
						t.Fatalf("async job: %+v", st)
					}
					async := b.do(t, http.MethodGet, "/jobs/"+id+"/result", "")
					if async.Code != http.StatusOK {
						t.Fatalf("GET /jobs/%s/result = %d: %s", id, async.Code, async.Body.String())
					}
					if adm := b.statsz(t).Admission; b.tenant != "" && (len(adm) != 1 || adm[0].Tenant != b.tenant || adm[0].Admitted != 1) {
						t.Errorf("the async job did not take the admitted path: admission rows %+v", adm)
					}

					if want == nil {
						want = cacheHitField.ReplaceAll(first.Body.Bytes(), nil)
					}
					for name, got := range map[string][]byte{"sync": first.Body.Bytes(), "cached": repeat.Body.Bytes(), "async": async.Body.Bytes()} {
						if got := cacheHitField.ReplaceAll(got, nil); !bytes.Equal(got, want) {
							t.Errorf("%s answer differs from the plain sync one at byte %d:\nwant: %s\n%s: %s",
								name, firstDiff(got, want), want, name, got)
						}
					}
				})
			}
		})
	}
}

// newAdmittedEnv is newExploreEnv with admission control: its requests
// carry a tenant, and its engine drains jobs through the fair queue.
func newAdmittedEnv(t *testing.T) *exploreEnv {
	t.Helper()
	ctrl := admission.NewController(admission.Limits{MaxActive: 4}, nil, nil)
	reg := registry.New(0)
	engine, err := jobs.New(jobs.Config{Registry: reg, Admission: ctrl})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Options{Registry: reg, Engine: engine})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close(context.Background()) })
	return &exploreEnv{srv: s, h: s.Handler(), tenant: "analyst"}
}

// rankedRow is the part of a ranked pattern that /analyze and /explore
// both report.
type rankedRow struct {
	Itemset                      []string
	Support, Rate, Divergence, T float64
}

// TestUnbudgetedExploreMatchesAnalyze is the equivalence oracle between
// the two ranking paths: on TestCrossPathIdentical's table, an
// unbudgeted, unsampled /explore visits exactly the frequent itemsets
// /analyze mines, reports its overall rate as the global rate, and ranks
// the same top patterns with the same statistics.
func TestUnbudgetedExploreMatchesAnalyze(t *testing.T) {
	csv := datagenCSV(t, 41, 600, 5, 3)
	env := newExploreEnv(t)
	hash := env.register(t, csv)
	for _, topk := range []int{1, 7} {
		w := env.do(t, http.MethodPost, fmt.Sprintf("/analyze?support=0.05&metric=FPR,FNR&topk=%d", topk), csv)
		if w.Code != http.StatusOK {
			t.Fatalf("/analyze topk=%d = %d: %s", topk, w.Code, w.Body.String())
		}
		an := decode[responseJSON](t, w)
		if len(an.Metrics) != 2 {
			t.Fatalf("/analyze reported %d metrics, want 2", len(an.Metrics))
		}
		for _, m := range an.Metrics {
			w := env.do(t, http.MethodPost, "/explore",
				fmt.Sprintf(`{"dataset":%q,"support":0.05,"metric":%q,"topk":%d}`, hash, m.Metric, topk))
			if w.Code != http.StatusOK {
				t.Fatalf("/explore %s topk=%d = %d: %s", m.Metric, topk, w.Code, w.Body.String())
			}
			ex := decode[jobs.ExploreOutcome](t, w)
			if ex.Partial || ex.Visited != int64(an.Patterns) {
				t.Errorf("%s topk=%d: explore visited %d patterns (partial %v), analyze mined %d",
					m.Metric, topk, ex.Visited, ex.Partial, an.Patterns)
			}
			if ex.GlobalRate != m.OverallRate {
				t.Errorf("%s topk=%d: global_rate %v, overall_rate %v", m.Metric, topk, ex.GlobalRate, m.OverallRate)
			}
			var want, got []rankedRow
			for _, p := range m.Top {
				want = append(want, rankedRow{p.Itemset, p.Support, p.Rate, p.Divergence, p.T})
			}
			for _, p := range ex.Top {
				got = append(got, rankedRow{p.Items, p.Support, p.Rate, p.Divergence, p.T})
			}
			if len(want) == 0 || !reflect.DeepEqual(got, want) {
				t.Errorf("%s topk=%d: explore top differs from analyze top_divergent:\nexplore: %+v\nanalyze: %+v",
					m.Metric, topk, got, want)
			}
		}
	}
}

// TestStatszKeyPaths pins the sorted JSON key paths of a default
// server's /statsz. The end-to-end benchmark decodes these keys into
// jobs.Stats, so a renamed tag would silently zero its per-layer
// counters. Regenerate with `go test ./internal/server -run
// TestStatszKeyPaths -update` only for an intended change.
func TestStatszKeyPaths(t *testing.T) {
	h := newTestServer(t, Options{}).Handler()
	w := do(t, h, http.MethodGet, "/statsz", "")
	if w.Code != http.StatusOK {
		t.Fatalf("statsz = %d", w.Code)
	}
	var v any
	if err := json.Unmarshal(w.Body.Bytes(), &v); err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool)
	var walk func(prefix string, v any)
	walk = func(prefix string, v any) {
		switch x := v.(type) {
		case map[string]any:
			for k, child := range x {
				walk(prefix+"."+k, child)
			}
		case []any:
			for _, child := range x {
				walk(prefix+"[]", child)
			}
		}
		seen[strings.TrimPrefix(prefix, ".")] = true
	}
	walk("", v)
	delete(seen, "") // the root
	paths := make([]string, 0, len(seen))
	for p := range seen {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	got := []byte(strings.Join(paths, "\n") + "\n")
	path := filepath.Join("testdata", "statsz_keys.golden")
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("/statsz key paths differ from %s:\ngot:\n%s\nwant:\n%s", path, got, want)
	}
}

// TestRestartExploreAndSignificanceJobs: the done record of an async
// explore or significance job logs its outcome. After a restart, with
// or without the dataset back, the job is still done and its result
// answers 200 with the pre-restart body byte for byte — never an
// /analyze report re-mined from the job's spec, and never a re-run.
func TestRestartExploreAndSignificanceJobs(t *testing.T) {
	csv := datagenCSV(t, 93, 200, 3, 2)
	for _, kind := range []string{"explore", "significance"} {
		t.Run(kind, func(t *testing.T) {
			dir := t.TempDir()
			reg := registry.New(0)
			h1, _ := durableServer(t, dir, reg)
			w := do(t, h1, http.MethodPost, "/datasets", csv)
			hash := decode[datasetJSON](t, w).Hash
			body := fmt.Sprintf(`{"dataset":%q,"support":0.1,"metric":"ER","async":true}`, hash)
			if kind == "significance" {
				body = fmt.Sprintf(`{"dataset":%q,"support":0.1,"permutations":50,"seed":3,"async":true}`, hash)
			}
			w = do(t, h1, http.MethodPost, "/"+kind, body)
			if w.Code != http.StatusAccepted {
				t.Fatalf("async %s = %d: %s", kind, w.Code, w.Body.String())
			}
			id := decode[jobJSON](t, w).ID
			if st := pollJob(t, h1, id); st.State != "done" {
				t.Fatalf("job: %+v", st)
			}
			w = do(t, h1, http.MethodGet, "/jobs/"+id+"/result", "")
			if w.Code != http.StatusOK || !strings.Contains(w.Body.String(), `"metric": "ER"`) {
				t.Fatalf("pre-crash result = %d: %s", w.Code, w.Body.String())
			}
			want := w.Body.Bytes()
			walDir := snapshotWAL(t, dir)

			for _, reupload := range []bool{true, false} {
				h2, n := durableServer(t, snapshotWAL(t, walDir), registry.New(0))
				if n != 1 {
					t.Fatalf("recovered %d jobs, want 1", n)
				}
				if reupload {
					do(t, h2, http.MethodPost, "/datasets", csv)
				}
				st := decode[jobJSON](t, do(t, h2, http.MethodGet, "/jobs/"+id, ""))
				if st.State != "done" || !st.Recovered || st.Dataset != hash {
					t.Fatalf("recovered status = %+v, want done and recovered on %s", st, hash)
				}
				w = do(t, h2, http.MethodGet, "/jobs/"+id+"/result", "")
				if w.Code != http.StatusOK {
					t.Fatalf("reupload=%v: result = %d, want 200: %s", reupload, w.Code, w.Body.String())
				}
				if !bytes.Equal(w.Body.Bytes(), want) {
					t.Fatalf("reupload=%v: result differs from the pre-restart one at byte %d:\nwant: %s\ngot:  %s",
						reupload, firstDiff(w.Body.Bytes(), want), want, w.Body.String())
				}
				stats := decode[statszJSON](t, do(t, h2, http.MethodGet, "/statsz", "")).Jobs
				if stats.Rehydrated != 0 || stats.Explore.Mines != 0 || stats.Significance.Runs != 0 {
					t.Errorf("reupload=%v: rehydrated %d, explore mines %d, significance runs %d; want 0, 0, 0",
						reupload, stats.Rehydrated, stats.Explore.Mines, stats.Significance.Runs)
				}
			}
		})
	}
}
