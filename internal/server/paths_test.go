package server

import (
	"bytes"
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

	"repro/internal/jobs"
	"repro/internal/registry"
)

// cacheHitField matches the one field allowed to differ between the
// answers of one question asked along different paths.
var cacheHitField = regexp.MustCompile(`"cache_hit": (true|false)`)

// TestCrossPathIdentical asks each kind of question three ways: the
// synchronous endpoint, an async job's /jobs/{id}/result on a second
// server that mines from cold, and a repeat of the synchronous request
// served from the cache. The three bodies must be byte-identical apart
// from the cache_hit field.
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
	for _, c := range cases {
		t.Run(c.kind, func(t *testing.T) {
			a := newExploreEnv(t)
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

			b := newExploreEnv(t)
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

			want := cacheHitField.ReplaceAll(first.Body.Bytes(), nil)
			for name, got := range map[string][]byte{"cached": repeat.Body.Bytes(), "async": async.Body.Bytes()} {
				if got := cacheHitField.ReplaceAll(got, nil); !bytes.Equal(got, want) {
					t.Errorf("%s answer differs from the sync one at byte %d:\nsync:  %s\n%s: %s",
						name, firstDiff(got, want), want, name, got)
				}
			}
		})
	}
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

// TestRestartExploreAndSignificanceJobs: the outcome of an async explore
// or significance job lives only in memory. After a restart the job is
// still done, and its result answers 410 with a reason naming the kind —
// never an /analyze report re-mined from the job's spec, whether or not
// the dataset is back.
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
			walDir := snapshotWAL(t, dir)

			for _, reupload := range []bool{true, false} {
				h2, n := durableServer(t, snapshotWAL(t, walDir), registry.New(0))
				if n != 1 {
					t.Fatalf("recovered %d jobs, want 1", n)
				}
				if reupload {
					do(t, h2, http.MethodPost, "/datasets", csv)
				}
				if st := decode[jobJSON](t, do(t, h2, http.MethodGet, "/jobs/"+id, "")); st.State != "done" || !st.Recovered {
					t.Fatalf("recovered status = %+v, want done and recovered", st)
				}
				w = do(t, h2, http.MethodGet, "/jobs/"+id+"/result", "")
				if strings.Contains(w.Body.String(), "frequent_itemsets") {
					t.Fatalf("reupload=%v: result is an analysis body: %s", reupload, w.Body.String())
				}
				if w.Code != http.StatusGone {
					t.Fatalf("reupload=%v: result = %d, want 410: %s", reupload, w.Code, w.Body.String())
				}
				if reason := decode[map[string]string](t, w)["error"]; !strings.Contains(reason, kind) {
					t.Errorf("reupload=%v: reason %q does not name the %s kind", reupload, reason, kind)
				}
				if got := decode[statszJSON](t, do(t, h2, http.MethodGet, "/statsz", "")).Jobs.Rehydrated; got != 0 {
					t.Errorf("reupload=%v: jobs.rehydrated = %d, want 0", reupload, got)
				}
			}
		})
	}
}
