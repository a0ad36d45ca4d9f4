package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"testing"

	"repro/internal/jobs"
)

// significance POSTs a JSON body to /significance and decodes the
// outcome on 200.
func (e *exploreEnv) significance(t *testing.T, body string) (int, jobs.SignificanceOutcome, string) {
	t.Helper()
	w := e.do(t, http.MethodPost, "/significance", body)
	var out jobs.SignificanceOutcome
	if w.Code == http.StatusOK {
		if err := json.Unmarshal(w.Body.Bytes(), &out); err != nil {
			t.Fatalf("decoding outcome: %v (%s)", err, w.Body.String())
		}
	}
	return w.Code, out, w.Body.String()
}

func TestParseSignificanceBody(t *testing.T) {
	cases := []struct {
		name string
		body string
		ok   bool
	}{
		{"minimal", `{"dataset":"abc"}`, true},
		{"full wy", `{"dataset":"abc","truth":"t","pred":"p","support":0.1,"metric":"FPR","method":"wy","alpha":0.01,"permutations":500,"seed":3,"topk":5,"baseline":true}`, true},
		{"perm-fdr", `{"dataset":"abc","method":"perm-fdr","permutations":100}`, true},
		{"bh", `{"dataset":"abc","method":"bh"}`, true},
		{"exhaustive", `{"dataset":"abc","exhaustive":true}`, true},
		{"async", `{"dataset":"abc","async":true}`, true},
		{"empty body", ``, false},
		{"not an object", `[]`, false},
		{"missing dataset", `{"support":0.1}`, false},
		{"unknown field", `{"dataset":"abc","bogus":1}`, false},
		{"trailing data", `{"dataset":"abc"} {}`, false},
		{"support over 1", `{"dataset":"abc","support":1.2}`, false},
		{"alpha at 1", `{"dataset":"abc","alpha":1}`, false},
		{"negative permutations", `{"dataset":"abc","permutations":-5}`, false},
		{"negative topk", `{"dataset":"abc","topk":-1}`, false},
		{"unknown method", `{"dataset":"abc","method":"holm"}`, false},
		{"exhaustive with B", `{"dataset":"abc","exhaustive":true,"permutations":100}`, false},
		{"bh with permutations", `{"dataset":"abc","method":"bh","permutations":10}`, false},
		{"bh with seed", `{"dataset":"abc","method":"bh","seed":1}`, false},
		{"bh exhaustive", `{"dataset":"abc","method":"bh","exhaustive":true}`, false},
	}
	for _, c := range cases {
		req, err := parseSignificanceBody([]byte(c.body))
		if (err == nil) != c.ok {
			t.Errorf("%s: err=%v ok=%v", c.name, err, c.ok)
			continue
		}
		if !c.ok {
			continue
		}
		if req.spec.TruthCol == "" || req.spec.PredCol == "" {
			t.Errorf("%s: label columns not defaulted: %+v", c.name, req.spec)
		}
		if req.spec.Support <= 0 || req.spec.Support > 1 {
			t.Errorf("%s: support %v not normalized", c.name, req.spec.Support)
		}
	}
	// Defaults pin: truth/pred columns and support fill in, the rest is
	// left for the engine.
	req, err := parseSignificanceBody([]byte(`{"dataset":"abc"}`))
	if err != nil {
		t.Fatal(err)
	}
	if req.spec.TruthCol != "truth" || req.spec.PredCol != "pred" || req.spec.Support != 0.05 {
		t.Fatalf("defaults: %+v", req.spec)
	}
	if req.async || req.spec.Method != "" || req.spec.Alpha != 0 {
		t.Fatalf("over-eager defaults: %+v", req)
	}
}

func TestSignificanceEndpointSync(t *testing.T) {
	env := newExploreEnv(t)
	hash := env.register(t, datagenCSV(t, 91, 300, 4, 3))
	code, out, body := env.significance(t,
		fmt.Sprintf(`{"dataset":"%s","support":0.1,"metric":"FPR","alpha":0.2,"permutations":200,"seed":4,"baseline":true}`, hash))
	if code != http.StatusOK {
		t.Fatalf("significance = %d: %s", code, body)
	}
	if out.Method != jobs.MethodWY || out.Metric != "FPR" || out.Permutations != 200 {
		t.Fatalf("outcome: %+v", out)
	}
	if out.Hypotheses == 0 {
		t.Fatal("no hypotheses tested")
	}
	for _, p := range out.Top {
		if p.AdjP < p.P-1e-15 {
			t.Errorf("pattern %v: adj %v below raw %v", p.Items, p.AdjP, p.P)
		}
	}
	// Identical request: served from the outcome cache.
	code, out2, _ := env.significance(t,
		fmt.Sprintf(`{"dataset":"%s","support":0.1,"metric":"FPR","alpha":0.2,"permutations":200,"seed":4,"baseline":true}`, hash))
	if code != http.StatusOK || !out2.CacheHit {
		t.Fatalf("repeat query: code=%d cache_hit=%v", code, out2.CacheHit)
	}
	// /statsz carries the significance counters.
	st := env.statsz(t)
	if st.Jobs.Significance.Queries != 2 || st.Jobs.Significance.Runs != 1 {
		t.Errorf("statsz significance: %+v", st.Jobs.Significance)
	}
}

func TestSignificanceEndpointErrors(t *testing.T) {
	env := newExploreEnv(t)
	hash := env.register(t, datagenCSV(t, 92, 100, 3, 2))
	cases := []struct {
		name, body string
		code       int
	}{
		{"bad json", `{`, http.StatusBadRequest},
		{"unknown dataset", `{"dataset":"sha256:ffff"}`, http.StatusNotFound},
		{"bad method", fmt.Sprintf(`{"dataset":"%s","method":"holm"}`, hash), http.StatusBadRequest},
		{"bad truth column", fmt.Sprintf(`{"dataset":"%s","truth":"missing","permutations":50}`, hash), http.StatusBadRequest},
		{"exhaustive too large", fmt.Sprintf(`{"dataset":"%s","exhaustive":true}`, hash), http.StatusBadRequest},
	}
	for _, c := range cases {
		code, _, body := env.significance(t, c.body)
		if code != c.code {
			t.Errorf("%s: code %d want %d (%s)", c.name, code, c.code, body)
		}
	}
	if w := env.do(t, http.MethodGet, "/significance", ""); w.Code == http.StatusOK {
		t.Errorf("GET /significance succeeded, want method error")
	}
}

func TestSignificanceEndpointAsync(t *testing.T) {
	env := newExploreEnv(t)
	hash := env.register(t, datagenCSV(t, 93, 200, 3, 2))
	w := env.do(t, http.MethodPost, "/significance",
		fmt.Sprintf(`{"dataset":"%s","support":0.1,"permutations":100,"seed":2,"async":true}`, hash))
	if w.Code != http.StatusAccepted {
		t.Fatalf("async submit = %d: %s", w.Code, w.Body.String())
	}
	var j jobJSON
	if err := json.Unmarshal(w.Body.Bytes(), &j); err != nil {
		t.Fatal(err)
	}
	st := pollJob(t, env.h, j.ID)
	if st.State != "done" {
		t.Fatalf("job state %s (%s)", st.State, st.Error)
	}
	// The job's result endpoint serves the significance outcome.
	rw := env.do(t, http.MethodGet, "/jobs/"+j.ID+"/result", "")
	if rw.Code != http.StatusOK {
		t.Fatalf("result = %d: %s", rw.Code, rw.Body.String())
	}
	var out jobs.SignificanceOutcome
	if err := json.Unmarshal(rw.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if out.Method != jobs.MethodWY || out.Permutations != 100 || out.Hypotheses == 0 {
		t.Fatalf("async outcome: %+v", out)
	}
	// The final partial snapshot marks completion.
	pw := env.do(t, http.MethodGet, "/jobs/"+j.ID+"/partial", "")
	if pw.Code != http.StatusOK {
		t.Fatalf("partial = %d", pw.Code)
	}
	var snap struct {
		Reason string `json:"reason"`
	}
	if err := json.Unmarshal(pw.Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Reason != "complete" {
		t.Errorf("final snapshot reason %q", snap.Reason)
	}
}

// FuzzSignificanceRequest drives the /significance body parser with
// arbitrary bytes: never panic, parse deterministically, and every
// accepted request must satisfy the invariants handleSignificance and
// the engine rely on.
func FuzzSignificanceRequest(f *testing.F) {
	seeds := []string{
		`{"dataset":"abc123","support":0.05,"metric":"FPR","topk":5}`,
		`{"dataset":"abc123","method":"wy","permutations":1000,"seed":42,"alpha":0.05}`,
		`{"dataset":"abc123","method":"perm-fdr","permutations":100,"baseline":true}`,
		`{"dataset":"abc123","method":"bh","alpha":0.1}`,
		`{"dataset":"abc123","exhaustive":true,"async":true}`,
		`{"dataset":"abc123","truth":"y","pred":"yhat","support":1}`,
		`{}`,
		``,
		`null`,
		`[]`,
		`{"dataset":"x","support":"0.05"}`,
		`{"dataset":"x","unknown_field":1}`,
		`{"dataset":"x"} trailing`,
		`{"dataset":"x","alpha":0.9999999}`,
		`{"dataset":"x","permutations":-9223372036854775808}`,
		`{"dataset":"x","exhaustive":true,"permutations":1}`,
		`{"dataset":"x","method":"bh","seed":-1}`,
		`{"dataset":" ","topk":2147483647}`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		req, err := parseSignificanceBody(body)
		req2, err2 := parseSignificanceBody(body)
		if (err == nil) != (err2 == nil) || !reflect.DeepEqual(req, req2) {
			t.Fatalf("parse is not deterministic on %q", body)
		}
		if err != nil {
			return
		}
		spec := req.spec
		if spec.Dataset == "" {
			t.Fatalf("accepted empty dataset: %q", body)
		}
		if spec.TruthCol == "" || spec.PredCol == "" {
			t.Fatalf("spec without label columns: %q", body)
		}
		if spec.Support <= 0 || spec.Support > 1 {
			t.Fatalf("support %v out of (0,1]: %q", spec.Support, body)
		}
		if spec.Alpha < 0 || spec.Alpha >= 1 {
			t.Fatalf("alpha %v out of [0,1): %q", spec.Alpha, body)
		}
		if spec.Permutations < 0 || spec.TopK < 0 {
			t.Fatalf("negative knob accepted: %q", body)
		}
		switch spec.Method {
		case "", jobs.MethodWY, jobs.MethodPermFDR:
			if spec.Exhaustive && spec.Permutations != 0 {
				t.Fatalf("exhaustive with explicit B accepted: %q", body)
			}
		case jobs.MethodBH:
			if spec.Permutations != 0 || spec.Exhaustive || spec.Seed != 0 {
				t.Fatalf("bh with permutation knobs accepted: %q", body)
			}
		default:
			t.Fatalf("unknown method %q accepted: %q", spec.Method, body)
		}
	})
}

// TestOneMinePerSupport pins the result cache's key to the mine's own
// inputs: an /analyze of FPR, an /analyze of FNR and ER with pruning,
// and an analytic significance query on ER, all on one table at one
// support, share a single mined lattice (one result-cache miss), and
// each answer is byte-equal to the same request on a fresh server.
func TestOneMinePerSupport(t *testing.T) {
	csv := datagenCSV(t, 7, 1200, 6, 3)
	requests := []func(e *exploreEnv, hash string) (int, string){
		func(e *exploreEnv, _ string) (int, string) {
			w := e.do(t, http.MethodPost, "/analyze?support=0.05&metric=FPR", csv)
			return w.Code, w.Body.String()
		},
		func(e *exploreEnv, _ string) (int, string) {
			w := e.do(t, http.MethodPost, "/analyze?support=0.05&metric=FNR,ER&eps=0.02", csv)
			return w.Code, w.Body.String()
		},
		func(e *exploreEnv, hash string) (int, string) {
			code, _, body := e.significance(t, fmt.Sprintf(`{"dataset":%q,"support":0.05,"metric":"ER","method":"bh"}`, hash))
			return code, body
		},
	}
	shared := newExploreEnv(t)
	hash := shared.register(t, csv)
	for i, req := range requests {
		code, got := req(shared, hash)
		fresh := newExploreEnv(t)
		wantCode, want := req(fresh, fresh.register(t, csv))
		if code != http.StatusOK || wantCode != http.StatusOK {
			t.Fatalf("request %d: status %d shared, %d fresh: %s", i, code, wantCode, got)
		}
		if got != want {
			t.Errorf("request %d: the shared server's answer differs from a fresh server's:\n%s\nvs\n%s", i, got, want)
		}
	}
	if st := shared.srv.engine.Stats().ResultCache; st.Misses != 1 || st.Hits != 2 {
		t.Errorf("result cache %+v, want one miss and two hits", st)
	}
}
