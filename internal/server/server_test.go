package server

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

const sampleCSV = `group,region,truth,pred
A,n,0,1
A,n,0,1
A,n,0,1
A,n,0,0
A,s,0,1
A,s,0,0
A,s,0,0
B,n,0,0
B,n,0,0
B,n,0,1
B,s,1,1
B,s,1,0
B,s,1,1
B,s,1,0
`

func doRequest(t *testing.T, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	method := http.MethodPost
	if body == "" {
		method = http.MethodGet
	}
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	w := httptest.NewRecorder()
	Handler().ServeHTTP(w, req)
	return w
}

func TestHealthz(t *testing.T) {
	w := doRequest(t, "/healthz", "")
	if w.Code != http.StatusOK || !strings.Contains(w.Body.String(), "ok") {
		t.Fatalf("healthz = %d %q", w.Code, w.Body.String())
	}
}

func TestIndex(t *testing.T) {
	w := doRequest(t, "/", "")
	if w.Code != http.StatusOK || !strings.Contains(w.Body.String(), "DivExplorer") {
		t.Fatalf("index = %d", w.Code)
	}
	if w := doRequest(t, "/nope", ""); w.Code != http.StatusNotFound {
		t.Fatalf("unknown path = %d, want 404", w.Code)
	}
}

func TestAnalyzeJSON(t *testing.T) {
	w := doRequest(t, "/analyze?support=0.05&metric=FPR", sampleCSV)
	if w.Code != http.StatusOK {
		t.Fatalf("analyze = %d: %s", w.Code, w.Body.String())
	}
	var resp responseJSON
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Rows != 14 || resp.Attrs != 2 {
		t.Errorf("rows=%d attrs=%d", resp.Rows, resp.Attrs)
	}
	if len(resp.Metrics) != 1 || resp.Metrics[0].Metric != "FPR" {
		t.Fatalf("metrics = %+v", resp.Metrics)
	}
	if len(resp.Metrics[0].Top) == 0 {
		t.Fatal("no top patterns")
	}
	// The divergent group A must surface.
	found := false
	for _, p := range resp.Metrics[0].Top {
		for _, it := range p.Itemset {
			if it == "group=A" {
				found = true
			}
		}
	}
	if !found {
		t.Errorf("group=A missing from top patterns: %+v", resp.Metrics[0].Top)
	}
}

func TestAnalyzeHTML(t *testing.T) {
	w := doRequest(t, "/analyze?format=html&eps=0.02&alpha=0.1", sampleCSV)
	if w.Code != http.StatusOK {
		t.Fatalf("analyze html = %d: %s", w.Code, w.Body.String())
	}
	if ct := w.Header().Get("Content-Type"); !strings.Contains(ct, "text/html") {
		t.Errorf("content type = %q", ct)
	}
	body := w.Body.String()
	for _, want := range []string{"<!DOCTYPE html>", "Metric FPR", "group=A"} {
		if !strings.Contains(body, want) {
			t.Errorf("HTML missing %q", want)
		}
	}
}

func TestAnalyzeCSV(t *testing.T) {
	w := doRequest(t, "/analyze?format=csv&metric=FPR", sampleCSV)
	if w.Code != http.StatusOK {
		t.Fatalf("analyze csv = %d", w.Code)
	}
	if !strings.HasPrefix(w.Body.String(), "itemset,") {
		t.Errorf("CSV body = %q", w.Body.String()[:40])
	}
}

func TestAnalyzeCustomColumns(t *testing.T) {
	csv := strings.ReplaceAll(sampleCSV, "truth,pred", "y,yhat")
	w := doRequest(t, "/analyze?truth=y&pred=yhat", csv)
	if w.Code != http.StatusOK {
		t.Fatalf("custom columns = %d: %s", w.Code, w.Body.String())
	}
}

func TestAnalyzeErrors(t *testing.T) {
	cases := []struct {
		name, path, body string
	}{
		{"bad support", "/analyze?support=2", sampleCSV},
		{"bad topk", "/analyze?topk=0", sampleCSV},
		{"bad eps", "/analyze?eps=-1", sampleCSV},
		{"bad alpha", "/analyze?alpha=2", sampleCSV},
		{"bad metric", "/analyze?metric=XYZ", sampleCSV},
		{"bad format", "/analyze?format=xml", sampleCSV},
		{"missing truth column", "/analyze?truth=ghost", sampleCSV},
		{"non-boolean labels", "/analyze?truth=group", sampleCSV},
		{"empty body", "/analyze", ""},
		{"garbage csv", "/analyze", "a,b\nonly-one-field\n"},
	}
	for _, c := range cases {
		req := httptest.NewRequest(http.MethodPost, c.path, strings.NewReader(c.body))
		w := httptest.NewRecorder()
		Handler().ServeHTTP(w, req)
		if w.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", c.name, w.Code, w.Body.String())
		}
	}
}

func TestAnalyzeMethodNotAllowed(t *testing.T) {
	req := httptest.NewRequest(http.MethodGet, "/analyze", nil)
	w := httptest.NewRecorder()
	Handler().ServeHTTP(w, req)
	if w.Code == http.StatusOK {
		t.Errorf("GET /analyze succeeded, want method error")
	}
}

// TestWriteJSONMatchesEncoder pins the pooled writer to the bytes a fresh
// indenting encoder writes, trailing newline included, across responses
// of different sizes that share one pooled buffer, and to an empty body
// when the value cannot be encoded.
func TestWriteJSONMatchesEncoder(t *testing.T) {
	big := make([]int, 5000)
	for _, v := range []any{
		map[string]any{"a": 1, "b": []string{"x", "y"}},
		big,
		struct{ N float64 }{1.5},
		map[string]string{},
		math.NaN(),
	} {
		var want strings.Builder
		enc := json.NewEncoder(&want)
		enc.SetIndent("", "  ")
		_ = enc.Encode(v) // NaN fails and writes nothing
		rec := httptest.NewRecorder()
		writeJSON(rec, http.StatusTeapot, v)
		if rec.Code != http.StatusTeapot || rec.Header().Get("Content-Type") != "application/json" || rec.Body.String() != want.String() {
			t.Errorf("writeJSON(%T) = %d %q, want %q", v, rec.Code, rec.Body.String(), want.String())
		}
	}
}
