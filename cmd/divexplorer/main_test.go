package main

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

const sampleCSV = `group,region,score,truth,pred
A,north,1,0,1
A,north,2,0,1
A,north,3,0,1
A,north,4,0,0
A,south,5,0,1
A,south,6,0,0
A,south,7,0,0
B,north,8,0,0
B,north,9,0,0
B,north,10,0,1
B,south,11,1,1
B,south,12,1,0
B,south,13,1,1
B,south,14,1,0
`

func baseConfig() config {
	return config{
		truthCol: "truth",
		predCol:  "pred",
		metrics:  "FPR",
		support:  0.05,
		topK:     5,
		miner:    "fpgrowth",
	}
}

func TestRunBasic(t *testing.T) {
	cfg := baseConfig()
	cfg.discretize = "score=2"
	var out bytes.Buffer
	if err := run(cfg, strings.NewReader(sampleCSV), &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"frequent itemsets", "overall FPR", "group=A"} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}
	// Label columns must not appear as items.
	if strings.Contains(s, "truth=") || strings.Contains(s, "pred=") {
		t.Error("label columns leaked into the analysis")
	}
}

func TestRunAllAnalyses(t *testing.T) {
	cfg := baseConfig()
	cfg.metrics = "FPR,ACC"
	cfg.shapley = "top"
	cfg.global = true
	cfg.corrective = 3
	cfg.lattice = "group=A, region=north"
	cfg.discretize = "score=2"
	var out bytes.Buffer
	if err := run(cfg, strings.NewReader(sampleCSV), &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"item contributions", "global vs individual", "Lattice of"} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestRunPruning(t *testing.T) {
	cfg := baseConfig()
	cfg.eps = 0.02
	cfg.discretize = "score=2"
	var out bytes.Buffer
	if err := run(cfg, strings.NewReader(sampleCSV), &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "pruned at ε=0.02") {
		t.Errorf("pruning banner missing:\n%s", out.String())
	}
}

func TestRunApriori(t *testing.T) {
	cfg := baseConfig()
	cfg.miner = "apriori"
	cfg.discretize = "score=2"
	var out bytes.Buffer
	if err := run(cfg, strings.NewReader(sampleCSV), &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "miner apriori") {
		t.Error("miner banner missing")
	}
}

func TestRunErrors(t *testing.T) {
	cases := []struct {
		name string
		mod  func(*config)
		csv  string
	}{
		{"bad truth column", func(c *config) { c.truthCol = "ghost" }, sampleCSV},
		{"bad metric", func(c *config) { c.metrics = "XYZ" }, sampleCSV},
		{"bad miner", func(c *config) { c.miner = "carpenter" }, sampleCSV},
		{"retired miner", func(c *config) { c.miner = "eclat" }, sampleCSV},
		{"bad discretize spec", func(c *config) { c.discretize = "score" }, sampleCSV},
		{"bad discretize bins", func(c *config) { c.discretize = "score=x" }, sampleCSV},
		{"bad lattice pattern", func(c *config) { c.lattice = "nope=1" }, sampleCSV},
		{"bad shapley pattern", func(c *config) { c.shapley = "nope=1" }, sampleCSV},
		{"empty csv", func(c *config) {}, ""},
	}
	for _, tc := range cases {
		cfg := baseConfig()
		cfg.discretize = "score=2"
		tc.mod(&cfg)
		var out bytes.Buffer
		if err := run(cfg, strings.NewReader(tc.csv), &out); err == nil {
			t.Errorf("%s: run succeeded, want error", tc.name)
		}
	}
}

// TestRunRejectsBadCounts pins the CLI's top-K bounds: -topk -1 used to
// reach a slice bound panic inside the ranking, and -corrective must
// not be negative. Both are usage errors, reported before any input is
// read.
func TestRunRejectsBadCounts(t *testing.T) {
	for _, tc := range []struct {
		name             string
		topK, corr       int
		wantErr, wantOut string
	}{
		{"topk zero", 0, 0, "-topk 0", ""},
		{"topk negative", -1, 0, "-topk -1", ""},
		{"corrective negative", 5, -1, "-corrective -1", ""},
		{"corrective off", 5, 0, "", "top 5 patterns"},
	} {
		cfg := baseConfig()
		cfg.discretize = "score=2"
		cfg.topK, cfg.corrective = tc.topK, tc.corr
		var out bytes.Buffer
		err := run(cfg, strings.NewReader(sampleCSV), &out)
		switch {
		case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
			t.Errorf("%s: err = %v, want one naming %q", tc.name, err, tc.wantErr)
		case tc.wantErr == "" && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case !strings.Contains(out.String(), tc.wantOut):
			t.Errorf("%s: output missing %q:\n%s", tc.name, tc.wantOut, out.String())
		}
	}
}

func TestRunMissingValues(t *testing.T) {
	csv := "g,truth,pred\nA,1,1\n?,0,1\nB,0,0\n"
	cfg := baseConfig()
	cfg.missing = "?"
	cfg.support = 0.1
	var out bytes.Buffer
	if err := run(cfg, strings.NewReader(csv), &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "2 rows") {
		t.Errorf("missing-value record not dropped:\n%s", out.String())
	}
}

func TestSplitPattern(t *testing.T) {
	got := splitPattern("a=1 , b=2,c=3")
	want := []string{"a=1", "b=2", "c=3"}
	for i, w := range want {
		if got[i] != w {
			t.Fatalf("splitPattern = %v", got)
		}
	}
}

func TestRunSignificanceAndExport(t *testing.T) {
	cfg := baseConfig()
	cfg.alpha = 0.1
	cfg.discretize = "score=2"
	cfg.export = t.TempDir() + "/out.csv"
	var out bytes.Buffer
	if err := run(cfg, strings.NewReader(sampleCSV), &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "significant at FDR") {
		t.Errorf("significance banner missing:\n%s", out.String())
	}
	data, err := os.ReadFile(cfg.export)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "itemset,") {
		t.Errorf("export file malformed: %q", string(data)[:40])
	}
}

func TestRunFairnessAndHTML(t *testing.T) {
	cfg := baseConfig()
	cfg.fairness = "group"
	cfg.htmlOut = t.TempDir() + "/report.html"
	cfg.discretize = "score=2"
	var out bytes.Buffer
	if err := run(cfg, strings.NewReader(sampleCSV), &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "group fairness by group") || !strings.Contains(s, "gaps:") {
		t.Errorf("fairness section missing:\n%s", s)
	}
	html, err := os.ReadFile(cfg.htmlOut)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(html), "<!DOCTYPE html>") {
		t.Error("HTML report malformed")
	}
	// Bad fairness attribute errors out.
	cfg.fairness = "ghost"
	if err := run(cfg, strings.NewReader(sampleCSV), &out); err == nil {
		t.Error("unknown fairness attribute accepted")
	}
}

func TestRunCompareMode(t *testing.T) {
	// Second snapshot: group B's region-south predictions all flip
	// positive, shifting its FPR.
	shifted := strings.ReplaceAll(sampleCSV, "B,south,1,0", "B,south,1,1")
	dir := t.TempDir()
	otherPath := dir + "/other.csv"
	if err := os.WriteFile(otherPath, []byte(shifted), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := baseConfig()
	cfg.discretize = "score=2"
	cfg.compare = otherPath
	var out bytes.Buffer
	if err := run(cfg, strings.NewReader(sampleCSV), &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "largest FPR shifts") {
		t.Errorf("compare section missing:\n%s", out.String())
	}
	// Missing comparison file errors out.
	cfg.compare = dir + "/ghost.csv"
	if err := run(cfg, strings.NewReader(sampleCSV), &out); err == nil {
		t.Error("missing comparison file accepted")
	}
}
