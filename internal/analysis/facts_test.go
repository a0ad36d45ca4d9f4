package analysis_test

import (
	"math/rand"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// loadFixtureFacts loads one fixture package and builds facts over its
// module-internal import closure.
func loadFixtureFacts(t *testing.T, dir string) *analysis.Facts {
	t.Helper()
	loader, err := analysis.NewLoader(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := loader.LoadDir(filepath.Join("testdata", "src", filepath.FromSlash(dir))); err != nil {
		t.Fatal(err)
	}
	return analysis.BuildFacts(loader.Fset, loader.ModulePath, loader.ModulePackages())
}

// TestFactsHotClosure pins the call-graph closure: lint:hot seeds are
// hot, their same-module callees are hot, and a callee invoked from
// inside a seed's loop is loop-hot — a method of a generic type too. The
// cold function with an identical body stays outside both sets.
func TestFactsHotClosure(t *testing.T) {
	facts := loadFixtureFacts(t, "hotalloc")

	hot := facts.HotFuncNames()
	wantHot := []string{
		"(*fixture/hotalloc.ring[T]).push",
		"fixture/hotalloc.Mine", "fixture/hotalloc.MineGeneric", "fixture/hotalloc.MineLookup", "fixture/hotalloc.MineReused",
		"fixture/hotalloc.grow", "fixture/hotalloc.guarded", "fixture/hotalloc.helper",
	}
	if strings.Join(hot, ",") != strings.Join(wantHot, ",") {
		t.Errorf("hot closure = %v, want %v", hot, wantHot)
	}

	loopHot := facts.LoopHotFuncNames()
	wantLoopHot := []string{
		"(*fixture/hotalloc.ring[T]).push",
		"fixture/hotalloc.grow", "fixture/hotalloc.guarded", "fixture/hotalloc.helper",
	}
	if strings.Join(loopHot, ",") != strings.Join(wantLoopHot, ",") {
		t.Errorf("loop-hot set = %v, want %v", loopHot, wantLoopHot)
	}
}

// TestFactsHotClosureTransitive builds a deeper chain out of the clean
// fixture (no lint:hot anywhere) and asserts both sets stay empty —
// hotness never appears without a seed.
func TestFactsHotClosureTransitive(t *testing.T) {
	facts := loadFixtureFacts(t, "clean")
	if got := facts.HotFuncNames(); len(got) != 0 {
		t.Errorf("hot closure without seeds = %v, want empty", got)
	}
	if got := facts.LoopHotFuncNames(); len(got) != 0 {
		t.Errorf("loop-hot set without seeds = %v, want empty", got)
	}
}

// TestFormatJSONDeterministic shuffles a diagnostic set and asserts both
// emitters produce canonical order regardless of input order — the
// contract CI diffs and golden files depend on across multi-analyzer,
// multi-package runs.
func TestFormatJSONDeterministic(t *testing.T) {
	base := []analysis.Diagnostic{
		{File: "a.go", Line: 3, Col: 1, Analyzer: "floatcmp", Message: "m1"},
		{File: "a.go", Line: 3, Col: 1, Analyzer: "hotalloc", Message: "m2"},
		{File: "a.go", Line: 10, Col: 2, Analyzer: "lint", Message: "m3"},
		{File: "b.go", Line: 1, Col: 9, Analyzer: "ctxflow", Message: "m4"},
		{File: "a.go", Line: 3, Col: 7, Analyzer: "atomicmix", Message: "m5"},
	}
	rng := rand.New(rand.NewSource(1))
	var want string
	for trial := 0; trial < 20; trial++ {
		shuffled := append([]analysis.Diagnostic(nil), base...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		var json, text strings.Builder
		if err := analysis.FormatJSON(&json, shuffled); err != nil {
			t.Fatal(err)
		}
		if err := analysis.Format(&text, shuffled); err != nil {
			t.Fatal(err)
		}
		got := json.String() + "\n---\n" + text.String()
		if trial == 0 {
			want = got
			continue
		}
		if got != want {
			t.Fatalf("emission depends on input order:\n--- got ---\n%s--- want ---\n%s", got, want)
		}
	}
	// The canonical order itself: file, then line, then column, then
	// analyzer.
	var text strings.Builder
	if err := analysis.Format(&text, base); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(text.String()), "\n")
	wantFirst := "a.go:3:1: [floatcmp] m1"
	if lines[0] != wantFirst {
		t.Errorf("first emitted line = %q, want %q", lines[0], wantFirst)
	}
	wantLast := "b.go:1:9: [ctxflow] m4"
	if lines[len(lines)-1] != wantLast {
		t.Errorf("last emitted line = %q, want %q", lines[len(lines)-1], wantLast)
	}
}
